//! Experiment E3 — validates **Theorem 3**: the final discrepancy of
//! Algorithm 1 is at most `2·d·w_max + 2`, and scales linearly with both `d`
//! and `w_max` but not with `n`.
//!
//! Sweeps hypercube dimension (varying `d` and `n` together) and the maximum
//! task weight, and reports measured max-min discrepancy against the bound.

use super::ExperimentReport;
use crate::harness::{measure_balancing_time, ContinuousModel};
use lb_analysis::{format_value, linear_fit, ExperimentRecord, Measurement, Summary, Table};
use lb_core::continuous::Fos;
use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
use lb_core::{InitialLoad, Speeds, Task, TaskId};
use lb_graph::{generators, AlphaScheme};
use lb_workloads::{pad_for_min_load, weighted_load, WeightModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the Theorem-3 workload on a hypercube of the given dimension:
/// `tasks_on_source` weighted tasks on node 0 plus the `d·w_max` per-node
/// padding required by part (2) of the theorem.
fn workload(dim: u32, w_max: u64, tasks_on_source: u64, seed: u64) -> (usize, InitialLoad) {
    let n = 1usize << dim;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_node = vec![0u64; n];
    per_node[0] = tasks_on_source;
    let model = if w_max == 1 {
        WeightModel::Unit
    } else {
        WeightModel::UniformRange { w_max }
    };
    let base = weighted_load(&per_node, model, &mut rng);
    // Force at least one task of weight exactly w_max so the reported w_max
    // is the configured one.
    let mut tasks = base.into_tasks();
    let next_id = tasks
        .iter()
        .flatten()
        .map(|t| t.id().0 + 1)
        .max()
        .unwrap_or(0);
    tasks[0].push(Task::new(TaskId(next_id), w_max));
    let base = InitialLoad::from_tasks(tasks);
    let speeds = Speeds::uniform(n);
    let padded = pad_for_min_load(&base, &speeds, dim as u64 * w_max);
    (n, padded)
}

/// Runs the experiment. `quick` shrinks the sweeps for tests and `lb theorem3 --quick`.
pub fn run(quick: bool) -> ExperimentReport {
    let dims: &[u32] = if quick { &[3, 4] } else { &[3, 4, 5, 6, 7] };
    let weights: &[u64] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };

    let mut record = ExperimentRecord::new(
        "E3-theorem3",
        "Theorem 3",
        "Algorithm 1 (FOS) on hypercubes: measured final max-min discrepancy vs the \
         2*d*w_max + 2 bound, sweeping the dimension d and the maximum task weight w_max, \
         with the d*w_max per-node padding of Theorem 3(2).",
    );
    let mut table = Table::new(vec![
        "dim (d)".into(),
        "n".into(),
        "w_max".into(),
        "T".into(),
        "max-min".into(),
        "bound 2d*w_max+2".into(),
        "dummies".into(),
    ]);

    let mut scaling_points_d = Vec::new();
    let mut scaling_points_w = Vec::new();

    for &dim in dims {
        for &w_max in weights {
            let (n, initial) = workload(dim, w_max, 40 * (1 << dim), 97);
            let speeds = Speeds::uniform(n);
            let graph: std::sync::Arc<lb_graph::Graph> = generators::hypercube(dim)
                .expect("hypercube dims are valid")
                .into();
            let t = measure_balancing_time(&graph, &speeds, &initial, ContinuousModel::Fos, 60_000)
                .expect("FOS constructs")
                .rounds();
            let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne)
                .expect("FOS constructs");
            let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo)
                .expect("dimensions agree");
            alg1.run(t);
            let metrics = alg1.metrics();
            let bound = 2.0 * dim as f64 * w_max as f64 + 2.0;
            table.add_row(vec![
                dim.to_string(),
                n.to_string(),
                w_max.to_string(),
                t.to_string(),
                format_value(metrics.max_min),
                format_value(bound),
                alg1.dummy_created().to_string(),
            ]);
            record.push(Measurement {
                algorithm: "alg1(fos)".into(),
                graph: format!("hypercube({dim})"),
                nodes: n,
                max_degree: dim as usize,
                rounds: t,
                max_min: Summary::of(&[metrics.max_min]),
                max_avg: Summary::of(&[metrics.max_avg]),
                notes: vec![
                    ("w_max".into(), w_max.to_string()),
                    ("bound".into(), format_value(bound)),
                    ("dummies".into(), alg1.dummy_created().to_string()),
                ],
            });
            if w_max == *weights.last().expect("non-empty") {
                scaling_points_d.push((dim as f64, metrics.max_min));
            }
            if dim == *dims.last().expect("non-empty") {
                scaling_points_w.push((w_max as f64, metrics.max_min));
            }
        }
    }

    let (slope_d, _) = linear_fit(&scaling_points_d);
    let (slope_w, _) = linear_fit(&scaling_points_w);
    let markdown = format!(
        "# E3 — Theorem 3 bound check (Algorithm 1, FOS on hypercubes)\n\n{}\n\
         Linear-fit slope of max-min vs d (at largest w_max): {:.2}; vs w_max (at largest d): {:.2}.\n\
         The paper predicts at most linear growth in both and no dependence on n; the bound \
         2·d·w_max + 2 must never be exceeded and the `dummies` column must stay 0 (Theorem 3(2)).\n",
        table.render(),
        slope_d,
        slope_w
    );

    ExperimentReport { markdown, record }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_never_violated_and_no_dummies() {
        let report = run(true);
        for m in &report.record.measurements {
            let bound: f64 = m
                .notes
                .iter()
                .find(|(k, _)| k == "bound")
                .and_then(|(_, v)| v.parse().ok())
                .expect("bound note present");
            assert!(
                m.max_min.max <= bound + 1e-9,
                "{} w_max={:?}: {} > {}",
                m.graph,
                m.notes,
                m.max_min.max,
                bound
            );
            let dummies: u64 = m
                .notes
                .iter()
                .find(|(k, _)| k == "dummies")
                .and_then(|(_, v)| v.parse().ok())
                .expect("dummies note present");
            assert_eq!(dummies, 0, "{}: infinite source must stay unused", m.graph);
        }
    }
}
