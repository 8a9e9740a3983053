//! Experiment E6 — the paper's general model: heterogeneous node speeds and
//! weighted tasks.
//!
//! Prior work (Tables 1 and 2) is stated for uniform tasks and speeds; the
//! paper's contribution covers weighted tasks and speeds with the same
//! `2·d·w_max + 2` bound. This experiment measures Algorithm 1 and Algorithm
//! 2 (tokens only) under heterogeneous speeds, and Algorithm 1 under weighted
//! tasks, against the round-down baseline.

use super::ExperimentReport;
use crate::harness::{measure_balancing_time, run_once, ContinuousModel, Discretizer, RunConfig};
use lb_analysis::{format_value, ExperimentRecord, Measurement, Summary, Table};
use lb_core::continuous::Fos;
use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
use lb_core::{InitialLoad, Speeds};
use lb_graph::{generators, AlphaScheme, Graph};
use lb_workloads::{pad_for_min_load, weighted_load, SpeedModel, WeightModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Runs the experiment. `quick` shrinks the instance for tests and `lb heterogeneous --quick`.
pub fn run(quick: bool) -> ExperimentReport {
    let side = if quick { 6 } else { 24 };
    let graph: Arc<Graph> = generators::torus(side, side).expect("torus builds").into();
    let n = graph.node_count();
    let d = graph.max_degree() as u64;
    let mut rng = StdRng::seed_from_u64(31);

    let mut record = ExperimentRecord::new(
        "E6-heterogeneous",
        "General model (speeds + weighted tasks)",
        format!(
            "Torus {side}x{side}: (a) heterogeneous speeds (powers of two) with unit tokens, \
             comparing alg1/alg2/round-down; (b) weighted tasks (w_max = 4) with uniform speeds, \
             alg1 vs its 2*d*w_max + 2 bound."
        ),
    );
    let mut table = Table::new(vec![
        "setting".into(),
        "algorithm".into(),
        "max-min".into(),
        "max-avg".into(),
        "bound".into(),
    ]);

    // ---- (a) heterogeneous speeds, unit tokens ----
    let speeds = SpeedModel::PowersOfTwo { classes: 3 }.generate(n, &mut rng);
    let mut counts = vec![0u64; n];
    counts[0] = 40 * speeds.total();
    let base = InitialLoad::from_token_counts(counts);
    let initial = pad_for_min_load(&base, &speeds, d);
    let t = measure_balancing_time(&graph, &speeds, &initial, ContinuousModel::Fos, 100_000)
        .expect("FOS constructs")
        .rounds();
    for discretizer in [Discretizer::Alg1, Discretizer::Alg2, Discretizer::RoundDown] {
        let outcome = run_once(&RunConfig {
            graph: graph.clone(),
            speeds: speeds.clone(),
            initial: initial.clone(),
            model: ContinuousModel::Fos,
            discretizer,
            rounds: t,
            seed: 9,
        })
        .expect("supported combination");
        let bound = match discretizer {
            Discretizer::Alg1 => format_value(2.0 * d as f64 + 2.0),
            _ => "-".to_string(),
        };
        table.add_row(vec![
            "speeds 1/2/4, tokens".into(),
            discretizer.label().to_string(),
            format_value(outcome.max_min),
            format_value(outcome.max_avg),
            bound,
        ]);
        record.push(Measurement {
            algorithm: discretizer.label().to_string(),
            graph: format!("torus({side}x{side}) speeds=1/2/4"),
            nodes: n,
            max_degree: d as usize,
            rounds: t,
            max_min: Summary::of(&[outcome.max_min]),
            max_avg: Summary::of(&[outcome.max_avg]),
            notes: vec![("setting".into(), "heterogeneous speeds".into())],
        });
    }

    // ---- (b) weighted tasks, uniform speeds (Algorithm 1 only; the
    // baselines and Algorithm 2 are token-only) ----
    let w_max = 4u64;
    let uniform_speeds = Speeds::uniform(n);
    let mut per_node = vec![0u64; n];
    per_node[0] = 30 * n as u64 / 4;
    let weighted = weighted_load(&per_node, WeightModel::UniformRange { w_max }, &mut rng);
    let weighted = pad_for_min_load(&weighted, &uniform_speeds, d * w_max);
    let t_w = measure_balancing_time(
        &graph,
        &uniform_speeds,
        &weighted,
        ContinuousModel::Fos,
        100_000,
    )
    .expect("FOS constructs")
    .rounds();
    let fos = Fos::new(
        graph.clone(),
        &uniform_speeds,
        AlphaScheme::MaxDegreePlusOne,
    )
    .expect("FOS constructs");
    let mut alg1 = FlowImitation::new(fos, &weighted, uniform_speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    alg1.run(t_w);
    let m = alg1.metrics();
    let bound = 2.0 * d as f64 * weighted.max_weight() as f64 + 2.0;
    table.add_row(vec![
        format!("weighted tasks w_max={}", weighted.max_weight()),
        "alg1 (this paper)".into(),
        format_value(m.max_min),
        format_value(m.max_avg),
        format_value(bound),
    ]);
    record.push(Measurement {
        algorithm: "alg1(fos)".into(),
        graph: format!("torus({side}x{side}) weighted"),
        nodes: n,
        max_degree: d as usize,
        rounds: t_w,
        max_min: Summary::of(&[m.max_min]),
        max_avg: Summary::of(&[m.max_avg]),
        notes: vec![
            ("setting".into(), "weighted tasks".into()),
            ("w_max".into(), weighted.max_weight().to_string()),
            ("bound".into(), format_value(bound)),
            ("dummies".into(), alg1.dummy_created().to_string()),
        ],
    });

    let markdown = format!(
        "# E6 — Heterogeneous speeds and weighted tasks (torus {side}x{side})\n\n{}\n\
         Algorithm 1's bound 2·d·w_max + 2 is independent of the speed profile and of n; \
         the baselines are only defined for tokens and have no comparable guarantee with speeds.\n",
        table.render()
    );

    ExperimentReport { markdown, record }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg1_bound_holds_in_both_settings() {
        let report = run(true);
        for m in &report.record.measurements {
            if m.algorithm.starts_with("alg1") {
                let w_max: f64 = m
                    .notes
                    .iter()
                    .find(|(k, _)| k == "w_max")
                    .and_then(|(_, v)| v.parse().ok())
                    .unwrap_or(1.0);
                let bound = 2.0 * m.max_degree as f64 * w_max + 2.0;
                assert!(
                    m.max_min.max <= bound + 1e-9,
                    "{}: {} > {}",
                    m.graph,
                    m.max_min.max,
                    bound
                );
            }
        }
    }
}
