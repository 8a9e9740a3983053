//! Experiment E7 — ablation of the sufficient-initial-load condition
//! (Lemma 7 / Theorem 3(2)).
//!
//! Algorithm 1 never touches its infinite source when every node starts with
//! at least `d·w_max·s_i` load. This experiment scales the per-node padding
//! from 0 to 2× that threshold on a low-expansion barbell graph (where flows
//! through the bridge are most likely to drain nodes) and records how many
//! dummy tokens were created and what the final discrepancy was.

use super::ExperimentReport;
use crate::harness::{measure_balancing_time, ContinuousModel};
use lb_analysis::{format_value, ExperimentRecord, Measurement, Summary, Table};
use lb_core::continuous::Fos;
use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
use lb_core::{InitialLoad, Speeds};
use lb_graph::{generators, AlphaScheme, Graph};
use std::sync::Arc;

/// Runs the experiment. `quick` shrinks the instance for tests and `lb dummy_ablation --quick`.
pub fn run(quick: bool) -> ExperimentReport {
    let clique = if quick { 6 } else { 16 };
    let bridge = if quick { 4 } else { 16 };
    let graph: Arc<Graph> = generators::barbell(clique, bridge)
        .expect("barbell builds")
        .into();
    let n = graph.node_count();
    let d = graph.max_degree() as u64;
    let speeds = Speeds::uniform(n);

    // Padding levels as a fraction of the d·w_max threshold (w_max = 1).
    let levels: &[(f64, &str)] = &[
        (0.0, "0"),
        (0.5, "d/2"),
        (1.0, "d (threshold)"),
        (2.0, "2d"),
    ];

    let mut record = ExperimentRecord::new(
        "E7-dummy-ablation",
        "Lemma 7 / Theorem 3(2) ablation",
        format!(
            "Algorithm 1 (FOS) on barbell({clique},{bridge}): dummy-token usage and final \
             discrepancy as the per-node initial padding is scaled across the d*w_max threshold."
        ),
    );
    let mut table = Table::new(vec![
        "padding per node".into(),
        "dummies created".into(),
        "max-min".into(),
        "max-avg".into(),
        "real max-avg".into(),
    ]);

    for &(factor, label) in levels {
        let pad = (factor * d as f64).round() as u64;
        let mut counts = vec![pad; n];
        counts[0] += 40 * n as u64;
        let initial = InitialLoad::from_token_counts(counts);
        let original_avg = initial.total_weight() as f64 / n as f64;
        let t = measure_balancing_time(&graph, &speeds, &initial, ContinuousModel::Fos, 200_000)
            .expect("FOS constructs")
            .rounds();
        let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne)
            .expect("FOS constructs");
        let mut alg1 =
            FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).expect("valid");
        alg1.run(t);
        let m = alg1.metrics();
        let real = alg1.real_loads();
        let real_max_avg = lb_core::metrics::max_makespan(&real, &speeds) - original_avg;
        table.add_row(vec![
            label.to_string(),
            alg1.dummy_created().to_string(),
            format_value(m.max_min),
            format_value(m.max_avg),
            format_value(real_max_avg),
        ]);
        record.push(Measurement {
            algorithm: "alg1(fos)".into(),
            graph: graph.name().to_string(),
            nodes: n,
            max_degree: d as usize,
            rounds: t,
            max_min: Summary::of(&[m.max_min]),
            max_avg: Summary::of(&[m.max_avg]),
            notes: vec![
                ("padding".into(), label.to_string()),
                ("dummies".into(), alg1.dummy_created().to_string()),
                ("real_max_avg".into(), format_value(real_max_avg)),
            ],
        });
    }

    let markdown = format!(
        "# E7 — Infinite-source ablation (Algorithm 1, FOS on {})\n\n{}\n\
         At or above the d·w_max threshold the `dummies created` column must be exactly 0 \
         (Lemma 7); below it the algorithm may borrow dummy tokens but the real-load max-avg \
         discrepancy stays within 2·d·w_max + 2.\n",
        graph.name(),
        table.render()
    );

    ExperimentReport { markdown, record }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_dummies_at_or_above_threshold() {
        let report = run(true);
        for m in &report.record.measurements {
            let padding = m
                .notes
                .iter()
                .find(|(k, _)| k == "padding")
                .map(|(_, v)| v.clone())
                .expect("padding note");
            let dummies: u64 = m
                .notes
                .iter()
                .find(|(k, _)| k == "dummies")
                .and_then(|(_, v)| v.parse().ok())
                .expect("dummies note");
            if padding.contains("threshold") || padding == "2d" {
                assert_eq!(dummies, 0, "padding {padding} must not need dummies");
            }
        }
    }
}
