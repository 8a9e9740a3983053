//! Experiment E2 — reproduces **Table 2**: final max-min discrepancy of the
//! discrete processes in the matching models (periodic matchings and random
//! matchings) on the four graph classes.

use super::{ExperimentReport, REPEAT_SEEDS};
use crate::harness::{
    measure_balancing_time, run_all, standard_initial_load, ContinuousModel, Discretizer,
    GraphClass, RunConfig,
};
use lb_analysis::{format_value, ExperimentRecord, Measurement, Summary, Table};
use lb_core::Speeds;

/// Average tokens per node in the workload (all initially on node 0).
const LOAD_PER_NODE: u64 = 32;
/// Cap on the continuous balancing-time search (matching models need more
/// rounds than diffusion since only a matching is active per round).
const MAX_T: usize = 200_000;

/// Runs the experiment. `quick` shrinks graphs and repeats for tests and `lb table2 --quick`.
pub fn run(quick: bool) -> ExperimentReport {
    let n = if quick { 64 } else { 1024 };
    let repeats = if quick { 1 } else { 3 };

    let mut record = ExperimentRecord::new(
        "E2-table2",
        "Table 2",
        "Final max-min discrepancy of discrete processes in the matching models \
         (periodic matchings from a greedy edge colouring, and random maximal matchings), \
         single-source workload of 32 tokens/node plus d tokens/node padding, measured at the \
         continuous balancing time T of the respective matching model.",
    );
    let mut markdown = String::from("# E2 — Table 2 (matching models)\n\n");

    for (model_label, model) in [
        ("periodic matchings", ContinuousModel::PeriodicMatching),
        (
            "random matchings",
            ContinuousModel::RandomMatching { seed: 777 },
        ),
    ] {
        let mut table = Table::new({
            let mut header = vec!["algorithm".to_string()];
            header.extend(
                GraphClass::TABLE_CLASSES
                    .iter()
                    .map(|c| format!("{} (max-min)", c.label())),
            );
            header
        });

        let mut columns = Vec::new();
        for class in GraphClass::TABLE_CLASSES {
            let graph: std::sync::Arc<lb_graph::Graph> = class
                .build(n, 0xBEEF)
                .expect("table graph families always build")
                .into();
            let nodes = graph.node_count();
            let d = graph.max_degree();
            let speeds = Speeds::uniform(nodes);
            let initial = standard_initial_load(nodes, LOAD_PER_NODE, d as u64);
            let t = measure_balancing_time(&graph, &speeds, &initial, model, MAX_T)
                .expect("matching models always construct")
                .rounds();
            columns.push((class, graph, speeds, initial, t));
        }

        // Independent trials fan out across worker threads; the shared-Arc
        // graphs make per-trial config clones cheap.
        let mut batch = Vec::new();
        for discretizer in Discretizer::TABLE2 {
            for (_, graph, speeds, initial, t) in &columns {
                for seed in REPEAT_SEEDS.iter().take(repeats) {
                    batch.push(RunConfig {
                        graph: graph.clone(),
                        speeds: speeds.clone(),
                        initial: initial.clone(),
                        model,
                        discretizer,
                        rounds: *t,
                        seed: *seed,
                    });
                }
            }
        }
        let mut outcomes = run_all(&batch).into_iter();

        for discretizer in Discretizer::TABLE2 {
            let mut row = vec![discretizer.label().to_string()];
            for (class, graph, _, _, t) in &columns {
                let mut max_mins = Vec::new();
                let mut max_avgs = Vec::new();
                for _ in 0..repeats {
                    let outcome = outcomes
                        .next()
                        .expect("one outcome per scheduled trial")
                        .expect("table 2 combinations are all supported");
                    max_mins.push(outcome.max_min);
                    max_avgs.push(outcome.max_avg);
                }
                let summary = Summary::of(&max_mins);
                row.push(format_value(summary.mean));
                record.push(Measurement {
                    algorithm: discretizer.label().to_string(),
                    graph: format!("{} n={}", class.label(), graph.node_count()),
                    nodes: graph.node_count(),
                    max_degree: graph.max_degree(),
                    rounds: *t,
                    max_min: summary,
                    max_avg: Summary::of(&max_avgs),
                    notes: vec![("model".into(), model_label.into())],
                });
            }
            table.add_row(row);
        }

        markdown.push_str(&format!(
            "## {model_label} (n ≈ {n})\n\n{}\n",
            table.render()
        ));
    }

    markdown.push_str(
        "\nPaper reference (Table 2, asymptotic): alg1 = O(d) and alg2 = O(sqrt(d log n)) in both \
         matching models; round-down [37] = O(d log n / (1 - lambda)); randomized rounding [24] \
         depends on expansion. Alg1/alg2 are the only schemes whose bound is independent of n for \
         arbitrary, possibly non-regular graphs.\n",
    );

    ExperimentReport { markdown, record }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_rows() {
        let report = run(true);
        // 4 algorithms x 4 graph classes x 2 matching models.
        assert_eq!(report.record.measurements.len(), 32);
        assert!(report.markdown.contains("periodic matchings"));
        assert!(report.markdown.contains("random matchings"));
    }

    #[test]
    fn alg1_bound_holds_in_matching_models() {
        let report = run(true);
        for m in &report.record.measurements {
            if m.algorithm.starts_with("alg1") {
                let bound = 2.0 * m.max_degree as f64 + 2.0;
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
