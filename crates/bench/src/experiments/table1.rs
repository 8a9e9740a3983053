//! Experiment E1 — reproduces **Table 1**: final max-min discrepancy of the
//! discrete diffusion processes on the four graph classes.
//!
//! The paper's Table 1 lists asymptotic bounds; this experiment measures the
//! empirical final discrepancy of every algorithm at the continuous balancing
//! time `T` and checks the qualitative ordering the table asserts:
//! Algorithm 1 stays `O(d)` (independent of `n` and of expansion), Algorithm
//! 2 stays `O(√(d·log n))`, while the round-down baseline degrades on
//! low-expansion / large-diameter families.

use super::{ExperimentReport, REPEAT_SEEDS};
use crate::harness::{
    measure_balancing_time, run_all, standard_initial_load, ContinuousModel, Discretizer,
    GraphClass, RunConfig,
};
use lb_analysis::{format_value, ExperimentRecord, Measurement, Summary, Table};
use lb_core::Speeds;

/// Average tokens per node in the workload (all initially on node 0).
const LOAD_PER_NODE: u64 = 32;
/// Cap on the continuous balancing-time search.
const MAX_T: usize = 60_000;

/// Runs the experiment. `quick` shrinks graphs and repeats for tests and `lb table1 --quick`.
pub fn run(quick: bool) -> ExperimentReport {
    let sizes: &[usize] = if quick { &[64] } else { &[256, 1024] };
    let repeats = if quick { 1 } else { 3 };

    let mut record = ExperimentRecord::new(
        "E1-table1",
        "Table 1",
        "Final max-min discrepancy of discrete diffusion processes (FOS model), \
         single-source workload of 32 tokens/node plus d tokens/node padding, measured at the \
         continuous balancing time T.",
    );
    let mut markdown = String::from("# E1 — Table 1 (diffusion model)\n\n");

    for &n in sizes {
        let mut table = Table::new({
            let mut header = vec!["algorithm".to_string()];
            header.extend(
                GraphClass::TABLE_CLASSES
                    .iter()
                    .map(|c| format!("{} (max-min)", c.label())),
            );
            header
        });

        // Build one graph per class and reuse it for every algorithm so the
        // comparison matches the paper's "same instance" setting.
        let mut columns = Vec::new();
        for class in GraphClass::TABLE_CLASSES {
            let graph: std::sync::Arc<lb_graph::Graph> = class
                .build(n, 0xC0FFEE)
                .expect("table graph families always build")
                .into();
            let nodes = graph.node_count();
            let d = graph.max_degree();
            let speeds = Speeds::uniform(nodes);
            let initial = standard_initial_load(nodes, LOAD_PER_NODE, d as u64);
            let t = measure_balancing_time(&graph, &speeds, &initial, ContinuousModel::Fos, MAX_T)
                .expect("FOS always constructs")
                .rounds();
            columns.push((class, graph, speeds, initial, t));
        }

        // Every (algorithm, class, seed) trial of this size is independent;
        // fan the whole batch out across worker threads. Cloning a config is
        // cheap — the graph is shared through an Arc.
        let mut batch = Vec::new();
        for discretizer in Discretizer::TABLE1 {
            for (_, graph, speeds, initial, t) in &columns {
                for seed in REPEAT_SEEDS.iter().take(repeats) {
                    batch.push(RunConfig {
                        graph: graph.clone(),
                        speeds: speeds.clone(),
                        initial: initial.clone(),
                        model: ContinuousModel::Fos,
                        discretizer,
                        rounds: *t,
                        seed: *seed,
                    });
                }
            }
        }
        let mut outcomes = run_all(&batch).into_iter();

        for discretizer in Discretizer::TABLE1 {
            let mut row = vec![discretizer.label().to_string()];
            for (class, graph, _, _, t) in &columns {
                let mut max_mins = Vec::new();
                let mut max_avgs = Vec::new();
                for _ in 0..repeats {
                    let outcome = outcomes
                        .next()
                        .expect("one outcome per scheduled trial")
                        .expect("table 1 combinations are all supported");
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
                    notes: vec![("model".into(), "fos".into())],
                });
            }
            table.add_row(row);
        }

        markdown.push_str(&format!(
            "## n ≈ {n} (T = continuous FOS balancing time per column)\n\n{}\n",
            table.render()
        ));
    }

    markdown.push_str(
        "\nPaper reference (Table 1, asymptotic): alg1 = O(d); alg2 = O(sqrt(d log n)); \
         round-down [37] = O(d log n / (1 - lambda)); randomized rounding [26] = O(d log log n / (1 - lambda)); \
         quasirandom [26] analysed for hypercube/torus only; excess token [9] = O(d sqrt(log n) + ...).\n",
    );

    ExperimentReport { markdown, record }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_rows() {
        let report = run(true);
        // 6 algorithms x 4 graph classes x 1 size.
        assert_eq!(report.record.measurements.len(), 24);
        assert!(report.markdown.contains("alg1 (this paper)"));
        assert!(report.markdown.contains("hypercube"));
    }

    #[test]
    fn alg1_discrepancy_is_within_theorem_bound_in_quick_run() {
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
