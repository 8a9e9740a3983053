//! Experiment E4 — validates **Theorem 8**: the final max-min discrepancy of
//! Algorithm 2 grows like `O(√(d·log n))`, i.e. much slower than Algorithm
//! 1's `Θ(d)` for large degrees.
//!
//! Sweeps the degree of random regular graphs at fixed `n` and records the
//! measured discrepancy of Algorithm 2 next to Algorithm 1 and to the
//! `√(d·ln n)` reference curve.

use super::{ExperimentReport, REPEAT_SEEDS};
use crate::harness::{measure_balancing_time, run_once, ContinuousModel, Discretizer, RunConfig};
use lb_analysis::{correlation, format_value, ExperimentRecord, Measurement, Summary, Table};
use lb_core::{InitialLoad, Speeds};
use lb_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment. `quick` shrinks the sweep for tests and `lb theorem8 --quick`.
pub fn run(quick: bool) -> ExperimentReport {
    let n = if quick { 64 } else { 1024 };
    let degrees: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16, 32, 64] };
    let repeats = if quick { 1 } else { 3 };

    let mut record = ExperimentRecord::new(
        "E4-theorem8",
        "Theorem 8",
        "Algorithm 2 (FOS) on random d-regular graphs at fixed n: measured final max-min \
         discrepancy vs sqrt(d ln n) and vs Algorithm 1, sweeping d. Padding per node is \
         ceil(d/4) + 2*ceil(sqrt(d ln n)) tokens (the Theorem 8(2) condition).",
    );
    let mut table = Table::new(vec![
        "d".into(),
        "n".into(),
        "T".into(),
        "alg2 max-min".into(),
        "alg1 max-min".into(),
        "sqrt(d ln n)".into(),
        "alg1 bound 2d+2".into(),
    ]);

    let mut alg2_points = Vec::new();

    for &d in degrees {
        let mut rng = StdRng::seed_from_u64(d as u64);
        let graph: std::sync::Arc<lb_graph::Graph> = generators::random_regular(n, d, &mut rng)
            .expect("regular graph builds")
            .into();
        let nodes = graph.node_count();
        let speeds = Speeds::uniform(nodes);
        let reference = (d as f64 * (nodes as f64).ln()).sqrt();
        let pad = (d as u64).div_ceil(4) + 2 * reference.ceil() as u64;
        let mut counts = vec![pad; nodes];
        counts[0] += 32 * nodes as u64;
        let initial = InitialLoad::from_token_counts(counts);
        let t = measure_balancing_time(&graph, &speeds, &initial, ContinuousModel::Fos, 60_000)
            .expect("FOS constructs")
            .rounds();

        let run_algo = |discretizer, seed| {
            run_once(&RunConfig {
                graph: graph.clone(),
                speeds: speeds.clone(),
                initial: initial.clone(),
                model: ContinuousModel::Fos,
                discretizer,
                rounds: t,
                seed,
            })
            .expect("supported combination")
        };

        let mut alg2_vals = Vec::new();
        for seed in REPEAT_SEEDS.iter().take(repeats) {
            alg2_vals.push(run_algo(Discretizer::Alg2, *seed).max_min);
        }
        let alg1_val = run_algo(Discretizer::Alg1, 0).max_min;
        let alg2_summary = Summary::of(&alg2_vals);
        alg2_points.push((reference, alg2_summary.mean));

        table.add_row(vec![
            d.to_string(),
            nodes.to_string(),
            t.to_string(),
            format_value(alg2_summary.mean),
            format_value(alg1_val),
            format_value(reference),
            format_value(2.0 * d as f64 + 2.0),
        ]);
        record.push(Measurement {
            algorithm: "alg2(fos)".into(),
            graph: format!("random_regular(n={nodes}, d={d})"),
            nodes,
            max_degree: d,
            rounds: t,
            max_min: alg2_summary,
            max_avg: Summary::of(&[alg1_val]),
            notes: vec![
                ("sqrt_d_ln_n".into(), format_value(reference)),
                ("alg1_max_min".into(), format_value(alg1_val)),
            ],
        });
    }

    let corr = correlation(&alg2_points);
    let markdown = format!(
        "# E4 — Theorem 8 scaling check (Algorithm 2, FOS on random regular graphs)\n\n{}\n\
         Correlation between alg2's measured discrepancy and the sqrt(d ln n) reference: {:.2}.\n\
         The paper predicts alg2 = O(sqrt(d log n)) — sub-linear in d — while alg1's guarantee is \
         Θ(d); for large d alg2 should therefore end below alg1's 2d+2 bound by a growing margin.\n",
        table.render(),
        corr
    );

    ExperimentReport { markdown, record }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_one_row_per_degree() {
        let report = run(true);
        assert_eq!(report.record.measurements.len(), 2);
        for m in &report.record.measurements {
            // Algorithm 2's discrepancy should stay well below the trivial
            // 2d + 2 deterministic bound on these small instances.
            assert!(m.max_min.mean <= 2.0 * m.max_degree as f64 + 2.0);
        }
    }
}
