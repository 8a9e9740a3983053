//! Experiment E8 — FOS vs SOS convergence (Section 2.1).
//!
//! The second-order scheme with the optimal `β` balances in
//! `O(log(Kn)/√(1 − λ))` rounds versus FOS's `O(log(Kn)/(1 − λ))`, a
//! quadratic speed-up that matters exactly on the poorly-expanding graphs
//! (cycles, tori). This experiment measures the balancing time of both
//! continuous schemes and confirms Algorithm 1's discrepancy bound is
//! unaffected by which of the two it imitates.

use super::ExperimentReport;
use crate::harness::{measure_balancing_time, run_once, ContinuousModel, Discretizer, RunConfig};
use lb_analysis::{format_value, ExperimentRecord, Measurement, Summary, Table};
use lb_core::Speeds;
use lb_graph::{generators, AlphaScheme, DiffusionMatrix, Graph, PowerIterationOptions};
use std::sync::Arc;

/// Runs the experiment. `quick` shrinks the instances for tests and `lb fos_vs_sos --quick`.
pub fn run(quick: bool) -> ExperimentReport {
    let configs: Vec<(String, Arc<Graph>)> = if quick {
        vec![
            (
                "cycle".into(),
                generators::cycle(32).expect("cycle builds").into(),
            ),
            (
                "torus".into(),
                generators::torus(6, 6).expect("torus builds").into(),
            ),
        ]
    } else {
        vec![
            (
                "cycle".into(),
                generators::cycle(256).expect("cycle builds").into(),
            ),
            (
                "torus".into(),
                generators::torus(24, 24).expect("torus builds").into(),
            ),
            (
                "hypercube".into(),
                generators::hypercube(10).expect("hypercube builds").into(),
            ),
        ]
    };

    let mut record = ExperimentRecord::new(
        "E8-fos-vs-sos",
        "Section 2.1 (FOS vs SOS convergence)",
        "Continuous balancing time T of FOS vs SOS (optimal beta) on low-expansion graphs, \
         plus the final discrepancy of Algorithm 1 imitating each.",
    );
    let mut table = Table::new(vec![
        "graph".into(),
        "n".into(),
        "lambda".into(),
        "T (FOS)".into(),
        "T (SOS)".into(),
        "speedup".into(),
        "alg1@FOS max-min".into(),
        "alg1@SOS max-min".into(),
    ]);

    for (label, graph) in configs {
        let n = graph.node_count();
        let d = graph.max_degree() as u64;
        let speeds = Speeds::uniform(n);
        let matrix =
            DiffusionMatrix::uniform(&graph, AlphaScheme::MaxDegreePlusOne).expect("matrix builds");
        let lambda = lb_graph::spectral::second_eigenvalue(
            &graph,
            &matrix,
            PowerIterationOptions::default(),
        );
        let initial = crate::harness::standard_initial_load(n, 32, d);
        let max_rounds = if quick { 100_000 } else { 400_000 };
        let t_fos =
            measure_balancing_time(&graph, &speeds, &initial, ContinuousModel::Fos, max_rounds)
                .expect("FOS constructs")
                .rounds();
        let t_sos =
            measure_balancing_time(&graph, &speeds, &initial, ContinuousModel::Sos, max_rounds)
                .expect("SOS constructs")
                .rounds();

        let run_alg1 = |model, rounds| {
            run_once(&RunConfig {
                graph: graph.clone(),
                speeds: speeds.clone(),
                initial: initial.clone(),
                model,
                discretizer: Discretizer::Alg1,
                rounds,
                seed: 1,
            })
            .expect("supported combination")
        };
        let alg1_fos = run_alg1(ContinuousModel::Fos, t_fos);
        let alg1_sos = run_alg1(ContinuousModel::Sos, t_sos);

        table.add_row(vec![
            label.clone(),
            n.to_string(),
            format!("{lambda:.4}"),
            t_fos.to_string(),
            t_sos.to_string(),
            format_value(t_fos as f64 / t_sos.max(1) as f64),
            format_value(alg1_fos.max_min),
            format_value(alg1_sos.max_min),
        ]);
        for (model_name, t, outcome) in [("fos", t_fos, &alg1_fos), ("sos", t_sos, &alg1_sos)] {
            record.push(Measurement {
                algorithm: format!("alg1({model_name})"),
                graph: format!("{label} n={n}"),
                nodes: n,
                max_degree: d as usize,
                rounds: t,
                max_min: Summary::of(&[outcome.max_min]),
                max_avg: Summary::of(&[outcome.max_avg]),
                notes: vec![
                    ("lambda".into(), format!("{lambda:.4}")),
                    ("T".into(), t.to_string()),
                ],
            });
        }
    }

    let markdown = format!(
        "# E8 — FOS vs SOS balancing time and Algorithm 1 discrepancy\n\n{}\n\
         SOS should show a clear speed-up on the cycle and torus (where lambda is close to 1); \
         the discrepancy of Algorithm 1 stays within 2·d·w_max + 2 regardless of which continuous \
         process it imitates — note that SOS may induce negative load, in which case only the \
         max-avg part of Theorem 3 is guaranteed.\n",
        table.render()
    );

    ExperimentReport { markdown, record }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sos_is_not_slower_than_fos_on_cycle() {
        let report = run(true);
        let t_of = |alg: &str, graph_prefix: &str| {
            report
                .record
                .measurements
                .iter()
                .find(|m| m.algorithm == alg && m.graph.starts_with(graph_prefix))
                .map(|m| m.rounds)
                .expect("measurement present")
        };
        assert!(t_of("alg1(sos)", "cycle") <= t_of("alg1(fos)", "cycle"));
    }
}
