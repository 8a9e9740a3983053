//! Experiment E5 — discrepancy-vs-round trajectories ("figure-style" series).
//!
//! The paper has no plots, but its central argument is that the discrete
//! flow-imitation process shadows the continuous process round by round. This
//! experiment records the max-min discrepancy over time for the continuous
//! FOS process, Algorithm 1, Algorithm 2 and the round-down baseline on the
//! same instance, producing the series a figure would show.

use super::ExperimentReport;
use crate::harness::{
    build_balancer, measure_balancing_time, standard_initial_load, ContinuousModel, Discretizer,
    GraphClass, RunConfig,
};
use lb_analysis::{format_value, ExperimentRecord, Measurement, Summary, Table};
use lb_core::continuous::{ContinuousRunner, Fos};
use lb_core::{metrics, Speeds};
use lb_graph::AlphaScheme;

/// Runs the experiment. `quick` shrinks the instance for tests and `lb trajectory --quick`.
pub fn run(quick: bool) -> ExperimentReport {
    let target_n = if quick { 64 } else { 1024 };
    let samples = 12usize;

    let graph: std::sync::Arc<lb_graph::Graph> = GraphClass::Torus
        .build(target_n, 5)
        .expect("torus builds")
        .into();
    let n = graph.node_count();
    let d = graph.max_degree() as u64;
    let speeds = Speeds::uniform(n);
    let initial = standard_initial_load(n, 32, d);
    let t = measure_balancing_time(&graph, &speeds, &initial, ContinuousModel::Fos, 60_000)
        .expect("FOS constructs")
        .rounds()
        .max(samples);
    let stride = (t / samples).max(1);

    // Continuous reference trajectory.
    let fos =
        Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).expect("FOS constructs");
    let mut continuous = ContinuousRunner::new(fos, initial.load_vector_f64());

    // Discrete processes under comparison.
    let mk = |discretizer| {
        build_balancer(&RunConfig {
            graph: graph.clone(),
            speeds: speeds.clone(),
            initial: initial.clone(),
            model: ContinuousModel::Fos,
            discretizer,
            rounds: t,
            seed: 3,
        })
        .expect("supported combination")
    };
    let mut alg1 = mk(Discretizer::Alg1);
    let mut alg2 = mk(Discretizer::Alg2);
    let mut round_down = mk(Discretizer::RoundDown);

    let mut table = Table::new(vec![
        "round".into(),
        "continuous".into(),
        "alg1".into(),
        "alg2".into(),
        "round-down".into(),
    ]);
    let mut record = ExperimentRecord::new(
        "E5-trajectory",
        "Flow-imitation shadowing (figure-style series)",
        format!(
            "Max-min discrepancy over time on {} (n = {n}), FOS model, single-source workload; \
             continuous process vs Algorithm 1, Algorithm 2 and round-down.",
            graph.name()
        ),
    );

    let mut round = 0usize;
    loop {
        let cont_disc = metrics::max_min_discrepancy(continuous.loads(), &speeds);
        let row = [
            cont_disc,
            alg1.metrics().max_min,
            alg2.metrics().max_min,
            round_down.metrics().max_min,
        ];
        table.add_row(vec![
            round.to_string(),
            format_value(row[0]),
            format_value(row[1]),
            format_value(row[2]),
            format_value(row[3]),
        ]);
        for (name, value) in [
            ("continuous(fos)", row[0]),
            ("alg1(fos)", row[1]),
            ("alg2(fos)", row[2]),
            ("round_down", row[3]),
        ] {
            record.push(Measurement {
                algorithm: name.into(),
                graph: graph.name().to_string(),
                nodes: n,
                max_degree: d as usize,
                rounds: round,
                max_min: Summary::of(&[value]),
                max_avg: Summary::of(&[value]),
                notes: vec![("series".into(), "max_min_vs_round".into())],
            });
        }
        if round >= t {
            break;
        }
        let next = (round + stride).min(t);
        for _ in round..next {
            continuous.step();
            alg1.step();
            alg2.step();
            round_down.step();
        }
        round = next;
    }

    let markdown = format!(
        "# E5 — Discrepancy vs round ({} , n = {n}, T = {t})\n\n{}\n\
         Algorithm 1 and 2 should track the continuous curve within an additive O(d) / \
         O(sqrt(d log n)) band, while round-down plateaus at a higher residual discrepancy.\n",
        graph.name(),
        table.render()
    );

    ExperimentReport { markdown, record }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_is_monotone_ish_and_alg1_tracks_continuous() {
        let report = run(true);
        // Final alg1 value must be close to the final continuous value.
        let finals: Vec<&Measurement> = report
            .record
            .measurements
            .iter()
            .filter(|m| m.rounds == report.record.measurements.last().unwrap().rounds)
            .collect();
        let get = |name: &str| {
            finals
                .iter()
                .find(|m| m.algorithm == name)
                .map(|m| m.max_min.mean)
                .expect("series present")
        };
        let continuous = get("continuous(fos)");
        let alg1 = get("alg1(fos)");
        let d = finals[0].max_degree as f64;
        assert!(alg1 <= continuous + 2.0 * d + 2.0 + 1e-9);
    }
}
