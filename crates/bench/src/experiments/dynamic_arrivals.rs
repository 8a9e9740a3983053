//! Experiment E9 — **dynamic arrivals**: discrepancy behaviour under
//! sustained load, beyond the paper's static-drain setting.
//!
//! The paper measures a fixed initial load vector draining to balance. This
//! experiment runs Algorithm 1 (FOS twin) under four workloads on the same
//! graph family:
//!
//! * `static_drain` — the paper's setting (control);
//! * `poisson` — Poisson task arrivals on random nodes with matching
//!   per-node service capacity (sustained equilibrium);
//! * `hotspot` — the same arrival volume concentrated adversarially on one
//!   node;
//! * `poisson+rewire` — Poisson arrivals across an edge-churn event that
//!   rebuilds the (random-regular) topology mid-run.
//!
//! The headline observation: the max-min discrepancy stays `O(d)`-bounded
//! under sustained load and across churn — the flow-imitation invariant is
//! per-round, so it does not rely on the workload ever draining.

use super::{ExperimentReport, REPEAT_SEEDS};
use crate::dynamic::{RoundSample, Session};
use lb_analysis::{format_value, ExperimentRecord, Measurement, Summary, Table};
use lb_workloads::{
    AlgorithmSpec, ArrivalSpec, ChurnEvent, ChurnKind, InitialSpec, ModelSpec, PadSpec, Scenario,
    ServiceSpec, SpeedSpec, TokenDistribution, TopologySpec,
};

/// One workload column of the experiment.
struct Workload {
    label: &'static str,
    arrivals: ArrivalSpec,
    completions: ServiceSpec,
    churn: Vec<ChurnEvent>,
}

fn workloads(n: usize, rounds: usize) -> Vec<Workload> {
    let rate = 0.5;
    vec![
        Workload {
            label: "static_drain",
            arrivals: ArrivalSpec::None,
            completions: ServiceSpec::None,
            churn: Vec::new(),
        },
        Workload {
            label: "poisson",
            arrivals: ArrivalSpec::Poisson {
                rate_per_node: rate,
                max_weight: 1,
            },
            completions: ServiceSpec::Uniform {
                weight_per_speed: 1,
            },
            churn: Vec::new(),
        },
        Workload {
            label: "hotspot",
            arrivals: ArrivalSpec::HotSpot {
                rate: rate * n as f64,
                node: 0,
                max_weight: 1,
            },
            completions: ServiceSpec::Uniform {
                weight_per_speed: 1,
            },
            churn: Vec::new(),
        },
        Workload {
            label: "poisson+rewire",
            arrivals: ArrivalSpec::Poisson {
                rate_per_node: rate,
                max_weight: 1,
            },
            completions: ServiceSpec::Uniform {
                weight_per_speed: 1,
            },
            churn: vec![ChurnEvent {
                round: rounds / 2,
                kind: ChurnKind::Rewire { seed: 0xC4A7 },
            }],
        },
    ]
}

/// Peak discrepancy over the second half of the trajectory (after burn-in).
fn steady_peak(trajectory: &[RoundSample], rounds: usize) -> f64 {
    trajectory
        .iter()
        .filter(|s| s.round >= rounds / 2)
        .map(|s| s.max_min)
        .fold(0.0, f64::max)
}

/// Runs the experiment. `quick` shrinks sizes and repeats for tests and
/// `lb dynamic_arrivals --quick`.
pub fn run(quick: bool) -> ExperimentReport {
    let (n, rounds, repeats) = if quick { (64, 150, 1) } else { (256, 600, 3) };

    let mut record = ExperimentRecord::new(
        "E9-dynamic-arrivals",
        "beyond the paper: sustained load",
        "Algorithm 1 (FOS twin) on a random 4-regular expander under dynamic workloads: \
         Poisson arrivals with matching service capacity, an adversarial hot-spot, and \
         edge churn, against the paper's static-drain control. Discrepancy sampled over \
         the trajectory; the steady-state peak is taken over the second half of the run.",
    );
    let mut markdown = String::from("# E9 — dynamic arrivals (sustained load)\n\n");
    let mut table = Table::new(vec![
        "workload".into(),
        "final max-min (mean)".into(),
        "steady peak max-min (mean)".into(),
        "final real weight (mean)".into(),
        "dummy created (mean)".into(),
    ]);

    for workload in workloads(n, rounds) {
        let mut finals = Vec::new();
        let mut final_avgs = Vec::new();
        let mut peaks = Vec::new();
        let mut real_weights = Vec::new();
        let mut dummies = Vec::new();
        for &seed in REPEAT_SEEDS.iter().take(repeats) {
            let scenario = Scenario {
                name: format!("dynamic_arrivals_{}", workload.label),
                seed,
                rounds,
                sample_every: (rounds / 30).max(1),
                algorithm: AlgorithmSpec::Alg1,
                model: ModelSpec::Fos,
                topology: TopologySpec {
                    family: "expander".into(),
                    target_n: n,
                },
                speeds: SpeedSpec::Uniform,
                initial: InitialSpec {
                    distribution: TokenDistribution::SingleSource { source: 0 },
                    tokens_per_node: 8,
                    pad: PadSpec::Degree,
                },
                arrivals: workload.arrivals,
                completions: workload.completions,
                churn: workload.churn.clone(),
                shards: 1,
                federation: 1,
            };
            let outcome = Session::from_scenario(&scenario)
                .run(|_| {})
                .expect("experiment scenarios are valid");
            finals.push(outcome.last().max_min);
            final_avgs.push(outcome.last().max_avg);
            peaks.push(steady_peak(&outcome.trajectory, rounds));
            real_weights.push(outcome.last().real_weight);
            dummies.push(outcome.dummy_created as f64);
        }
        let final_summary = Summary::of(&finals);
        let peak_summary = Summary::of(&peaks);
        let weight_summary = Summary::of(&real_weights);
        let dummy_summary = Summary::of(&dummies);
        table.add_row(vec![
            workload.label.to_string(),
            format_value(final_summary.mean),
            format_value(peak_summary.mean),
            format_value(weight_summary.mean),
            format_value(dummy_summary.mean),
        ]);
        record.push(Measurement {
            algorithm: format!("alg1(fos) + {}", workload.label),
            graph: format!("expander(d=4) n={n}"),
            nodes: n,
            max_degree: 4,
            rounds,
            max_min: final_summary,
            max_avg: Summary::of(&final_avgs),
            notes: vec![
                ("workload".into(), workload.label.into()),
                (
                    "steady_peak_max_min".into(),
                    format_value(peak_summary.mean),
                ),
                ("dummy_created".into(), format_value(dummy_summary.mean)),
            ],
        });
    }

    markdown.push_str(&format!(
        "## Algorithm 1 (FOS) on expander(d=4), n = {n}, {rounds} rounds, {repeats} seed(s)\n\n{}\n",
        table.render()
    ));
    markdown.push_str(
        "\nReading: sustained Poisson load and even an adversarial hot-spot keep the \
         max-min discrepancy in the same O(d) regime as the paper's static drain — the \
         flow-imitation deviation bound (Observation 4) is per-round and workload-\
         independent. Edge churn resets the imitation ledger mid-run without breaking \
         the bound for the remaining epoch.\n",
    );

    ExperimentReport { markdown, record }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_all_workloads() {
        let report = run(true);
        assert_eq!(report.record.measurements.len(), 4);
        assert!(report.markdown.contains("static_drain"));
        assert!(report.markdown.contains("poisson+rewire"));
        // The control (static drain) obeys the Theorem 3 bound outright.
        let control = &report.record.measurements[0];
        assert!(control.max_min.max <= 2.0 * 4.0 + 2.0 + 1e-9);
        // Sustained load stays in a comparable O(d) regime (generous factor
        // to absorb in-flight arrivals at sample time).
        for m in &report.record.measurements {
            assert!(
                m.max_min.max <= 8.0 * 4.0 + 2.0,
                "{}: {}",
                m.algorithm,
                m.max_min.max
            );
        }
    }
}
