//! One untraced end-to-end trial: a single `Session::run` of the workload,
//! timed from its own sample callback.

use std::net::TcpListener;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

use lb_analysis::Json;
use lb_bench::dynamic::{Producer, ScenarioOutcome, Session};
use lb_bench::error::BenchError;
use lb_bench::federate::{self, FederationRole};

use crate::workload::{self, Kind, Produced, Workload};

/// What one trial measured and produced.
#[derive(Debug, Clone)]
pub struct TrialReport {
    pub setup_s: f64,
    pub rounds_per_s: f64,
    pub time_to_balance_s: f64,
    pub peak_rss_mb: f64,
    pub produced: Produced,
}

/// A finished `Session::run` with the wall-clock instant of every sample.
pub struct TimedRun {
    pub outcome: ScenarioOutcome,
    /// When `Session::run` was called.
    pub start: Instant,
    /// When each sample callback fired, in round order.
    pub samples: Vec<Instant>,
}

impl TimedRun {
    /// Rounds after round 0 per second between the round-0 sample and the
    /// last sample.
    pub fn rounds_per_s(&self) -> f64 {
        let rounds = self.outcome.trajectory.len().saturating_sub(1);
        let window = self.samples[rounds].duration_since(self.samples[0]);
        rounds as f64 / window.as_secs_f64()
    }

    pub fn setup_s(&self) -> f64 {
        self.samples[0].duration_since(self.start).as_secs_f64()
    }
}

/// Joins a federated worker thread, surfacing its panic or error.
fn join_worker(handle: JoinHandle<Result<(), BenchError>>) -> Result<(), String> {
    handle
        .join()
        .map_err(|_| "a federated worker thread panicked".to_string())?
        .map_err(|e| format!("federated worker: {e}"))
}

/// Runs the workload once through `Session::run`. The clock starts before
/// the session is built, so a federated run's setup covers worker start
/// and handshake.
pub fn timed_run(w: &Workload, seed: u64, scratch: &Path) -> Result<TimedRun, String> {
    let scenario = w.scenario(seed);
    let mut samples = Vec::with_capacity(w.rounds + 1);
    let on_sample = |_: &lb_bench::dynamic::RoundSample| samples.push(Instant::now());
    let start = Instant::now();
    let outcome = match w.kind {
        Kind::Static => Session::from_scenario(&scenario)
            .run(on_sample)
            .map_err(|e| e.to_string())?,
        Kind::Dynamic => {
            let checkpoint = scratch.join(format!("checkpoint-{}.snapshot", std::process::id()));
            let outcome = Session::from_scenario(&scenario)
                .producer(Producer::Merge {
                    feeds: workload::MERGE_FEEDS,
                    capacity: workload::MERGE_CAPACITY,
                })
                .checkpoint(checkpoint.clone(), workload::CHECKPOINT_EVERY)
                .run(on_sample)
                .map_err(|e| e.to_string());
            let _ = std::fs::remove_file(&checkpoint);
            outcome?
        }
        Kind::Federated => {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let addr = listener
                .local_addr()
                .map_err(|e| e.to_string())?
                .to_string();
            let workers: Vec<_> = (0..workload::PARTS)
                .map(|rank| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        let (role, scenario) = federate::join(&addr, rank, workload::PARTS)?;
                        Session::from_scenario(&scenario)
                            .federated(role, workload::PARTS)
                            .run(|_| {})
                            .map(|_| ())
                    })
                })
                .collect();
            let role = FederationRole::coordinator(listener, Vec::new());
            let outcome = Session::from_scenario(&scenario)
                .federated(role, workload::PARTS)
                .run(on_sample)
                .map_err(|e| e.to_string());
            let joined: Result<Vec<()>, String> = workers.into_iter().map(join_worker).collect();
            let outcome = outcome?;
            joined?;
            outcome
        }
    };
    if samples.len() != outcome.trajectory.len() || samples.is_empty() {
        return Err(format!(
            "{} sample callbacks for {} trajectory samples",
            samples.len(),
            outcome.trajectory.len()
        ));
    }
    Ok(TimedRun {
        outcome,
        start,
        samples,
    })
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One trial: a timed run plus what the output checks need.
pub fn run(w: &Workload, seed: u64, scratch: &Path) -> Result<TrialReport, String> {
    let run = timed_run(w, seed, scratch)?;
    let trajectory = &run.outcome.trajectory;
    let cross_round = w.crossing(trajectory);
    let time_to_balance_s = cross_round.map_or(f64::NAN, |round| {
        run.samples[round]
            .duration_since(run.samples[0])
            .as_secs_f64()
    });
    Ok(TrialReport {
        setup_s: run.setup_s(),
        rounds_per_s: run.rounds_per_s(),
        time_to_balance_s,
        peak_rss_mb: peak_rss_mb()?,
        produced: Produced {
            digest: workload::digest(&run.outcome),
            cross_round,
            violations: workload::invariant_violations(w, trajectory),
        },
    })
}

impl TrialReport {
    /// The one-line form a trial process prints for its parent.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("setup_s", Json::from(self.setup_s)),
            ("rounds_per_s", Json::from(self.rounds_per_s)),
            (
                "time_to_balance_s",
                if self.time_to_balance_s.is_finite() {
                    Json::from(self.time_to_balance_s)
                } else {
                    Json::Null
                },
            ),
            ("peak_rss_mb", Json::from(self.peak_rss_mb)),
            (
                "digest",
                Json::from(format!("{:016x}", self.produced.digest)),
            ),
            (
                "cross_round",
                self.produced.cross_round.map_or(Json::Null, Json::from),
            ),
            (
                "violations",
                Json::Arr(
                    self.produced
                        .violations
                        .iter()
                        .map(|v| Json::from(v.as_str()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("trial report has no number {key}"))
        };
        let digest = doc
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or("trial report has no digest")?;
        Ok(TrialReport {
            setup_s: num("setup_s")?,
            rounds_per_s: num("rounds_per_s")?,
            time_to_balance_s: doc
                .get("time_to_balance_s")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            peak_rss_mb: num("peak_rss_mb")?,
            produced: Produced {
                digest,
                cross_round: doc.get("cross_round").and_then(Json::as_usize),
                violations: doc
                    .get("violations")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect(),
            },
        })
    }
}
