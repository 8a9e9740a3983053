//! The benchmark workloads, their scenarios, and the output checks.
//!
//! Every workload starts from a single-source spike on a hypercube. The
//! `--seed` seeds the scenario (arrivals, rounding) and, except on the
//! federated scenario, picks the spike's node, so a seed fixes the inputs
//! exactly. On the static workloads
//! the hypercube's symmetry makes the sampled trajectory the same for every
//! source, so one reference digest checks every seed there; the dynamic
//! workload is checked against references recorded for the default and the
//! held-out seed, and on other seeds against its conservation invariants and
//! the agreement of all trials of the run.

use lb_analysis::Json;
use lb_bench::dynamic::{RoundSample, ScenarioOutcome};
use lb_workloads::Scenario;

/// Which engine configuration and driver path a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// alg1 over FOS, sequential, no events.
    Static,
    /// alg2 over SOS with arrivals, completions, delta churn, checkpoints
    /// and one-feed merge ingestion.
    Dynamic,
    /// alg1 over FOS partitioned into two federated parts over TCP.
    Federated,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    pub kind: Kind,
    /// Hypercube node count.
    pub n: usize,
    /// Rounds per trial.
    pub rounds: usize,
    /// The discrepancy target: a run is balanced from the first sample whose
    /// `max_min` is at or below it.
    pub target: f64,
}

/// Tokens per node, all placed on the spike's node.
const TOKENS_PER_NODE: u64 = 16;

/// Rounds before which the dynamic workload splices its edge deltas.
pub const CHURN_ROUNDS: [usize; 2] = [20, 40];

/// Checkpoint cadence of the dynamic workload, in rounds.
pub const CHECKPOINT_EVERY: usize = 20;

/// Producer feeds and per-feed capacity of the dynamic workload's merge
/// ingestion path.
pub const MERGE_FEEDS: usize = 1;
pub const MERGE_CAPACITY: usize = 32;

/// Federated partition count.
pub const PARTS: usize = 2;

/// Shard count of the sharded repetitions in the static workload's traced
/// run.
pub const SHARDS: usize = 2;

/// The workloads `--workload` accepts. Sharded and federated runs are too
/// unsteady on a 2-vCPU host to gate on, so the static workload's traced
/// run measures their layers instead (see [`FEDERATED`]).
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "static_alg1_fos",
        kind: Kind::Static,
        n: 1 << 17,
        rounds: 50,
        target: 50.0,
    },
    Workload {
        name: "dynamic_alg2_sos",
        kind: Kind::Dynamic,
        n: 1 << 16,
        rounds: 60,
        target: 4096.0,
    },
];

/// The federated scenario the static workload's traced run measures: alg1
/// over FOS on a 2^14 hypercube in two parts over loopback TCP.
pub const FEDERATED: Workload = Workload {
    name: "federated_alg1_fos",
    kind: Kind::Federated,
    n: 1 << 14,
    rounds: 40,
    target: 50.0,
};

/// splitmix64: spreads consecutive seeds over the node range.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The spike's node for `seed`. On the federated scenario the spike
    /// stays on node 0: where it sits relative to the partition boundary
    /// changes the run's cost and memory, which would read as noise across
    /// seeds.
    pub fn source(&self, seed: u64) -> usize {
        match self.kind {
            Kind::Federated => 0,
            _ => (mix(seed) % self.n as u64) as usize,
        }
    }

    /// Per-node padding tokens (the Theorem 3(2) `d·w_max` load for the
    /// dynamic workload; none for the static drains).
    pub fn pad(&self) -> u64 {
        if self.kind == Kind::Dynamic {
            u64::from(self.n.trailing_zeros())
        } else {
            0
        }
    }

    /// The effective scenario for `seed`.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let (algorithm, model) = match self.kind {
            Kind::Dynamic => ("alg2", "sos"),
            _ => ("alg1", "fos"),
        };
        let (arrivals, completions, churn) = if self.kind == Kind::Dynamic {
            (
                r#"{"model": "poisson", "rate_per_node": 0.5, "max_weight": 1}"#,
                r#"{"model": "uniform", "weight_per_speed": 1}"#,
                format!(
                    r#"[{{"round": {}, "kind": "delta", "add": [[0, 3]], "remove": [[0, 1]]}},
                        {{"round": {}, "kind": "delta", "add": [[0, 1]], "remove": [[0, 3]]}}]"#,
                    CHURN_ROUNDS[0], CHURN_ROUNDS[1]
                ),
            )
        } else {
            (
                r#"{"model": "none"}"#,
                r#"{"model": "none"}"#,
                "[]".to_string(),
            )
        };
        let text = format!(
            r#"{{
  "name": "{name}",
  "seed": {seed},
  "rounds": {rounds},
  "sample_every": 1,
  "algorithm": "{algorithm}",
  "model": "{model}",
  "topology": {{"family": "hypercube", "target_n": {n}}},
  "speeds": {{"model": "uniform"}},
  "initial": {{
    "distribution": {{"model": "single_source", "source": {source}}},
    "tokens_per_node": {TOKENS_PER_NODE},
    "pad": {pad}
  }},
  "arrivals": {arrivals},
  "completions": {completions},
  "churn": {churn}
}}"#,
            name = self.name,
            rounds = self.rounds,
            n = self.n,
            source = self.source(seed),
            pad = self.pad(),
        );
        Scenario::parse(&text).expect("workload scenario template parses")
    }

    /// The first sampled round whose discrepancy meets the target.
    pub fn crossing(&self, trajectory: &[RoundSample]) -> Option<usize> {
        trajectory
            .iter()
            .find(|s| s.max_min <= self.target)
            .map(|s| s.round)
    }
}

/// FNV-1a over the trajectory, the engine name and the dummy total: every
/// result of the run except the echoed scenario (whose seed, source, shard
/// and part fields differ between runs that must agree).
pub fn digest(outcome: &ScenarioOutcome) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(outcome.engine.as_bytes());
    for s in &outcome.trajectory {
        for word in [
            s.round as u64,
            s.nodes as u64,
            s.max_min.to_bits(),
            s.max_avg.to_bits(),
            s.real_weight.to_bits(),
            s.dummy_load,
            s.arrived_weight,
            s.completed_weight,
        ] {
            eat(&word.to_le_bytes());
        }
    }
    eat(&outcome.dummy_created.to_le_bytes());
    hash
}

/// Invariants every trajectory must hold, whatever the seed: one sample per
/// round, the node count kept, and real weight conserved
/// (`real(t) = real(0) + arrived(t) − completed(t)`, exact in `f64` at
/// these magnitudes).
pub fn invariant_violations(w: &Workload, trajectory: &[RoundSample]) -> Vec<String> {
    let mut out = Vec::new();
    if trajectory.len() != w.rounds + 1 {
        out.push(format!(
            "{} samples for {} rounds",
            trajectory.len(),
            w.rounds
        ));
    }
    let Some(first) = trajectory.first() else {
        return out;
    };
    for (i, s) in trajectory.iter().enumerate() {
        if s.round != i {
            out.push(format!("sample {i} is round {}", s.round));
            break;
        }
        if s.nodes != w.n {
            out.push(format!("round {}: {} nodes", s.round, s.nodes));
            break;
        }
        let expect = first.real_weight + s.arrived_weight as f64 - s.completed_weight as f64;
        if s.real_weight != expect {
            out.push(format!(
                "round {}: real weight {} but {} expected",
                s.round, s.real_weight, expect
            ));
            break;
        }
    }
    out
}

/// What a checked run must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// The trajectory digest, when one is recorded for the seed (or the
    /// trajectory does not depend on it).
    pub digest: Option<u64>,
    /// The round the discrepancy target is first met.
    pub cross_round: usize,
}

/// Recorded reference results (`reference.json`).
pub struct References {
    doc: Json,
}

impl References {
    pub fn bundled() -> Result<Self, String> {
        let doc = Json::parse(include_str!("../reference.json"))
            .map_err(|e| format!("reference.json: {e}"))?;
        Ok(References { doc })
    }

    /// The reference for `workload` at `seed`: its crossing round, and the
    /// digest recorded for that seed, or the default seed's digest when the
    /// workload's trajectory is seed-invariant. Seeds without a digest are
    /// checked by their invariants and by the agreement of their trials.
    pub fn expectation(&self, workload: &str, seed: u64) -> Option<Expectation> {
        let w = self.doc.get("workloads")?.get(workload)?;
        let digests = w.get("digests")?;
        let digest = match digests.get(&seed.to_string()) {
            Some(d) => Some(d),
            None if w.get("seed_invariant") == Some(&Json::Bool(true)) => {
                let default = self.doc.get("default_seed")?.as_u64()?;
                digests.get(&default.to_string())
            }
            None => None,
        };
        Some(Expectation {
            digest: match digest {
                Some(d) => Some(u64::from_str_radix(d.as_str()?, 16).ok()?),
                None => None,
            },
            cross_round: w.get("cross_round")?.as_usize()?,
        })
    }
}

/// The result a trial reports for checking.
#[derive(Debug, Clone)]
pub struct Produced {
    pub digest: u64,
    pub cross_round: Option<usize>,
    pub violations: Vec<String>,
}

/// Checks one trial against the reference (when there is one) and against
/// `agreed`, the digest the run's first trial produced.
pub fn check(
    expect: Option<&Expectation>,
    agreed: Option<u64>,
    produced: &Produced,
) -> Result<(), String> {
    if let Some(v) = produced.violations.first() {
        return Err(format!("invariant broken: {v}"));
    }
    let Some(cross) = produced.cross_round else {
        return Err("the discrepancy target was never met".to_string());
    };
    if let Some(expect) = expect {
        if let Some(digest) = expect.digest.filter(|&d| d != produced.digest) {
            return Err(format!(
                "trajectory digest {:016x} differs from the reference {digest:016x}",
                produced.digest
            ));
        }
        if cross != expect.cross_round {
            return Err(format!(
                "balanced at round {cross}, the reference says round {}",
                expect.cross_round
            ));
        }
    }
    if let Some(agreed) = agreed {
        if produced.digest != agreed {
            return Err(format!(
                "trajectory digest {:016x} differs from the run's first trial {agreed:016x}",
                produced.digest
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn produced(digest: u64, cross: usize) -> Produced {
        Produced {
            digest,
            cross_round: Some(cross),
            violations: Vec::new(),
        }
    }

    #[test]
    fn every_workload_has_a_valid_scenario() {
        for w in WORKLOADS.iter().chain([&FEDERATED]) {
            let s = w.scenario(1);
            s.validate().expect("valid scenario");
            assert_eq!(s.rounds, w.rounds);
            assert!(w.source(1) < w.n);
        }
        assert_ne!(
            WORKLOADS[0].source(1),
            WORKLOADS[0].source(2),
            "the seed moves the spike"
        );
    }

    #[test]
    fn bundled_references_cover_every_workload() {
        let refs = References::bundled().expect("bundled references parse");
        for w in WORKLOADS.iter().chain([&FEDERATED]) {
            for seed in [1, 7919] {
                let expect = refs.expectation(w.name, seed).expect("recorded");
                assert!(expect.digest.is_some(), "{} at seed {seed}", w.name);
            }
        }
        // The static scenario is seed-invariant; the dynamic one is not.
        let digest = |w, seed| refs.expectation(w, seed).and_then(|e| e.digest);
        assert_eq!(
            digest("static_alg1_fos", 123_456),
            digest("static_alg1_fos", 1)
        );
        assert_eq!(digest("dynamic_alg2_sos", 123_456), None);
    }

    #[test]
    fn check_compares_digest_crossing_and_agreement() {
        let expect = Expectation {
            digest: Some(7),
            cross_round: 23,
        };
        assert!(check(Some(&expect), Some(7), &produced(7, 23)).is_ok());
        assert!(check(Some(&expect), None, &produced(8, 23)).is_err());
        assert!(check(Some(&expect), None, &produced(7, 24)).is_err());
        assert!(check(None, Some(9), &produced(7, 23)).is_err());
        let any_digest = Expectation {
            digest: None,
            cross_round: 23,
        };
        assert!(check(Some(&any_digest), None, &produced(8, 23)).is_ok());
        assert!(check(Some(&any_digest), None, &produced(8, 22)).is_err());
        let mut broken = produced(7, 23);
        broken.violations.push("lost weight".into());
        assert!(check(Some(&expect), None, &broken).is_err());
        broken = produced(7, 23);
        broken.cross_round = None;
        assert!(check(None, None, &broken).is_err());
    }
}
