//! The async-ingestion contract, end to end: for the same scenario and seed,
//! the synchronous path, a one-feed merge and a recorded-then-replayed trace
//! all produce **byte-identical** result JSON — for every engine combo
//! (alg1/alg2 × fos/sos), with churn in the stream, and for every shard
//! count (the acceptance shard counts {1, 4} are pinned here; CI diffs the
//! same artefacts via `lb run --record` / `lb replay`).

use lb_analysis::artifact::unique_temp_path;
use lb_bench::dynamic::{Producer, Session};
use lb_workloads::{
    AlgorithmSpec, ArrivalSpec, ChurnEvent, ChurnKind, InitialSpec, ModelSpec, PadSpec, Scenario,
    ServiceSpec, SpeedSpec, TokenDistribution, TopologySpec, Trace,
};
use std::path::PathBuf;

/// The four engine combos a scenario can request.
const COMBOS: [(AlgorithmSpec, ModelSpec); 4] = [
    (AlgorithmSpec::Alg1, ModelSpec::Fos),
    (AlgorithmSpec::Alg1, ModelSpec::Sos),
    (AlgorithmSpec::Alg2, ModelSpec::Fos),
    (AlgorithmSpec::Alg2, ModelSpec::Sos),
];

/// A sustained-load scenario with both kinds of churn in the stream.
fn churny_scenario(algorithm: AlgorithmSpec, model: ModelSpec) -> Scenario {
    Scenario {
        name: "ingest_equivalence".into(),
        seed: 1234,
        rounds: 60,
        sample_every: 15,
        algorithm,
        model,
        topology: TopologySpec {
            family: "torus".into(),
            target_n: 36,
        },
        speeds: SpeedSpec::Uniform,
        initial: InitialSpec {
            distribution: TokenDistribution::SingleSource { source: 0 },
            tokens_per_node: 6,
            pad: PadSpec::Degree,
        },
        arrivals: ArrivalSpec::Poisson {
            rate_per_node: 0.5,
            max_weight: 1, // alg2-compatible
        },
        completions: ServiceSpec::Uniform {
            weight_per_speed: 1,
        },
        churn: vec![
            ChurnEvent {
                round: 20,
                kind: ChurnKind::Rewire { seed: 7 },
            },
            ChurnEvent {
                round: 40,
                kind: ChurnKind::Resize {
                    target_n: 16,
                    seed: 8,
                },
            },
        ],
        shards: 1,
        federation: 1,
    }
}

fn temp_trace(tag: &str) -> PathBuf {
    unique_temp_path(&format!("lb_ingest_equivalence_{tag}.trace.jsonl"))
}

/// The acceptance criterion: sync-driven, one-feed-merged and trace-replayed
/// runs emit byte-identical result JSON at shards ∈ {1, 4}, for all four
/// engine combos, with churn in the stream.
#[test]
fn sync_channel_and_replay_are_byte_identical() {
    for (algorithm, model) in COMBOS {
        let scenario = churny_scenario(algorithm, model);
        let tag = format!("{}_{}", scenario.algorithm.as_str(), model.as_str());
        let path = temp_trace(&tag);

        for shards in [1usize, 4] {
            // Sync run, recording the stream as it goes.
            let sync = Session::from_scenario(&scenario)
                .shards(shards)
                .record(path.clone())
                .run(|_| {})
                .unwrap_or_else(|e| panic!("{tag} shards={shards} sync: {e}"));
            let sync_doc = sync.to_json().render_pretty();

            // One-feed merge: same batches through one SPSC channel.
            let channel = Session::from_scenario(&scenario)
                .shards(shards)
                .producer(Producer::Merge {
                    feeds: 1,
                    capacity: 3,
                })
                .run(|_| {})
                .unwrap_or_else(|e| panic!("{tag} shards={shards} merge:1: {e}"));
            assert_eq!(
                sync_doc,
                channel.to_json().render_pretty(),
                "{tag} shards={shards}: one-feed merge diverged from sync"
            );

            // Replay: the recorded trace drives the engine through a
            // one-feed merge; the header pinned the effective seed and shard count.
            let trace = Trace::load(&path).expect("trace loads");
            assert_eq!(trace.scenario.shards, shards, "effective shards recorded");
            let replayed = Session::from_trace(trace.clone())
                .run(|_| {})
                .unwrap_or_else(|e| panic!("{tag} shards={shards} replay: {e}"));
            assert_eq!(
                sync_doc,
                replayed.to_json().render_pretty(),
                "{tag} shards={shards}: replay diverged from sync"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Cross-shard replay: a trace recorded sequentially replays bit-identically
/// under a shard override, and vice versa — the trajectory depends only on
/// the recorded stream, never on the shard count.
#[test]
fn trace_replay_is_shard_invariant() {
    let scenario = churny_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
    let path = temp_trace("shard_invariance");
    let sequential = Session::from_scenario(&scenario)
        .record(path.clone())
        .run(|_| {})
        .expect("records");
    let trace = Trace::load(&path).expect("trace loads");
    for shards in [2usize, 4] {
        let replayed = Session::from_trace(trace.clone())
            .shards(shards)
            .run(|_| {})
            .expect("replays");
        assert_eq!(
            sequential.trajectory, replayed.trajectory,
            "shards={shards}: trajectory changed under shard override"
        );
        assert_eq!(replayed.scenario.shards, shards, "override recorded");
    }
    std::fs::remove_file(&path).ok();
}

/// A truncated trace must fail to load — never silently replay a prefix.
#[test]
fn truncated_traces_fail_loudly() {
    let scenario = churny_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
    let path = temp_trace("truncation");
    Session::from_scenario(&scenario)
        .record(path.clone())
        .run(|_| {})
        .expect("records");
    let text = std::fs::read_to_string(&path).expect("trace exists");
    let lines: Vec<&str> = text.lines().collect();
    let truncated = lines[..lines.len() - 1].join("\n");
    let err = Trace::parse(&truncated).expect_err("truncated trace rejected");
    assert!(err.contains("end record"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A trace shorter than the run is legal (the producer hangs up, remaining
/// rounds see no events) — the engine keeps balancing the load it has, and
/// the run still completes deterministically.
#[test]
fn short_traces_drain_and_keep_balancing() {
    let mut scenario = churny_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
    scenario.churn.clear();
    scenario.completions = ServiceSpec::None;
    let path = temp_trace("short");
    Session::from_scenario(&scenario)
        .record(path.clone())
        .run(|_| {})
        .expect("records");

    // Keep only the first half of the recorded rounds.
    let mut trace = Trace::load(&path).expect("trace loads");
    trace.rounds.truncate(trace.rounds.len() / 2);
    let last_recorded = trace.rounds.last().expect("nonempty").round;
    let a = Session::from_trace(trace.clone())
        .run(|_| {})
        .expect("replays");
    let b = Session::from_trace(trace).run(|_| {}).expect("replays");
    assert_eq!(a.trajectory, b.trajectory, "short replay is deterministic");
    assert!(
        (last_recorded as usize) < scenario.rounds,
        "the trace really is shorter than the run"
    );
    // Arrived weight reflects only the replayed half.
    let full = Session::from_scenario(&scenario)
        .run(|_| {})
        .expect("full run");
    assert!(
        a.last().arrived_weight < full.last().arrived_weight,
        "half the stream arrived less weight than the full stream"
    );
    std::fs::remove_file(&path).ok();
}
