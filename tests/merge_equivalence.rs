//! The multi-producer ingestion contract, end to end: for the same scenario
//! and seed, the synchronous path, the one-feed merge, the k-way merge over
//! N feeds and the byte-stream sources (file tail, framed reader) all
//! produce **byte-identical** result JSON — for every engine combo
//! (alg1/alg2 × fos/sos), with churn in the stream, at the acceptance shard
//! counts {1, 4}. A session-level property test additionally checks that
//! *any* partition of the event stream across 1..=4 feeds, sent under any
//! (seeded) interleaving, merges back to the sync-identical trajectory.

use lb_analysis::artifact::unique_temp_path;
use lb_bench::dynamic::{Producer, Session, DEFAULT_CHANNEL_CAPACITY};
use lb_core::continuous::Fos;
use lb_core::discrete::{
    DiscreteBalancer, DynamicBalancer, FlowImitation, RandomizedImitation, RoundEvents, TaskPicker,
};
use lb_core::ingest::merge::MergeSession;
use lb_core::ingest::{self, EventProducer};
use lb_core::{InitialLoad, Speeds};
use lb_graph::AlphaScheme;
use lb_workloads::{
    AlgorithmSpec, ArrivalSpec, ChurnEvent, ChurnKind, InitialSpec, ModelSpec, PadSpec, ReadSource,
    Scenario, ScenarioEvents, ServiceSpec, SpeedSpec, TokenDistribution, TopologySpec, TraceSource,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
        name: "merge_equivalence".into(),
        seed: 4321,
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
    unique_temp_path(&format!("lb_merge_equivalence_{tag}.trace.jsonl"))
}

/// The acceptance criterion: sync-driven, one-feed-merged, 2-feed-merged and
/// file-tailed runs all emit byte-identical result JSON at shards ∈ {1, 4},
/// for all four engine combos, with churn in the stream. The framed-reader
/// source rides along as the pipe/socket stand-in.
#[test]
fn sync_channel_merge_and_tail_are_byte_identical() {
    for (algorithm, model) in COMBOS {
        let scenario = churny_scenario(algorithm, model);
        let tag = format!("{}_{}", scenario.algorithm.as_str(), model.as_str());
        let path = temp_trace(&tag);

        for shards in [1usize, 4] {
            // Sync run, recording the stream for the byte-stream sources.
            let sync = Session::from_scenario(&scenario)
                .shards(shards)
                .record(path.clone())
                .run(|_| {})
                .unwrap_or_else(|e| panic!("{tag} shards={shards} sync: {e}"));
            let sync_doc = sync.to_json().render_pretty();

            // One-feed merge: a single channel.
            let channel = Session::from_scenario(&scenario)
                .shards(shards)
                .producer(Producer::Merge {
                    feeds: 1,
                    capacity: DEFAULT_CHANNEL_CAPACITY,
                })
                .run(|_| {})
                .unwrap_or_else(|e| panic!("{tag} shards={shards} merge:1: {e}"));
            assert_eq!(
                sync_doc,
                channel.to_json().render_pretty(),
                "{tag} shards={shards}: one-feed merge diverged from sync"
            );

            // 2-feed merge.
            let merged = Session::from_scenario(&scenario)
                .shards(shards)
                .producer(Producer::Merge {
                    feeds: 2,
                    capacity: 3,
                })
                .run(|_| {})
                .unwrap_or_else(|e| panic!("{tag} shards={shards} merge: {e}"));
            assert_eq!(
                sync_doc,
                merged.to_json().render_pretty(),
                "{tag} shards={shards}: 2-feed merge diverged from sync"
            );

            // File tail over the recorded trace.
            let source = TraceSource::open(&path)
                .unwrap_or_else(|e| panic!("{tag} shards={shards} tail open: {e}"));
            let tailed = Session::from_stream(Box::new(source))
                .run(|_| {})
                .unwrap_or_else(|e| panic!("{tag} shards={shards} tail: {e}"));
            assert_eq!(
                sync_doc,
                tailed.to_json().render_pretty(),
                "{tag} shards={shards}: file tail diverged from sync"
            );

            // Framed byte-stream reader over the same bytes.
            let bytes = std::fs::read(&path).expect("trace bytes");
            let source = ReadSource::new(std::io::Cursor::new(bytes))
                .unwrap_or_else(|e| panic!("{tag} shards={shards} stream open: {e}"));
            let streamed = Session::from_stream(Box::new(source))
                .run(|_| {})
                .unwrap_or_else(|e| panic!("{tag} shards={shards} stream: {e}"));
            assert_eq!(
                sync_doc,
                streamed.to_json().render_pretty(),
                "{tag} shards={shards}: framed stream diverged from sync"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Wider feed counts on one combo: a 1-feed merge is the single-producer
/// path, and 3/4-feed merges still reconstruct every batch.
#[test]
fn merge_is_byte_identical_across_feed_counts() {
    let scenario = churny_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
    let sync = Session::from_scenario(&scenario)
        .run(|_| {})
        .expect("sync runs");
    let sync_doc = sync.to_json().render_pretty();
    for shards in [1usize, 4] {
        for feeds in [1usize, 3, 4] {
            let merged = Session::from_scenario(&scenario)
                .shards(shards)
                .producer(Producer::Merge { feeds, capacity: 2 })
                .run(|_| {})
                .unwrap_or_else(|e| panic!("feeds={feeds} shards={shards}: {e}"));
            if shards == 1 {
                assert_eq!(
                    sync_doc,
                    merged.to_json().render_pretty(),
                    "feeds={feeds}: merge diverged from sync"
                );
            } else {
                assert_eq!(
                    sync.trajectory, merged.trajectory,
                    "feeds={feeds} shards={shards}: trajectory diverged"
                );
            }
        }
    }
}

/// A live tail: the trace file grows *while* the replay runs (written line
/// by line on a side thread, the way `lb serve-trace --out` drips it), and
/// the result is still byte-identical to the recorded run.
#[test]
fn growing_file_tail_replays_byte_identically() {
    let mut scenario = churny_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
    scenario.rounds = 40;
    scenario.churn.clear();
    let recorded_path = temp_trace("live_tail_recorded");
    let grown_path = temp_trace("live_tail_grown");
    let recorded = Session::from_scenario(&scenario)
        .record(recorded_path.clone())
        .run(|_| {})
        .expect("records");

    std::fs::write(&grown_path, "").expect("creates the tailed file");
    let text = std::fs::read_to_string(&recorded_path).expect("trace text");
    let writer_path = grown_path.clone();
    let writer = std::thread::spawn(move || {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&writer_path)
            .unwrap();
        for line in text.lines() {
            writeln!(file, "{line}").unwrap();
            file.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    });
    let source = TraceSource::open_with(
        &grown_path,
        std::time::Duration::from_secs(30),
        std::time::Duration::from_millis(1),
    )
    .expect("header arrives");
    let tailed = Session::from_stream(Box::new(source))
        .run(|_| {})
        .expect("tail replays");
    writer.join().unwrap();
    assert_eq!(
        recorded.to_json().render_pretty(),
        tailed.to_json().render_pretty(),
        "live tail diverged from the recorded run"
    );
    std::fs::remove_file(&recorded_path).ok();
    std::fs::remove_file(&grown_path).ok();
}

/// One engine pair for the partition property: `reference` consumes the
/// original per-round batches, `merged` the feed-partitioned ones.
enum Engines {
    Alg1(FlowImitation<Fos>, FlowImitation<Fos>),
    Alg2(RandomizedImitation<Fos>, RandomizedImitation<Fos>),
}

impl Engines {
    fn build(algorithm: AlgorithmSpec, n: usize) -> (Self, Speeds) {
        let graph = lb_graph::generators::torus(6, 6).expect("torus builds");
        assert_eq!(graph.node_count(), n);
        let speeds = Speeds::uniform(n);
        let initial = InitialLoad::single_source(n, 0, (n * 8) as u64);
        let make_fos = |g: lb_graph::Graph| {
            Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).expect("FOS constructs")
        };
        let engines = match algorithm {
            AlgorithmSpec::Alg1 => Engines::Alg1(
                FlowImitation::new(
                    make_fos(graph.clone()),
                    &initial,
                    speeds.clone(),
                    TaskPicker::Fifo,
                )
                .expect("dimensions agree"),
                FlowImitation::new(make_fos(graph), &initial, speeds.clone(), TaskPicker::Fifo)
                    .expect("dimensions agree"),
            ),
            AlgorithmSpec::Alg2 => Engines::Alg2(
                RandomizedImitation::new(make_fos(graph.clone()), &initial, speeds.clone(), 99)
                    .expect("dimensions agree"),
                RandomizedImitation::new(make_fos(graph), &initial, speeds.clone(), 99)
                    .expect("dimensions agree"),
            ),
        };
        (engines, speeds)
    }

    fn split(&mut self) -> (&mut dyn DynamicBalancer, &mut dyn DynamicBalancer) {
        match self {
            Engines::Alg1(reference, merged) => (reference, merged),
            Engines::Alg2(reference, merged) => (reference, merged),
        }
    }

    fn step_both(&mut self) {
        match self {
            Engines::Alg1(reference, merged) => {
                reference.step();
                merged.step();
            }
            Engines::Alg2(reference, merged) => {
                reference.step();
                merged.step();
            }
        }
    }

    fn loads(&self) -> (Vec<f64>, Vec<f64>) {
        match self {
            Engines::Alg1(reference, merged) => (reference.loads(), merged.loads()),
            Engines::Alg2(reference, merged) => (reference.loads(), merged.loads()),
        }
    }
}

/// The partition property: ANY assignment of a unit-weight event stream's
/// events to 1..=4 feeds, with the feeds' batches sent in ANY (seeded)
/// interleaving, merges back to the sync-identical trajectory. Event
/// application is additive and unit tasks are interchangeable weight-wise,
/// so per-round coalescing order cannot show up in the loads.
#[test]
fn any_partition_under_any_interleaving_merges_back() {
    let rounds = 40usize;
    let n = 36usize;
    let scenario = {
        let mut s = churny_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
        s.churn.clear();
        s.rounds = rounds;
        s
    };
    let speeds = Speeds::uniform(n);

    for algorithm in [AlgorithmSpec::Alg1, AlgorithmSpec::Alg2] {
        for feeds in 1usize..=4 {
            for trial in 0..3u64 {
                let mut rng = StdRng::seed_from_u64(
                    0xFEED * (feeds as u64)
                        + 31 * trial
                        + u64::from(algorithm == AlgorithmSpec::Alg2),
                );

                // Materialise the stream once, partition every event to a
                // random feed, keeping per-feed round order.
                let mut stream = ScenarioEvents::new(&scenario, &speeds, (n * 8) as u64);
                let mut original: Vec<RoundEvents> = Vec::with_capacity(rounds);
                let mut per_feed: Vec<Vec<(u64, RoundEvents)>> = vec![Vec::new(); feeds];
                let mut batch = RoundEvents::default();
                for round in 0..rounds {
                    stream.fill_round(round, &mut batch);
                    let mut slices: Vec<RoundEvents> = vec![RoundEvents::default(); feeds];
                    for &(node, weight) in &batch.completions {
                        slices[rng.gen_range(0..feeds)]
                            .completions
                            .push((node, weight));
                    }
                    for &(node, task) in &batch.arrivals {
                        slices[rng.gen_range(0..feeds)].arrivals.push((node, task));
                    }
                    for (feed, slice) in slices.into_iter().enumerate() {
                        if !slice.is_empty() {
                            per_feed[feed].push((round as u64, slice));
                        }
                    }
                    original.push(batch.clone());
                }

                // The scheduler shim: send the feeds' batch sequences in a
                // seeded random interleaving (per-feed order preserved —
                // that is the SPSC contract — but cross-feed arrival order
                // fully shuffled). Capacities are sized so no send blocks.
                let mut producers: Vec<EventProducer> = Vec::new();
                let mut consumers = Vec::new();
                for feed_batches in &per_feed {
                    let (tx, rx) = ingest::bounded(feed_batches.len().max(1));
                    producers.push(tx);
                    consumers.push(rx);
                }
                let mut cursors = vec![0usize; feeds];
                loop {
                    let open: Vec<usize> = (0..feeds)
                        .filter(|&f| cursors[f] < per_feed[f].len())
                        .collect();
                    if open.is_empty() {
                        break;
                    }
                    let feed = open[rng.gen_range(0..open.len())];
                    let (round, slice) = per_feed[feed][cursors[feed]].clone();
                    cursors[feed] += 1;
                    producers[feed].send(round, slice).expect("consumer alive");
                }
                drop(producers);

                let (mut engines, _) = Engines::build(algorithm, n);
                let mut session = MergeSession::new(consumers);
                for (round, batch) in original.iter().enumerate() {
                    {
                        let (reference, merged) = engines.split();
                        if !batch.is_empty() {
                            reference.apply_events(batch).expect("reference applies");
                        }
                        session
                            .apply_round(round as u64, merged)
                            .expect("merged batch applies");
                    }
                    engines.step_both();
                    let (expect, got) = engines.loads();
                    assert_eq!(
                        expect, got,
                        "{algorithm:?} feeds={feeds} trial={trial} round={round}: \
                         merged trajectory diverged"
                    );
                }
                // One pull past the final round observes every hang-up
                // (feed end states are discovered lazily, on demand).
                let mut drain = RoundEvents::default();
                session
                    .fill_round(rounds as u64, &mut drain)
                    .expect("post-final drain");
                assert!(drain.is_empty(), "no events past the final round");
                assert!(session.ended(), "all feeds drained");
                let total_events: u64 = session.feed_reports().iter().map(|r| r.events).sum();
                let expect_events: u64 = original
                    .iter()
                    .map(|b| (b.arrivals.len() + b.completions.len()) as u64)
                    .sum();
                assert_eq!(
                    total_events, expect_events,
                    "no event lost in the partition"
                );
            }
        }
    }
}
