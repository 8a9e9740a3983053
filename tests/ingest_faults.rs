//! Deterministic fault injection for the ingestion path: every fault —
//! mid-run feed hang-up, out-of-order round tags, zero-capacity channels,
//! torn/truncated trace tails, poisoned (panicking/failing) producers —
//! must terminate with a typed error or a documented degradation, never a
//! deadlock and never corrupted engine state. CI runs this suite in release
//! mode under the `merge-ingestion` job's `timeout-minutes`, so a hang here
//! fails loudly twice over.

use lb_analysis::artifact::unique_temp_path;
use lb_bench::dynamic::Session;
use lb_core::continuous::Fos;
use lb_core::discrete::{DiscreteBalancer, FlowImitation, RoundEvents, TaskPicker};
use lb_core::ingest;
use lb_core::ingest::merge::MergeSession;
use lb_core::{CoreError, InitialLoad, Speeds, Task, TaskId};
use lb_graph::{generators, AlphaScheme};
use lb_workloads::{
    AlgorithmSpec, ArrivalSpec, InitialSpec, ModelSpec, PadSpec, ReadSource, RoundSource, Scenario,
    ServiceSpec, SpeedSpec, TokenDistribution, TopologySpec, TraceSource,
};
use std::path::PathBuf;
use std::time::Duration;

fn engine() -> FlowImitation<Fos> {
    let g = generators::torus(4, 4).unwrap();
    let speeds = Speeds::uniform(16);
    let initial = InitialLoad::single_source(16, 0, 64);
    let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
    FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap()
}

fn small_scenario() -> Scenario {
    Scenario {
        name: "ingest_faults".into(),
        seed: 7,
        rounds: 30,
        sample_every: 10,
        algorithm: AlgorithmSpec::Alg1,
        model: ModelSpec::Fos,
        topology: TopologySpec {
            family: "torus".into(),
            target_n: 16,
        },
        speeds: SpeedSpec::Uniform,
        initial: InitialSpec {
            distribution: TokenDistribution::SingleSource { source: 0 },
            tokens_per_node: 4,
            pad: PadSpec::Degree,
        },
        arrivals: ArrivalSpec::Poisson {
            rate_per_node: 0.5,
            max_weight: 1,
        },
        completions: ServiceSpec::Uniform {
            weight_per_speed: 1,
        },
        churn: Vec::new(),
        shards: 1,
        federation: 1,
    }
}

fn temp_trace(tag: &str) -> PathBuf {
    unique_temp_path(&format!("lb_ingest_faults_{tag}.trace.jsonl"))
}

/// Fault: one of two live feeds hangs up mid-run (its thread returns after
/// 10 rounds). Documented degradation: the merge continues over the
/// remaining feed, the run completes, and the short feed's contribution is
/// exactly its prefix.
#[test]
fn mid_run_feed_hangup_degrades_to_remaining_feeds() {
    let mut consumers = Vec::new();
    let mut handles = Vec::new();
    for (feed, rounds_sent) in [(0u64, 30u64), (1, 10)] {
        let (mut tx, rx) = ingest::bounded(2);
        consumers.push(rx);
        handles.push(std::thread::spawn(move || {
            for round in 0..rounds_sent {
                let mut batch = tx.buffer();
                let task = Task::new(TaskId(1_000 * (feed + 1) + round), 1);
                batch
                    .arrivals
                    .push(((feed as usize + round as usize) % 16, task));
                if tx.send(round, batch).is_err() {
                    return;
                }
            }
            // Returning drops the producer: a clean mid-run hang-up.
        }));
    }
    let mut session = MergeSession::new(consumers);
    let mut alg1 = engine();
    for round in 0..35u64 {
        let report = session.apply_round(round, &mut alg1).unwrap();
        let expect = match round {
            0..=9 => 2,
            10..=29 => 1,
            _ => 0,
        };
        assert_eq!(report.arrived_tasks, expect, "round {round}");
        alg1.step();
    }
    assert!(session.ended(), "both feeds drained");
    assert_eq!(session.report().arrived_tasks, 40);
    let reports = session.feed_reports();
    assert_eq!(reports[0].batches, 30);
    assert_eq!(
        reports[1].batches, 10,
        "the short feed contributed its prefix"
    );
    for handle in handles {
        handle.join().unwrap();
    }
}

/// Fault: a feed's batch is tagged with a round earlier than the one being
/// applied. The session must return a typed error and leave the engine
/// untouched — error, not corruption.
#[test]
fn out_of_order_round_tags_error_without_corruption() {
    let (tx, rx) = bounded_with_batch(5);
    let mut session = MergeSession::new(vec![rx]);
    let mut alg1 = engine();
    // Rounds 0..=4 are legitimately empty (the batch is tagged 5).
    for round in 0..5u64 {
        let report = session.apply_round(round, &mut alg1).unwrap();
        assert_eq!(report.arrived_tasks, 0);
    }
    let loads_before = alg1.loads();
    // Asking for round 7 with round 5 still pending is the violation.
    let err = session.apply_round(7, &mut alg1).unwrap_err();
    assert!(
        matches!(err, CoreError::InvalidParameter { .. }),
        "typed error, got {err:?}"
    );
    assert!(err.to_string().contains("protocol violation"), "{err}");
    assert_eq!(alg1.loads(), loads_before, "engine state untouched");
    drop(tx);
}

/// A channel whose producer already sent one batch tagged `round`.
fn bounded_with_batch(round: u64) -> (ingest::EventProducer, ingest::EventConsumer) {
    let (mut tx, rx) = ingest::bounded(4);
    let mut batch = tx.buffer();
    batch.arrivals.push((3, Task::new(TaskId(900), 1)));
    tx.send(round, batch).unwrap();
    (tx, rx)
}

/// Fault: a zero-capacity channel. Documented degradation: the capacity
/// clamps to 1, so producers strictly alternate with the consumer — slower,
/// never deadlocked.
#[test]
fn zero_capacity_channels_never_deadlock() {
    let mut consumers = Vec::new();
    let mut handles = Vec::new();
    for feed in 0..2u64 {
        let (mut tx, rx) = ingest::bounded(0);
        consumers.push(rx);
        handles.push(std::thread::spawn(move || {
            for round in 0..50u64 {
                let mut batch = tx.buffer();
                let task = Task::new(TaskId(2_000 * (feed + 1) + round), 1);
                batch.arrivals.push((feed as usize, task));
                if tx.send(round, batch).is_err() {
                    return;
                }
            }
        }));
    }
    let mut session = MergeSession::new(consumers);
    let mut alg1 = engine();
    for round in 0..50u64 {
        session.apply_round(round, &mut alg1).unwrap();
        alg1.step();
    }
    assert_eq!(session.report().arrived_tasks, 100);
    let reports = session.feed_reports();
    assert!(
        reports.iter().all(|r| r.channel.high_water == 1),
        "zero capacity clamps to one in-flight batch"
    );
    for handle in handles {
        handle.join().unwrap();
    }
}

/// Fault: the trace file stops growing without an `end` record — first with
/// a torn (mid-record) tail, then cut at a line boundary. `TraceSource`
/// must time out with a typed truncation error, and the driver-level replay
/// must terminate with that error rather than deadlock.
#[test]
fn torn_and_truncated_trace_tails_fail_loudly() {
    let scenario = small_scenario();
    let path = temp_trace("torn_tail");
    Session::from_scenario(&scenario)
        .record(path.clone())
        .run(|_| {})
        .expect("records");
    let text = std::fs::read_to_string(&path).expect("trace text");

    // Torn tail: drop the end record and cut the last round record mid-line.
    let torn = &text[..text.len() - 30];
    std::fs::write(&path, torn).unwrap();
    let source = TraceSource::open_with(&path, Duration::from_millis(50), Duration::from_millis(5))
        .expect("header parses");
    let err = Session::from_stream(Box::new(source))
        .run(|_| {})
        .expect_err("torn tail errors");
    assert!(err.to_string().contains("truncated?"), "{err}");

    // Truncated at a line boundary (complete lines, no end record).
    let lines: Vec<&str> = text.lines().collect();
    let cut = lines[..lines.len() - 1].join("\n") + "\n";
    std::fs::write(&path, cut).unwrap();
    let source = TraceSource::open_with(&path, Duration::from_millis(50), Duration::from_millis(5))
        .expect("header parses");
    let err = Session::from_stream(Box::new(source))
        .run(|_| {})
        .expect_err("truncation errors");
    assert!(err.to_string().contains("without an end record"), "{err}");

    // The framed-reader source reports the same class of fault at EOF.
    let bytes = lines[..lines.len() - 1].join("\n").into_bytes();
    let source = ReadSource::new(std::io::Cursor::new(bytes)).expect("header parses");
    let err = Session::from_stream(Box::new(source))
        .run(|_| {})
        .expect_err("stream truncation errors");
    assert!(err.to_string().contains("truncated?"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A source that produces a few healthy rounds, then poisons its producer
/// thread (panics) or fails with its own error.
struct PoisonedSource {
    scenario: Scenario,
    rounds_before_fault: u64,
    next: u64,
    panic: bool,
}

impl RoundSource for PoisonedSource {
    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn next_round(&mut self, out: &mut RoundEvents) -> Result<Option<u64>, String> {
        if self.next == self.rounds_before_fault {
            if self.panic {
                // The panic unwinds the producer thread; dropping the
                // channel's sender half un-blocks the engine (event-free
                // remainder), and the driver reports the panic on join.
                panic!("poisoned producer (deliberate test panic — expected in output)");
            }
            return Err("simulated I/O failure on the producer".into());
        }
        out.clear();
        out.arrivals.push((
            (self.next % 16) as usize,
            Task::new(TaskId(5_000 + self.next), 1),
        ));
        self.next += 1;
        Ok(Some(self.next - 1))
    }
}

/// Fault: the producer thread panics mid-run. The run must terminate with a
/// typed error (not deadlock): the panic's `Drop` releases the channel, the
/// engine finishes the remaining rounds event-free, and the join surfaces
/// the poisoned producer.
#[test]
fn poisoned_producer_panics_become_errors_not_deadlocks() {
    let source = PoisonedSource {
        scenario: small_scenario(),
        rounds_before_fault: 3,
        next: 0,
        panic: true,
    };
    let err = Session::from_stream(Box::new(source))
        .run(|_| {})
        .expect_err("panic surfaces");
    assert!(err.to_string().contains("panicked"), "{err}");
}

/// Fault: the producer's source fails with its own error (torn tails and
/// stalled writers take this path). The error propagates verbatim.
#[test]
fn producer_source_errors_propagate_verbatim() {
    let source = PoisonedSource {
        scenario: small_scenario(),
        rounds_before_fault: 3,
        next: 0,
        panic: false,
    };
    let err = Session::from_stream(Box::new(source))
        .run(|_| {})
        .expect_err("source error surfaces");
    assert!(err.to_string().contains("simulated I/O failure"), "{err}");
}
