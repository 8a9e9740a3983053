//! The traced run: the per-layer breakdown of one workload.
//!
//! The run first executes the workload once through `Session::run`, untraced,
//! for the reference trajectory and the untraced round time. It then rebuilds
//! the same world from public constructors and drives the engine round by
//! round itself, with a span around every public call into a layer. A shadow
//! continuous twin, fed the same events, is stepped beside the engine so the
//! twin kernel's cost is measured on its own; at every sample its loads must
//! be bit-equal to the engine's own twin, the sample must equal the
//! untraced trajectory's, and the per-edge flow deviation must stay below
//! `w_max` (the precondition of Theorem 3). Bench bookkeeping runs in
//! `bench.*` spans, which count neither as layer time nor as session time.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lb_analysis::{write_bytes_atomic, Json};
use lb_bench::dynamic::RoundSample;
use lb_bench::harness::GraphClass;
use lb_core::continuous::{ContinuousProcess, ContinuousRunner, Fos, Sos};
use lb_core::discrete::{
    DynamicBalancer, FlowImitation, RandomizedImitation, RoundEvents, TaskPicker,
};
use lb_core::ingest::{self, merge::MergeSession};
use lb_core::snapshot::{self, DiscreteState, EngineState, Snapshot};
use lb_core::{metrics, CoreError, FederationPlan, InitialLoad, ShardedExecutor, Speeds};
use lb_graph::{spectral, AlphaScheme, DiffusionMatrix, Graph, GraphDelta, PowerIterationOptions};
use lb_proto::{Record, WireBatch};
use lb_workloads::{pad_for_min_load, ChurnKind, Scenario, ScenarioEvents};

use crate::spans::Tracer;
use crate::stats;
use crate::trial::{self, TimedRun};
use crate::workload::{self, Kind, References, Workload};

/// The diffusion scheme every scenario engine uses.
const SCHEME: AlphaScheme = AlphaScheme::MaxDegreePlusOne;

/// Fewest per-round samples the traced loop collects per stepping mode, so
/// that a p90 has at least ten samples beyond it.
const MIN_ROUND_SAMPLES: usize = 110;

/// Hard stop for the traced loop, well inside the run's time limit.
const MAX_TRACED_SECONDS: f64 = 120.0;

/// Per-edge and per-node bytes one twin step moves (computed, not
/// measured): per edge the kernel reads both endpoints (16), the alpha (8),
/// both loads (16) and both speeds (16) and writes the flow (16); the load
/// update reads endpoints and flow again (32), reads and writes both loads
/// (32) and the cumulative flow (16). SOS also reads and writes its
/// previous-flow history (32). Per node the minimum scan reads the load (8).
const TWIN_BYTES_PER_EDGE_FOS: u64 = 152;
const TWIN_BYTES_PER_EDGE_SOS: u64 = 184;
const TWIN_BYTES_PER_NODE: u64 = 8;

/// What the traced run reports.
pub struct TracedReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// The two engine shapes the workloads use, behind the calls the traced
/// loop makes.
trait Traced: DynamicBalancer {
    type P: ContinuousProcess + Clone;
    fn twin(&self) -> &ContinuousRunner<Self::P>;
    fn deviation(&self) -> f64;
    fn wmax(&self) -> f64;
    fn real(&self) -> Vec<f64>;
    fn created(&self) -> u64;
    fn step_on(&mut self, exec: &mut ShardedExecutor);
    fn patched(&self, graph: Arc<Graph>, delta: &GraphDelta) -> Result<Self::P, CoreError>;
    fn replace(&mut self, process: Self::P) -> Result<(), CoreError>;
    fn capture_state(&self) -> EngineState;
    /// Items sent over edges since the last call.
    fn sent_since(&self, last: &mut SendCounter) -> u64;
}

/// Where the previous [`Traced::sent_since`] call left off.
enum SendCounter {
    /// Algorithm 1 counts its sends.
    Total(u64),
    /// Algorithm 2 does not: each round moves every edge's ledger one way,
    /// so the absolute ledger change is that round's sends.
    Ledger(Vec<i64>),
}

impl Traced for FlowImitation<Fos> {
    type P = Fos;
    fn twin(&self) -> &ContinuousRunner<Fos> {
        self.continuous()
    }
    fn deviation(&self) -> f64 {
        self.max_flow_deviation()
    }
    fn wmax(&self) -> f64 {
        FlowImitation::wmax(self) as f64
    }
    fn real(&self) -> Vec<f64> {
        self.real_loads()
    }
    fn created(&self) -> u64 {
        self.dummy_created()
    }
    fn step_on(&mut self, exec: &mut ShardedExecutor) {
        self.step_sharded(exec);
    }
    fn patched(&self, graph: Arc<Graph>, delta: &GraphDelta) -> Result<Fos, CoreError> {
        self.continuous().process().patched(graph, delta)
    }
    fn replace(&mut self, process: Fos) -> Result<(), CoreError> {
        self.replace_topology(process)
    }
    fn capture_state(&self) -> EngineState {
        self.capture()
    }
    fn sent_since(&self, last: &mut SendCounter) -> u64 {
        let now = self.items_sent();
        let before = match last {
            SendCounter::Total(t) => *t,
            SendCounter::Ledger(_) => 0,
        };
        *last = SendCounter::Total(now);
        now - before
    }
}

impl Traced for RandomizedImitation<Sos> {
    type P = Sos;
    fn twin(&self) -> &ContinuousRunner<Sos> {
        self.continuous()
    }
    fn deviation(&self) -> f64 {
        self.max_flow_deviation()
    }
    fn wmax(&self) -> f64 {
        1.0
    }
    fn real(&self) -> Vec<f64> {
        self.real_loads()
    }
    fn created(&self) -> u64 {
        self.dummy_created()
    }
    fn step_on(&mut self, exec: &mut ShardedExecutor) {
        self.step_sharded(exec);
    }
    fn patched(&self, graph: Arc<Graph>, delta: &GraphDelta) -> Result<Sos, CoreError> {
        self.continuous().process().patched(graph, delta)
    }
    fn replace(&mut self, process: Sos) -> Result<(), CoreError> {
        self.replace_topology(process)
    }
    fn capture_state(&self) -> EngineState {
        self.capture()
    }
    fn sent_since(&self, last: &mut SendCounter) -> u64 {
        let DiscreteState::Alg2(state) = self.capture().discrete else {
            return 0;
        };
        let sent = match last {
            SendCounter::Ledger(prev) if prev.len() == state.discrete_flow.len() => prev
                .iter()
                .zip(&state.discrete_flow)
                .map(|(a, b)| (b - a).unsigned_abs())
                .sum(),
            _ => 0,
        };
        *last = SendCounter::Ledger(state.discrete_flow);
        sent
    }
}

/// One trajectory point, computed exactly as the session driver samples.
fn sample_of<E: Traced>(engine: &E, round: usize) -> RoundSample {
    let loads = engine.loads();
    let speeds = engine.speeds();
    RoundSample {
        round,
        nodes: engine.graph().node_count(),
        max_min: metrics::max_min_discrepancy(&loads, speeds),
        max_avg: metrics::max_avg_discrepancy(&loads, speeds),
        real_weight: engine.real().iter().sum(),
        dummy_load: engine.dummy_load(),
        arrived_weight: engine.arrived_weight(),
        completed_weight: engine.completed_weight(),
    }
}

/// The world of a scenario, rebuilt from public constructors: hypercubes
/// are seed-free, speeds uniform and the spike placement deterministic, so
/// this equals what the session driver builds.
struct World {
    graph: Arc<Graph>,
    speeds: Speeds,
    initial: InitialLoad,
}

fn build_world(tr: &mut Tracer, w: &Workload, scenario: &Scenario) -> Result<World, String> {
    let graph: Arc<Graph> = tr
        .span("graph.build", None, || GraphClass::Hypercube.build(w.n, 0))
        .map_err(|e| e.to_string())?
        .into();
    let n = graph.node_count();
    let speeds = Speeds::uniform(n);
    let source = w.source(scenario.seed);
    let initial = tr.span("workloads.initial", None, || {
        let spike =
            InitialLoad::single_source(n, source, scenario.initial.tokens_per_node * n as u64);
        pad_for_min_load(&spike, &speeds, w.pad())
    });
    Ok(World {
        graph,
        speeds,
        initial,
    })
}

/// Counts gathered across traced repetitions.
#[derive(Default)]
struct Counts {
    rounds: u64,
    items: u64,
    created: u64,
    events: u64,
    blocked_sends: u64,
    blocked_ns: u64,
    high_water: u64,
    snapshot_bytes: Vec<f64>,
    twin_bytes: u64,
    failures: Vec<String>,
}

/// Everything one traced repetition needs besides the engine.
struct Rep<'a> {
    w: &'a Workload,
    scenario: &'a Scenario,
    reference: &'a [RoundSample],
    /// First span round id of this repetition (ids stay unique across
    /// repetitions).
    base: usize,
    exec: Option<ShardedExecutor>,
    scratch: &'a Path,
}

/// Drives one repetition of the workload's scenario, engine built.
fn drive<E: Traced>(
    tr: &mut Tracer,
    rep: Rep<'_>,
    mut engine: E,
    mut graph: Arc<Graph>,
    first_task_id: u64,
    counts: &mut Counts,
) -> Result<Option<Tracer>, String> {
    let Rep {
        w,
        scenario,
        reference,
        base,
        mut exec,
        scratch,
    } = rep;
    let mut shadow = tr.span("bench.shadow", None, || {
        ContinuousRunner::new(engine.twin().process().clone(), engine.loads())
    });
    let mut failures = Vec::new();
    let mut check = |round: usize, engine: &E, shadow: &ContinuousRunner<E::P>, s: &RoundSample| {
        if reference.get(round) != Some(s) {
            failures.push(format!(
                "round {round}: sample differs from the session trajectory"
            ));
        }
        if shadow.loads() != engine.twin().loads() {
            failures.push(format!(
                "round {round}: shadow twin loads differ from the engine's twin"
            ));
        }
        let dev = engine.deviation();
        if dev >= engine.wmax() {
            failures.push(format!("round {round}: flow deviation {dev} reaches w_max"));
        }
    };
    let s0 = tr.span("sample", Some(base), || sample_of(&engine, 0));
    tr.span("bench.check", Some(base), || {
        check(0, &engine, &shadow, &s0)
    });

    // The one-feed merge ingestion path of the dynamic workload: a producer
    // thread generates the scenario's events and streams them through a
    // bounded channel into a merge session.
    let mut feed = None;
    if w.kind == Kind::Dynamic {
        let (mut tx, rx) = ingest::bounded(workload::MERGE_CAPACITY);
        let mut stream = ScenarioEvents::new(scenario, engine.speeds(), first_task_id);
        let mut producer_tracer = Tracer::new(tr.origin());
        let rounds = w.rounds;
        let handle = std::thread::spawn(move || {
            let mut full = RoundEvents::default();
            let mut spare: Option<RoundEvents> = None;
            for round in 0..rounds {
                producer_tracer.span("workloads.fill_round", Some(base + round + 1), || {
                    stream.fill_round(round, &mut full)
                });
                let mut batch = spare.take().unwrap_or_else(|| tx.buffer());
                batch.clear();
                batch.completions.extend_from_slice(&full.completions);
                batch.arrivals.extend_from_slice(&full.arrivals);
                if batch.is_empty() {
                    spare = Some(batch);
                } else if tx.send(round as u64, batch).is_err() {
                    break;
                }
            }
            producer_tracer
        });
        feed = Some((MergeSession::new(vec![rx]), handle));
    }
    let checkpoint = scratch.join(format!("traced-{}.snapshot", std::process::id()));
    let mut sends = match w.kind {
        Kind::Dynamic => SendCounter::Ledger(Vec::new()),
        _ => SendCounter::Total(0),
    };
    let _ = engine.sent_since(&mut sends);
    let mut events = RoundEvents::default();
    let sos = w.kind == Kind::Dynamic;
    let mut outcome = Ok(());
    for round in 0..w.rounds {
        let id = Some(base + round + 1);
        tr.enter("round", id);
        let delta_churn = scenario.churn.iter().find_map(|event| match &event.kind {
            ChurnKind::Delta { add, remove } if event.round == round => Some((add, remove)),
            _ => None,
        });
        if let Some((add, remove)) = delta_churn {
            let patched = tr.span("graph.delta_apply", id, || {
                let delta = GraphDelta::new(
                    graph.node_count(),
                    add.iter().copied(),
                    remove.iter().copied(),
                )?;
                Ok::<_, lb_graph::GraphError>((graph.apply_delta(&delta)?, delta))
            });
            let (next, delta) = match patched {
                Ok(pair) => pair,
                Err(e) => {
                    outcome = Err(format!("churn at round {round}: {e}"));
                    tr.exit();
                    break;
                }
            };
            graph = Arc::new(next);
            let process = tr.span("twin.patch", id, || {
                engine.patched(Arc::clone(&graph), &delta)
            });
            let replaced = process.map_err(|e| e.to_string()).and_then(|process| {
                tr.span("discrete.replace_topology", id, || {
                    engine.replace(process.clone())
                })
                .map_err(|e| e.to_string())?;
                tr.span("bench.shadow", id, || {
                    shadow.rebind(process, engine.loads())
                });
                Ok(())
            });
            if let Err(e) = replaced {
                outcome = Err(format!("churn at round {round}: {e}"));
                tr.exit();
                break;
            }
        }
        if let Some((merge, _)) = feed.as_mut() {
            if let Err(e) = tr.span("ingest.fill_round", id, || {
                merge.fill_round(round as u64, &mut events)
            }) {
                outcome = Err(format!("ingest at round {round}: {e}"));
                tr.exit();
                break;
            }
        }
        if !events.is_empty() {
            let mut before = tr.span("bench.shadow", id, || engine.real());
            if let Err(e) = tr.span("discrete.apply_events", id, || engine.apply_events(&events)) {
                outcome = Err(format!("events at round {round}: {e}"));
                tr.exit();
                break;
            }
            // Mirror what the engine did to its own twin (unit-weight
            // tasks): completions drain up to the budget, then arrivals.
            tr.span("bench.shadow", id, || {
                for &(node, budget) in &events.completions {
                    let take = (budget as f64).min(before[node]);
                    before[node] -= take;
                    shadow.adjust_load(node, -take);
                }
                for &(node, task) in &events.arrivals {
                    shadow.adjust_load(node, task.weight() as f64);
                }
            });
            counts.events += (events.arrivals.len() + events.completions.len()) as u64;
        }
        match exec.as_mut() {
            Some(exec) => tr.span("shard.step", id, || engine.step_on(exec)),
            None => tr.span("discrete.step", id, || engine.step()),
        }
        tr.span("twin.step", id, || {
            shadow.step();
        });
        let s = tr.span("sample", id, || sample_of(&engine, round + 1));
        tr.span("bench.check", id, || {
            check(round + 1, &engine, &shadow, &s);
            counts.items += engine.sent_since(&mut sends);
        });
        if sos && (round + 1) % workload::CHECKPOINT_EVERY == 0 {
            tr.enter("snapshot", id);
            let state = tr.span("snapshot.capture", id, || engine.capture_state());
            let snap = Snapshot {
                scenario: scenario.to_json(),
                driver: Json::obj([("engine", Json::from(engine.name()))]),
                round: (round + 1) as u64,
                engine: state,
            };
            let text = tr.span("snapshot.render", id, || snapshot::render(&snap));
            let written = tr.span("snapshot.write", id, || {
                write_bytes_atomic(&checkpoint, text.as_bytes())
            });
            tr.exit();
            counts.snapshot_bytes.push(text.len() as f64);
            if let Err(e) = written {
                outcome = Err(format!("checkpoint at round {}: {e}", round + 1));
                tr.exit();
                break;
            }
        }
        tr.exit();
    }
    let _ = std::fs::remove_file(&checkpoint);
    counts.rounds += w.rounds as u64;
    counts.created += engine.created();
    let per_edge = if sos {
        TWIN_BYTES_PER_EDGE_SOS
    } else {
        TWIN_BYTES_PER_EDGE_FOS
    };
    counts.twin_bytes =
        graph.edge_count() as u64 * per_edge + graph.node_count() as u64 * TWIN_BYTES_PER_NODE;
    let producer = match feed {
        Some((merge, handle)) => {
            for report in merge.feed_reports() {
                counts.blocked_sends += report.channel.blocked_sends;
                counts.blocked_ns += report.channel.blocked_nanos;
                counts.high_water = counts.high_water.max(report.channel.high_water as u64);
            }
            drop(merge);
            Some(
                handle
                    .join()
                    .map_err(|_| "the event producer thread panicked".to_string())?,
            )
        }
        None => None,
    };
    outcome?;
    counts.failures.extend(failures);
    Ok(producer)
}

/// Builds the engine for one repetition and drives it.
fn repetition(
    tr: &mut Tracer,
    rep: Rep<'_>,
    counts: &mut Counts,
) -> Result<Option<Tracer>, String> {
    let World {
        graph,
        speeds,
        initial,
    } = build_world(tr, rep.w, rep.scenario)?;
    let first_task_id = initial.task_count() as u64;
    if rep.w.kind == Kind::Dynamic {
        let matrix = tr
            .span("graph.matrix", None, || {
                DiffusionMatrix::new(&graph, &speeds.to_f64(), SCHEME)
            })
            .map_err(|e| e.to_string())?;
        let lambda = tr.span("graph.spectral", None, || {
            spectral::second_eigenvalue(&graph, &matrix, PowerIterationOptions::default())
        });
        let beta = 2.0 / (1.0 + (1.0 - lambda * lambda).max(0.0).sqrt());
        let process = tr
            .span("twin.build", None, || {
                Sos::new(Arc::clone(&graph), &speeds, SCHEME, beta)
            })
            .map_err(|e| e.to_string())?;
        let engine = tr
            .span("discrete.build", None, || {
                RandomizedImitation::new(process, &initial, speeds, rep.scenario.seed)
            })
            .map_err(|e| e.to_string())?;
        drive(tr, rep, engine, graph, first_task_id, counts)
    } else {
        let process = tr
            .span("twin.build", None, || {
                Fos::new(Arc::clone(&graph), &speeds, SCHEME)
            })
            .map_err(|e| e.to_string())?;
        let engine = tr
            .span("discrete.build", None, || {
                FlowImitation::new(process, &initial, speeds, TaskPicker::Fifo)
            })
            .map_err(|e| e.to_string())?;
        drive(tr, rep, engine, graph, first_task_id, counts)
    }
}

/// Mean round time in seconds of an untraced session run.
fn session_round_s(run: &TimedRun) -> f64 {
    1.0 / run.rounds_per_s()
}

/// Federated barrier records at this workload's boundary sizes: per rank its
/// own loads, flows and sends, and the coordinator's combined broadcasts.
fn proto_records(graph: &Graph) -> Result<Vec<Record>, String> {
    let plans: Vec<FederationPlan> = (0..workload::PARTS)
        .map(|p| FederationPlan::new(graph, p, workload::PARTS))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let load = 16.0f64.to_bits();
    let flow = 0.5f64.to_bits();
    let mut records = Vec::new();
    let (mut all_loads, mut all_flows, mut all_batches) = (Vec::new(), Vec::new(), Vec::new());
    for plan in &plans {
        let rank = plan.part() as u64;
        let loads: Vec<(u64, u64)> = plan.boundary().iter().map(|&v| (v as u64, load)).collect();
        let flows: Vec<(u64, u64, u64)> = plan
            .crossing()
            .iter()
            .map(|&e| (e as u64, flow, 0))
            .collect();
        let batch = WireBatch {
            deltas: plan.crossing().iter().map(|&e| (e as u64, 1)).collect(),
            ..WireBatch::default()
        };
        all_loads.extend_from_slice(&loads);
        all_flows.extend_from_slice(&flows);
        all_batches.push((rank, batch.clone()));
        records.push(Record::Loads {
            rank: Some(rank),
            entries: loads,
        });
        records.push(Record::Flows {
            rank: Some(rank),
            entries: flows,
        });
        records.push(Record::Sends { rank, batch });
    }
    records.push(Record::Loads {
        rank: None,
        entries: all_loads,
    });
    records.push(Record::Flows {
        rank: None,
        entries: all_flows,
    });
    records.push(Record::Deliver {
        batches: all_batches,
    });
    Ok(records)
}

/// Renders and parses one round's barrier records `reps` times: median
/// microseconds per round for each, and the bytes on the wire (computed
/// from the rendered lines).
fn proto_costs(tr: &mut Tracer, graph: &Graph, reps: usize) -> Result<(f64, f64, f64), String> {
    let records = proto_records(graph)?;
    let mut bytes = 0usize;
    for _ in 0..reps {
        let lines: Vec<String> = tr.span("proto.render", None, || {
            records.iter().map(Record::render).collect()
        });
        let parsed = tr.span("proto.parse", None, || {
            lines
                .iter()
                .map(|l| Record::parse(l))
                .collect::<Result<Vec<_>, _>>()
        });
        if parsed.map_err(|e| e.to_string())? != records {
            return Err("a barrier record did not survive render and parse".to_string());
        }
        bytes = lines.iter().map(|l| l.len() + 1).sum();
    }
    Ok((
        med(&tr.durations_us("proto.render")),
        med(&tr.durations_us("proto.parse")),
        bytes as f64,
    ))
}

/// Federated sessions, repeated until enough coordinator-observed rounds:
/// the per-round times in milliseconds and the runs themselves.
fn federated_rounds(
    w: &Workload,
    seed: u64,
    scratch: &Path,
) -> Result<(Vec<f64>, Vec<TimedRun>), String> {
    let mut round_ms = Vec::new();
    let mut runs = Vec::new();
    while round_ms.len() < MIN_ROUND_SAMPLES {
        let run = trial::timed_run(w, seed, scratch)?;
        round_ms.extend(
            run.samples
                .windows(2)
                .map(|pair| pair[1].duration_since(pair[0]).as_secs_f64() * 1e3),
        );
        runs.push(run);
    }
    Ok((round_ms, runs))
}

/// What the federated scenario's sessions showed.
#[derive(Default)]
struct Federation {
    /// Coordinator-observed round times in milliseconds.
    round_ms: Vec<f64>,
    /// One round's barrier records: render and parse microseconds, and the
    /// rendered bytes.
    render_us: f64,
    parse_us: f64,
    bytes: f64,
}

/// Runs the federated scenario untraced until enough coordinator-observed
/// rounds, checks every federated trajectory against the sequential run of
/// the same scenario and against the recorded reference, and prices one
/// round's barrier records.
fn federation(
    tr: &mut Tracer,
    refs: &References,
    seed: u64,
    scratch: &Path,
    attempted: &mut u64,
    failures: &mut Vec<String>,
) -> Result<Federation, String> {
    let w = &workload::FEDERATED;
    let (round_ms, runs) = federated_rounds(w, seed, scratch)?;
    let sequential = Workload {
        kind: Kind::Static,
        ..*w
    };
    let sequential = trial::timed_run(&sequential, seed, scratch)?.outcome;
    let digest = workload::digest(&sequential);
    *attempted += 1;
    let produced = workload::Produced {
        digest,
        cross_round: w.crossing(&sequential.trajectory),
        violations: workload::invariant_violations(w, &sequential.trajectory),
    };
    if let Err(e) = workload::check(refs.expectation(w.name, seed).as_ref(), None, &produced) {
        failures.push(format!("sequential {} run: {e}", w.name));
    }
    for run in &runs {
        *attempted += 1;
        if workload::digest(&run.outcome) != digest {
            failures.push("federated trajectory differs from the sequential one".to_string());
        }
    }
    let graph = GraphClass::Hypercube
        .build(w.n, 0)
        .map_err(|e| e.to_string())?;
    let (render_us, parse_us, bytes) = proto_costs(tr, &graph, 30)?;
    Ok(Federation {
        round_ms,
        render_us,
        parse_us,
        bytes,
    })
}

/// Per round: the round span's self time (session time no layer call
/// covers) over the round's duration less its bench bookkeeping.
fn unaccounted_shares(tr: &Tracer) -> Vec<f64> {
    let spans = tr.spans();
    let mut bench = vec![0u64; spans.len()];
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].name == "round" {
                covered[p] += s.duration_ns();
                if s.name.starts_with("bench.") {
                    bench[p] += s.duration_ns();
                }
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "round")
        .map(|(id, s)| {
            let session = s.duration_ns().saturating_sub(bench[id]) as f64;
            s.duration_ns().saturating_sub(covered[id]) as f64 / session
        })
        .collect()
}

/// Per round id, the discrete step's time beyond the shadow twin's step.
fn forward_us(tr: &Tracer) -> Vec<f64> {
    let twin = tr.per_round_us("twin.step");
    tr.per_round_us("discrete.step")
        .into_iter()
        .filter_map(|(round, step)| twin.get(&round).map(|t| step - t))
        .collect()
}

/// `p`-th percentile of `values`, 0 when the layer did no work on this
/// workload; an error when there is work but too few samples to report it.
fn pct(values: &[f64], p: f64, name: &str) -> Result<f64, String> {
    if values.is_empty() {
        return Ok(0.0);
    }
    stats::percentile(values, p)
        .ok_or_else(|| format!("{name}: {} samples are too few for p{p}", values.len()))
}

fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

pub fn run(w: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Result<TracedReport, String> {
    let origin = Instant::now();
    let refs = References::bundled()?;
    let expect = refs.expectation(w.name, seed);
    let mut attempted = 0u64;
    let mut failures = Vec::new();

    // An untraced session run: the reference trajectory and round time.
    let session = trial::timed_run(w, seed, scratch)?;
    let reference = &session.outcome;
    let reference_digest = workload::digest(reference);
    attempted += 1;
    let produced = workload::Produced {
        digest: reference_digest,
        cross_round: w.crossing(&reference.trajectory),
        violations: workload::invariant_violations(w, &reference.trajectory),
    };
    if let Err(e) = workload::check(expect.as_ref(), None, &produced) {
        failures.push(format!("session run: {e}"));
    }

    // Traced repetitions. The static workload alternates sequential and
    // sharded stepping, so the speed-up has a same-run base.
    let mut tr = Tracer::new(origin);
    let mut producers = Vec::new();
    let mut counts = Counts::default();
    let scenario = w.scenario(seed);
    let (mut seq_rounds, mut shard_rounds) = (0usize, 0usize);
    let needs_shards = w.kind == Kind::Static;
    let mut rep = 0usize;
    loop {
        let elapsed = origin.elapsed().as_secs_f64();
        let enough =
            seq_rounds >= MIN_ROUND_SAMPLES && (!needs_shards || shard_rounds >= MIN_ROUND_SAMPLES);
        if (enough && elapsed >= seconds) || (rep > 0 && elapsed >= MAX_TRACED_SECONDS) {
            break;
        }
        let sharded = needs_shards && rep % 2 == 1;
        attempted += 1;
        let before = counts.failures.len();
        let producer = repetition(
            &mut tr,
            Rep {
                w,
                scenario: &scenario,
                reference: &reference.trajectory,
                base: rep * (w.rounds + 1),
                exec: sharded.then(|| ShardedExecutor::new(workload::SHARDS)),
                scratch,
            },
            &mut counts,
        )?;
        producers.extend(producer);
        if counts.failures.len() > before {
            failures.push(format!(
                "traced repetition {rep}: {}",
                counts.failures[before]
            ));
        }
        if sharded {
            shard_rounds += w.rounds;
        } else {
            seq_rounds += w.rounds;
        }
        rep += 1;
    }

    let round_us = tr.durations_us("round");
    let traced_round_s = round_us.iter().sum::<f64>() / round_us.len().max(1) as f64 / 1e6;
    let trace_overhead = traced_round_s / session_round_s(&session);
    let workloads_fill: Vec<f64> = producers
        .iter()
        .flat_map(|p| p.durations_us("workloads.fill_round"))
        .collect();
    let unaccounted = unaccounted_shares(&tr);
    let federation = if w.kind == Kind::Static {
        federation(&mut tr, &refs, seed, scratch, &mut attempted, &mut failures)?
    } else {
        Federation::default()
    };
    let secs = |name: &str| med(&tr.durations_us(name)) / 1e6;
    let us = |name: &str| med(&tr.durations_us(name));
    let discrete_step = tr.durations_us("discrete.step");
    let shard_step = tr.durations_us("shard.step");
    let twin_step = tr.durations_us("twin.step");
    let sample = tr.durations_us("sample");
    let apply = tr.durations_us("discrete.apply_events");
    let fill = tr.durations_us("ingest.fill_round");
    let forward = forward_us(&tr);
    let rounds = counts.rounds.max(1) as f64;

    let step_p50 = pct(&discrete_step, 50.0, "discrete.step_us")?;
    let shard_p50 = pct(&shard_step, 50.0, "shard.step_us")?;
    let metrics = vec![
        ("graph.build_s", secs("graph.build"), "s"),
        ("graph.spectral_s", secs("graph.spectral"), "s"),
        ("graph.delta_apply_us", us("graph.delta_apply"), "us"),
        ("twin.build_s", secs("twin.build"), "s"),
        (
            "twin.step_us.p50",
            pct(&twin_step, 50.0, "twin.step_us")?,
            "us",
        ),
        (
            "twin.step_us.p90",
            pct(&twin_step, 90.0, "twin.step_us")?,
            "us",
        ),
        ("twin.patch_us", us("twin.patch"), "us"),
        ("twin.bytes_per_round", counts.twin_bytes as f64, "bytes"),
        ("discrete.step_us.p50", step_p50, "us"),
        (
            "discrete.step_us.p90",
            pct(&discrete_step, 90.0, "discrete.step_us")?,
            "us",
        ),
        (
            "discrete.forward_us.p50",
            pct(&forward, 50.0, "discrete.forward_us")?,
            "us",
        ),
        (
            "discrete.items_sent_per_round",
            counts.items as f64 / rounds,
            "items",
        ),
        (
            "discrete.dummy_share",
            if counts.items == 0 {
                0.0
            } else {
                counts.created as f64 / counts.items as f64
            },
            "ratio",
        ),
        (
            "discrete.apply_events_us.p50",
            pct(&apply, 50.0, "discrete.apply_events_us")?,
            "us",
        ),
        (
            "discrete.events_per_round",
            counts.events as f64 / rounds,
            "events",
        ),
        (
            "discrete.replace_topology_us",
            us("discrete.replace_topology"),
            "us",
        ),
        ("shard.step_us.p50", shard_p50, "us"),
        (
            "shard.step_us.p90",
            pct(&shard_step, 90.0, "shard.step_us")?,
            "us",
        ),
        (
            "shard.speedup",
            if shard_p50 > 0.0 {
                step_p50 / shard_p50
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "ingest.fill_round_us.p50",
            pct(&fill, 50.0, "ingest.fill_round_us")?,
            "us",
        ),
        ("ingest.blocked_sends", counts.blocked_sends as f64, "count"),
        ("ingest.blocked_ns", counts.blocked_ns as f64, "ns"),
        ("ingest.high_water", counts.high_water as f64, "batches"),
        (
            "workloads.fill_round_us.p50",
            pct(&workloads_fill, 50.0, "workloads.fill_round_us")?,
            "us",
        ),
        ("snapshot.capture_ms", us("snapshot.capture") / 1e3, "ms"),
        ("snapshot.render_ms", us("snapshot.render") / 1e3, "ms"),
        ("snapshot.write_ms", us("snapshot.write") / 1e3, "ms"),
        ("snapshot.bytes", med(&counts.snapshot_bytes), "bytes"),
        ("sample.us.p50", pct(&sample, 50.0, "sample.us")?, "us"),
        ("sample.us.p90", pct(&sample, 90.0, "sample.us")?, "us"),
        ("proto.render_us_per_round", federation.render_us, "us"),
        ("proto.parse_us_per_round", federation.parse_us, "us"),
        ("proto.bytes_per_round", federation.bytes, "bytes"),
        (
            "federate.round_ms.p50",
            pct(&federation.round_ms, 50.0, "federate.round_ms")?,
            "ms",
        ),
        (
            "federate.round_ms.p90",
            pct(&federation.round_ms, 90.0, "federate.round_ms")?,
            "ms",
        ),
        ("session.unaccounted_share", med(&unaccounted), "ratio"),
        ("trace.overhead", trace_overhead, "ratio"),
    ];

    // The producer threads' spans join the record only now: they ran
    // concurrently, so they stay out of the round accounting above.
    for producer in producers {
        tr.absorb(producer);
    }
    let spans_path = scratch.join(format!("spans-{}-{seed}.jsonl", w.name));
    tr.write(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    eprintln!("spans written to {}", spans_path.display());
    eprintln!("{:<28} {:>14} {:>8}", "span", "self ms", "calls");
    for (name, (ns, calls)) in tr.self_times() {
        eprintln!("{name:<28} {:>14.3} {calls:>8}", ns as f64 / 1e6);
    }
    Ok(TracedReport {
        metrics,
        attempted,
        failed: failures.len().min(attempted as usize) as u64,
        failures,
    })
}
