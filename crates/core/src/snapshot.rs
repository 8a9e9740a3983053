//! Versioned, crash-safe serialization of the full engine state.
//!
//! A snapshot captures everything a dynamic run needs to resume
//! bit-identically from a between-rounds boundary — the one quiescent point
//! the ingest contract already defines: discrete per-node loads, every
//! [`TaskQueue`](crate::TaskQueue)'s contents *in pop order* with their
//! tie-breaking sequence
//! numbers, the continuous twin's state (loads, cumulative flows, SOS
//! history), the imitation ledger, the Algorithm 2 rounding-RNG derivation
//! inputs, the round counter, and opaque driver payloads (the effective
//! scenario header and accumulated trajectory, owned by the driver layer).
//!
//! # Format
//!
//! One compact JSON object per line. Integers are exact, and `f64` state is
//! encoded as IEEE-754 **bit patterns**, so restore is bit-identical, never a
//! decimal round-trip:
//!
//! ```text
//! {"kind":"header","version":1,"scenario":{…}}            // opaque driver payload
//! {"kind":"run","round":R,"driver":{…}}                   // opaque driver payload
//! {"kind":"twin","round":T,"min_load_seen":B,"loads":[…],"cumulative_flow":[…]}
//! {"kind":"history","beta":B,"has_previous":true,"previous":[[F,B],…]}  // SOS only
//! {"kind":"alg1","round":R,"wmax":W,…,"dummy":[…],"discrete_flow":[…]}  // or "alg2"
//! {"kind":"queue","node":0,"next_seq":S,"entries":[[seq,id,weight,dummy],…]}
//! …                                                       // one queue line per node (alg1)
//! {"kind":"end","records":N,"tasks":T}                    // truncation guard
//! ```
//!
//! Every record goes through the exact-integer line codec
//! ([`lb_analysis::codec`]): [`render_into`] appends each line straight into
//! a caller-owned buffer (the driver's rotating checkpoint reuses one across
//! publications), and [`parse`] reads each line in one pass, **in the
//! writer's field order** — a missing, reordered or extra field is a
//! located [`SnapshotError::Corrupt`], and its reason names the byte. Only
//! the small opaque `scenario` and `driver` payloads are [`Json`] trees.
//!
//! The end record carries the record and stored-task totals; a reader
//! rejects a snapshot without a matching end record, so a truncated or torn
//! file fails loudly ([`SnapshotError::Truncated`]) instead of silently
//! resuming from a prefix — the same discipline the trace format applies.
//!
//! # Crash safety
//!
//! [`write_atomic`] (and the byte-level helper [`write_bytes_atomic`])
//! publishes a snapshot via temp file → fsync → rename, so a crash mid-write
//! never leaves a torn file under the target path: readers see either the
//! previous complete snapshot or the new one.

use crate::continuous::EdgeFlow;
use crate::task::Task;
use crate::TaskId;
use lb_analysis::codec::{LineScanner, LineWriter, ScanError};
use lb_analysis::{u64_exact, usize_exact, Json};
use std::fmt;
use std::fs;
use std::path::Path;

pub use lb_analysis::artifact::write_bytes_atomic;

/// The snapshot format version this module writes and the only one it reads.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Typed snapshot failures: corrupt, truncated, stale and version-mismatched
/// snapshots each surface as their own variant, never a panic or a
/// silently-wrong resume.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// Structurally invalid content, located at a 1-based line.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// The header declares a format version this build does not read.
    Version {
        /// 1-based line number of the header.
        line: usize,
        /// The declared version.
        found: u64,
    },
    /// The file ends before the end record (interrupted write, partial
    /// copy, or a mid-line torn write).
    Truncated {
        /// 1-based line number where the stream gave out.
        line: usize,
        /// What exactly is missing.
        reason: String,
    },
    /// The snapshot is internally consistent but does not belong to the run
    /// being resumed (wrong algorithm, wrong node count, stale seed, …).
    Mismatch {
        /// Why the snapshot cannot drive this engine.
        reason: String,
    },
}

impl SnapshotError {
    /// Convenience constructor for [`SnapshotError::Mismatch`].
    pub fn mismatch(reason: impl Into<String>) -> Self {
        SnapshotError::Mismatch {
            reason: reason.into(),
        }
    }

    fn corrupt(line: usize, reason: impl Into<String>) -> Self {
        SnapshotError::Corrupt {
            line,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, message } => write!(f, "snapshot {path}: {message}"),
            SnapshotError::Corrupt { line, reason } => {
                write!(f, "corrupt snapshot: line {line}: {reason}")
            }
            SnapshotError::Version { line, found } => write!(
                f,
                "corrupt snapshot: line {line}: unsupported snapshot version {found} \
                 (this build reads version {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated { line, reason } => {
                write!(f, "truncated snapshot: line {line}: {reason}")
            }
            SnapshotError::Mismatch { reason } => {
                write!(f, "snapshot does not match this run: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Process-internal history captured alongside the twin (SOS's relaxation
/// state); memoryless kernels (FOS) have none.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessHistory {
    /// The relaxation parameter β, for bit-exact validation against the
    /// process rebuilt at resume time.
    pub beta: f64,
    /// The previous round's committed flows (`y(t−1)`).
    pub previous: Vec<EdgeFlow>,
    /// Whether `previous` is valid yet (false before the first round of an
    /// epoch).
    pub has_previous: bool,
}

/// The continuous twin's state: load vector, cumulative per-edge flows, and
/// the running minimum-load watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinState {
    /// Completed twin rounds in the current topology epoch.
    pub round: u64,
    /// The load vector `x^A(t)`.
    pub loads: Vec<f64>,
    /// Cumulative net flow per canonical edge.
    pub cumulative_flow: Vec<f64>,
    /// Smallest node load observed at any round boundary so far.
    pub min_load_seen: f64,
    /// Process history (SOS), or `None` for memoryless kernels.
    pub history: Option<ProcessHistory>,
}

/// One node's task queue: its next-seq counter and `(seq, task)` entries in
/// pop order (see [`TaskQueue::snapshot`](crate::TaskQueue::snapshot)).
#[derive(Debug, Clone, PartialEq)]
pub struct QueueState {
    /// The queue's monotone push counter.
    pub next_seq: u64,
    /// `(seq, task)` pairs in pop order.
    pub entries: Vec<(u64, Task)>,
}

/// Algorithm 1 (deterministic flow imitation) state.
#[derive(Debug, Clone, PartialEq)]
pub struct Alg1State {
    /// Per-node task queues, in pop order with tie-breaking seqs.
    pub queues: Vec<QueueState>,
    /// Per-node dummy holdings.
    pub dummy: Vec<u64>,
    /// Cumulative net discrete flow per canonical edge.
    pub discrete_flow: Vec<i64>,
    /// The maximum task weight seen so far (mutated by arrivals).
    pub wmax: u64,
    /// Total dummy load created from the infinite source.
    pub dummy_created: u64,
    /// Total items moved over edges.
    pub items_sent: u64,
    /// Total weight injected by arrival events.
    pub arrived_weight: u64,
    /// Total weight drained by completion events.
    pub completed_weight: u64,
}

/// Algorithm 2 (randomized flow imitation) state. The rounding RNG is not
/// serialized: every decision derives a fresh sub-RNG from
/// `(seed, round, edge)`, so the seed and round counter reconstruct it.
#[derive(Debug, Clone, PartialEq)]
pub struct Alg2State {
    /// Per-node real token counts.
    pub tokens: Vec<u64>,
    /// Per-node dummy holdings.
    pub dummy: Vec<u64>,
    /// Cumulative net discrete flow per canonical edge.
    pub discrete_flow: Vec<i64>,
    /// The master rounding seed (validated against the resumed engine).
    pub seed: u64,
    /// Total dummy load created from the infinite source.
    pub dummy_created: u64,
    /// Total weight injected by arrival events.
    pub arrived_weight: u64,
    /// Total weight drained by completion events.
    pub completed_weight: u64,
}

/// Which discretizer the snapshot belongs to.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscreteState {
    /// Algorithm 1 state.
    Alg1(Alg1State),
    /// Algorithm 2 state.
    Alg2(Alg2State),
}

/// The full engine state at a between-rounds boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Completed engine rounds (never resets, unlike the twin's counter).
    pub round: u64,
    /// The continuous twin.
    pub twin: TwinState,
    /// The discretizer's state.
    pub discrete: DiscreteState,
}

/// A complete parsed snapshot: the engine state plus the driver layer's
/// opaque payloads, round-tripped verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The effective scenario header (owned and interpreted by the driver).
    pub scenario: Json,
    /// Driver payload (accumulated trajectory, engine identity, …).
    pub driver: Json,
    /// Completed rounds at capture time — the round the resumed run
    /// continues from.
    pub round: u64,
    /// The captured engine.
    pub engine: EngineState,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Renders `snapshot` into the line-delimited text form.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = Vec::new();
    render_into(snapshot, &mut out);
    // Every byte is ASCII or comes from a `Json` string, so this never
    // falls back.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Appends the line-delimited text form of `snapshot` to `out`, one
/// [`LineWriter`] record per line. Callers that publish repeatedly (the
/// driver's rotating checkpoint) clear and reuse one buffer.
pub fn render_into(snapshot: &Snapshot, out: &mut Vec<u8>) {
    out.reserve(capacity_hint(snapshot));
    let mut w = LineWriter::record(out, "header");
    w.key("version").u64(SNAPSHOT_VERSION);
    w.key("scenario").json(&snapshot.scenario);
    w.end();
    out.push(b'\n');

    let mut w = LineWriter::record(out, "run");
    w.key("round").u64(snapshot.round);
    w.key("driver").json(&snapshot.driver);
    w.end();
    out.push(b'\n');
    let mut records = 1usize;

    let twin = &snapshot.engine.twin;
    let mut w = LineWriter::record(out, "twin");
    w.key("round").u64(twin.round);
    w.key("min_load_seen").f64_bits(twin.min_load_seen);
    w.key("loads").f64s_bits(&twin.loads);
    w.key("cumulative_flow").f64s_bits(&twin.cumulative_flow);
    w.end();
    out.push(b'\n');
    records += 1;

    if let Some(history) = &twin.history {
        let mut w = LineWriter::record(out, "history");
        w.key("beta").f64_bits(history.beta);
        w.key("has_previous").bool(history.has_previous);
        w.key("previous").u64_rows(&history.previous, |flow| {
            [flow.forward.to_bits(), flow.backward.to_bits()]
        });
        w.end();
        out.push(b'\n');
        records += 1;
    }

    let mut tasks = 0u64;
    match &snapshot.engine.discrete {
        DiscreteState::Alg1(alg1) => {
            let mut w = LineWriter::record(out, "alg1");
            w.key("round").u64(snapshot.engine.round);
            w.key("wmax").u64(alg1.wmax);
            w.key("dummy_created").u64(alg1.dummy_created);
            w.key("items_sent").u64(alg1.items_sent);
            w.key("arrived_weight").u64(alg1.arrived_weight);
            w.key("completed_weight").u64(alg1.completed_weight);
            w.key("dummy").u64s(&alg1.dummy);
            w.key("discrete_flow").i64s(&alg1.discrete_flow);
            w.end();
            out.push(b'\n');
            records += 1;
            for (node, queue) in alg1.queues.iter().enumerate() {
                let mut w = LineWriter::record(out, "queue");
                w.key("node").u64(u64_exact(node));
                w.key("next_seq").u64(queue.next_seq);
                w.key("entries").list(&queue.entries, |w, &(seq, task)| {
                    w.open_array()
                        .u64(seq)
                        .u64(task.id().0)
                        .u64(task.weight())
                        .bool(task.is_dummy())
                        .close_array();
                });
                w.end();
                out.push(b'\n');
                records += 1;
                tasks += u64_exact(queue.entries.len());
            }
        }
        DiscreteState::Alg2(alg2) => {
            let mut w = LineWriter::record(out, "alg2");
            w.key("round").u64(snapshot.engine.round);
            w.key("seed").u64(alg2.seed);
            w.key("dummy_created").u64(alg2.dummy_created);
            w.key("arrived_weight").u64(alg2.arrived_weight);
            w.key("completed_weight").u64(alg2.completed_weight);
            w.key("tokens").u64s(&alg2.tokens);
            w.key("dummy").u64s(&alg2.dummy);
            w.key("discrete_flow").i64s(&alg2.discrete_flow);
            w.end();
            out.push(b'\n');
            records += 1;
        }
    }

    let mut w = LineWriter::record(out, "end");
    w.key("records").u64(u64_exact(records));
    w.key("tasks").u64(tasks);
    w.end();
    out.push(b'\n');
}

/// An upper estimate of the rendered size: at most 21 bytes per bulk
/// integer (20 digits and a separator, or a sign), so a fresh buffer grows
/// once instead of doubling its way up.
fn capacity_hint(snapshot: &Snapshot) -> usize {
    const PER_VALUE: usize = 21;
    const PER_LINE: usize = 256;
    let twin = &snapshot.engine.twin;
    let history = twin.history.as_ref().map_or(0, |h| 2 * h.previous.len());
    let (values, lines) = match &snapshot.engine.discrete {
        DiscreteState::Alg1(alg1) => {
            let entries: usize = alg1.queues.iter().map(|q| q.entries.len()).sum();
            (
                alg1.dummy.len() + alg1.discrete_flow.len() + 4 * entries,
                alg1.queues.len(),
            )
        }
        DiscreteState::Alg2(alg2) => (
            alg2.tokens.len() + alg2.dummy.len() + alg2.discrete_flow.len(),
            0,
        ),
    };
    let values = values + twin.loads.len() + twin.cumulative_flow.len() + history;
    PER_VALUE * values + PER_LINE * (lines + 8)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Parses a snapshot from its line-delimited text form, validating the
/// version, the record sequence and the end record's totals. Each record
/// is read in the writer's field order by one [`LineScanner`] pass.
///
/// # Errors
///
/// Every malformed input maps to a specific [`SnapshotError`]: bad records
/// are located by line (and the reason by byte), a flipped version is
/// [`SnapshotError::Version`], a missing end record or a mid-line torn
/// write is [`SnapshotError::Truncated`].
pub fn parse(text: &str) -> Result<Snapshot, SnapshotError> {
    if text.is_empty() {
        return Err(SnapshotError::Truncated {
            line: 1,
            reason: "empty snapshot".into(),
        });
    }
    let line_count = text.lines().count();
    if !text.ends_with('\n') {
        return Err(SnapshotError::Truncated {
            line: line_count,
            reason: "torn line (the file ends mid-record, without a newline)".into(),
        });
    }
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(idx, line)| (idx + 1, line))
        .filter(|(_, line)| !line.trim().is_empty());

    // Header.
    let (line, header) = lines.next().ok_or(SnapshotError::Truncated {
        line: 1,
        reason: "empty snapshot".into(),
    })?;
    let at = |e: ScanError| SnapshotError::corrupt(line, e.to_string());
    let mut scan = LineScanner::new(header);
    if scan.kind().map_err(at)? != "header" {
        return Err(SnapshotError::corrupt(
            line,
            "expected the snapshot header record",
        ));
    }
    match scan.field_u64("version").map_err(at)? {
        SNAPSHOT_VERSION => {}
        found => return Err(SnapshotError::Version { line, found }),
    }
    let scenario = scan.field_json("scenario").map_err(at)?;
    scan.finish().map_err(at)?;

    // Body: run → twin → [history] → alg1 + queues | alg2 → end.
    let mut run: Option<(u64, Json)> = None;
    let mut twin: Option<TwinState> = None;
    let mut alg1: Option<(u64, Alg1State)> = None;
    let mut alg2: Option<(u64, Alg2State)> = None;
    let mut records = 0usize;
    let mut tasks = 0u64;
    let mut sealed = false;
    let mut last_line = line;
    for (line, text) in lines {
        last_line = line;
        if sealed {
            return Err(SnapshotError::corrupt(line, "content after the end record"));
        }
        let at = |e: ScanError| SnapshotError::corrupt(line, e.to_string());
        let mut scan = LineScanner::new(text);
        let kind = scan.kind().map_err(at)?;
        match kind {
            "run" => {
                if run.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate run record"));
                }
                let round = scan.field_u64("round").map_err(at)?;
                let driver = scan.field_json("driver").map_err(at)?;
                run = Some((round, driver));
            }
            "twin" => {
                if twin.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate twin record"));
                }
                let round = scan.field_u64("round").map_err(at)?;
                let min_load_seen = scan.field_f64_bits("min_load_seen").map_err(at)?;
                let loads = scan.field_f64s_bits("loads").map_err(at)?;
                let cumulative_flow = scan.field_f64s_bits("cumulative_flow").map_err(at)?;
                twin = Some(TwinState {
                    round,
                    loads,
                    cumulative_flow,
                    min_load_seen,
                    history: None,
                });
            }
            "history" => {
                let twin = twin.as_mut().ok_or_else(|| {
                    SnapshotError::corrupt(line, "history record before the twin record")
                })?;
                if twin.history.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate history record"));
                }
                let beta = scan.field_f64_bits("beta").map_err(at)?;
                let has_previous = scan.field_bool("has_previous").map_err(at)?;
                let previous = scan
                    .field_u64_rows("previous", |[forward, backward]| {
                        EdgeFlow::new(f64::from_bits(forward), f64::from_bits(backward))
                    })
                    .map_err(at)?;
                twin.history = Some(ProcessHistory {
                    beta,
                    previous,
                    has_previous,
                });
            }
            "alg1" => {
                if alg1.is_some() || alg2.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate engine record"));
                }
                let round = scan.field_u64("round").map_err(at)?;
                let wmax = scan.field_u64("wmax").map_err(at)?;
                let dummy_created = scan.field_u64("dummy_created").map_err(at)?;
                let items_sent = scan.field_u64("items_sent").map_err(at)?;
                let arrived_weight = scan.field_u64("arrived_weight").map_err(at)?;
                let completed_weight = scan.field_u64("completed_weight").map_err(at)?;
                let dummy = scan.field_u64s("dummy").map_err(at)?;
                let discrete_flow = scan.field_i64s("discrete_flow").map_err(at)?;
                alg1 = Some((
                    round,
                    Alg1State {
                        queues: Vec::new(),
                        dummy,
                        discrete_flow,
                        wmax,
                        dummy_created,
                        items_sent,
                        arrived_weight,
                        completed_weight,
                    },
                ));
            }
            "queue" => {
                let (_, alg1) = alg1.as_mut().ok_or_else(|| {
                    SnapshotError::corrupt(line, "queue record before the alg1 record")
                })?;
                let node = usize_exact(scan.field_u64("node").map_err(at)?).ok_or_else(|| {
                    SnapshotError::corrupt(line, "queue node index exceeds this platform")
                })?;
                if node != alg1.queues.len() {
                    return Err(SnapshotError::corrupt(
                        line,
                        format!(
                            "queue records must cover nodes in order: got node {node}, \
                             expected {}",
                            alg1.queues.len()
                        ),
                    ));
                }
                let next_seq = scan.field_u64("next_seq").map_err(at)?;
                let entries = scan
                    .field_list("entries", |scan| {
                        scan.open_array()?;
                        let (seq, id, weight) = (scan.u64()?, scan.u64()?, scan.u64()?);
                        let dummy = scan.bool()?;
                        scan.close_array()?;
                        let task = match (dummy, weight) {
                            (true, 1) => Task::dummy(TaskId(id)),
                            (true, _) => return Err(scan.fail("dummy tasks must have unit weight")),
                            (false, 0) => return Err(scan.fail("task weight must be positive")),
                            (false, weight) => Task::new(TaskId(id), weight),
                        };
                        Ok((seq, task))
                    })
                    .map_err(at)?;
                tasks += u64_exact(entries.len());
                alg1.queues.push(QueueState { next_seq, entries });
            }
            "alg2" => {
                if alg1.is_some() || alg2.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate engine record"));
                }
                let round = scan.field_u64("round").map_err(at)?;
                let seed = scan.field_u64("seed").map_err(at)?;
                let dummy_created = scan.field_u64("dummy_created").map_err(at)?;
                let arrived_weight = scan.field_u64("arrived_weight").map_err(at)?;
                let completed_weight = scan.field_u64("completed_weight").map_err(at)?;
                let tokens = scan.field_u64s("tokens").map_err(at)?;
                let dummy = scan.field_u64s("dummy").map_err(at)?;
                let discrete_flow = scan.field_i64s("discrete_flow").map_err(at)?;
                alg2 = Some((
                    round,
                    Alg2State {
                        tokens,
                        dummy,
                        discrete_flow,
                        seed,
                        dummy_created,
                        arrived_weight,
                        completed_weight,
                    },
                ));
            }
            "end" => {
                let declared_records = scan.field_u64("records").map_err(at)?;
                let declared_tasks = scan.field_u64("tasks").map_err(at)?;
                if declared_records != u64_exact(records) || declared_tasks != tasks {
                    return Err(SnapshotError::corrupt(
                        line,
                        format!(
                            "end record declares {declared_records} record(s) / \
                             {declared_tasks} task(s) but the snapshot carries \
                             {records} / {tasks}"
                        ),
                    ));
                }
                sealed = true;
            }
            "header" => {
                return Err(SnapshotError::corrupt(line, "unexpected header record"));
            }
            other => {
                return Err(SnapshotError::corrupt(
                    line,
                    format!("unknown record kind {other:?}"),
                ));
            }
        }
        scan.finish().map_err(at)?;
        if !sealed {
            records += 1; // the end record itself is not counted
        }
    }
    if !sealed {
        return Err(SnapshotError::Truncated {
            line: last_line,
            reason: "snapshot ends without the end record".into(),
        });
    }
    let (round, driver) =
        run.ok_or_else(|| SnapshotError::corrupt(last_line, "snapshot has no run record"))?;
    let twin =
        twin.ok_or_else(|| SnapshotError::corrupt(last_line, "snapshot has no twin record"))?;
    let (engine_round, discrete) = match (alg1, alg2) {
        (Some((round, state)), None) => (round, DiscreteState::Alg1(state)),
        (None, Some((round, state))) => (round, DiscreteState::Alg2(state)),
        _ => {
            return Err(SnapshotError::corrupt(
                last_line,
                "snapshot has no engine record",
            ))
        }
    };
    if let DiscreteState::Alg1(alg1) = &discrete {
        if alg1.queues.len() != alg1.dummy.len() {
            return Err(SnapshotError::corrupt(
                last_line,
                format!(
                    "snapshot carries {} queue record(s) for {} node(s)",
                    alg1.queues.len(),
                    alg1.dummy.len()
                ),
            ));
        }
    }
    Ok(Snapshot {
        scenario,
        driver,
        round,
        engine: EngineState {
            round: engine_round,
            twin,
            discrete,
        },
    })
}

/// Reads and parses the snapshot file at `path`.
///
/// # Errors
///
/// I/O failures surface as [`SnapshotError::Io`]; malformed content as the
/// located variants of [`SnapshotError`].
pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    parse(&text)
}

/// Renders `snapshot` and atomically writes it to `path` (see
/// [`write_bytes_atomic`]).
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] naming the path on failure.
pub fn write_atomic(path: impl AsRef<Path>, snapshot: &Snapshot) -> Result<(), SnapshotError> {
    write_atomic_with(path, snapshot, &mut Vec::new())
}

/// [`write_atomic`] rendering into `buf` (cleared first), so a caller that
/// publishes a rotating checkpoint reuses one buffer across publications.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] naming the path on failure.
pub fn write_atomic_with(
    path: impl AsRef<Path>,
    snapshot: &Snapshot,
    buf: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    buf.clear();
    render_into(snapshot, buf);
    write_bytes_atomic(path, buf).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            scenario: Json::obj([("name", Json::from("s")), ("seed", Json::from(7u64))]),
            driver: Json::obj([("engine", Json::from("alg1(fos)"))]),
            round: 12,
            engine: EngineState {
                round: 12,
                twin: TwinState {
                    round: 5,
                    loads: vec![1.5, -0.0, f64::MIN_POSITIVE],
                    cumulative_flow: vec![0.1 + 0.2], // not exactly 0.3: bit test
                    min_load_seen: -3.25,
                    history: Some(ProcessHistory {
                        beta: 1.804217,
                        previous: vec![EdgeFlow::new(0.25, 1.75)],
                        has_previous: true,
                    }),
                },
                discrete: DiscreteState::Alg1(Alg1State {
                    queues: vec![
                        QueueState {
                            next_seq: 9,
                            entries: vec![
                                (3, Task::new(TaskId(100), 2)),
                                (7, Task::dummy(TaskId(4))),
                            ],
                        },
                        QueueState {
                            next_seq: 0,
                            entries: Vec::new(),
                        },
                        QueueState {
                            next_seq: 2,
                            entries: vec![(1, Task::new(TaskId((1 << 60) + 3), 1))],
                        },
                    ],
                    dummy: vec![0, 2, 1],
                    discrete_flow: vec![-4, 0, 17],
                    wmax: 2,
                    dummy_created: 3,
                    items_sent: 40,
                    arrived_weight: 12,
                    completed_weight: 9,
                }),
            },
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let snapshot = sample();
        let text = render(&snapshot);
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed, snapshot);
        // f64 state survives as bits, not decimal text.
        let twin = &parsed.engine.twin;
        assert_eq!(twin.loads[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(twin.cumulative_flow[0].to_bits(), (0.1 + 0.2f64).to_bits());
        // Re-rendering is byte-identical.
        assert_eq!(render(&parsed), text);
    }

    #[test]
    fn alg2_round_trips() {
        let mut snapshot = sample();
        snapshot.engine.twin.history = None;
        snapshot.engine.discrete = DiscreteState::Alg2(Alg2State {
            tokens: vec![5, 0, 2],
            dummy: vec![1, 0, 0],
            discrete_flow: vec![2, -2, 0],
            seed: (1 << 60) + 9,
            dummy_created: 1,
            arrived_weight: 4,
            completed_weight: 2,
        });
        let text = render(&snapshot);
        assert_eq!(parse(&text).expect("parses"), snapshot);
    }

    /// Golden bytes for an Algorithm 1 state: the rendered form is pinned
    /// literally, not only as a parse/render fixpoint, so the writer and the
    /// reader cannot drift together. Covers FIFO queue records with a dummy
    /// task, `-0.0`, a subnormal, task ids at and above 2^63 and negative
    /// ledger entries.
    #[test]
    fn alg1_render_is_pinned_byte_for_byte() {
        let snapshot = Snapshot {
            scenario: Json::obj([
                ("name", Json::from("golden")),
                ("seed", Json::from(u64::MAX)),
            ]),
            driver: Json::obj([
                ("engine", Json::from("alg1(fos)")),
                ("trajectory", Json::Arr(vec![Json::from(-7i64)])),
            ]),
            round: 4,
            engine: EngineState {
                round: 4,
                twin: TwinState {
                    round: 4,
                    loads: vec![-0.0, f64::from_bits(1), 2.5],
                    cumulative_flow: vec![-1.25, 0.1 + 0.2],
                    min_load_seen: 0.0,
                    history: None,
                },
                discrete: DiscreteState::Alg1(Alg1State {
                    queues: vec![
                        QueueState {
                            next_seq: 3,
                            entries: vec![
                                (0, Task::new(TaskId(1 << 63), 2)),
                                (2, Task::dummy(TaskId(u64::MAX))),
                            ],
                        },
                        QueueState {
                            next_seq: 0,
                            entries: Vec::new(),
                        },
                        QueueState {
                            next_seq: u64::MAX,
                            entries: vec![(u64::MAX - 1, Task::new(TaskId(0), u64::MAX))],
                        },
                    ],
                    dummy: vec![1, 0, 10],
                    discrete_flow: vec![-3, i64::MIN, i64::MAX, 0],
                    wmax: u64::MAX,
                    dummy_created: 1,
                    items_sent: 99,
                    arrived_weight: 100,
                    completed_weight: 10,
                }),
            },
        };
        assert_eq!(
            render(&snapshot),
            concat!(
                r#"{"kind":"header","version":1,"scenario":{"name":"golden","seed":18446744073709551615}}"#,
                "\n",
                r#"{"kind":"run","round":4,"driver":{"engine":"alg1(fos)","trajectory":[-7]}}"#,
                "\n",
                r#"{"kind":"twin","round":4,"min_load_seen":0,"loads":[9223372036854775808,1,4612811918334230528],"cumulative_flow":[13831680355561635840,4599075939470750516]}"#,
                "\n",
                r#"{"kind":"alg1","round":4,"wmax":18446744073709551615,"dummy_created":1,"items_sent":99,"arrived_weight":100,"completed_weight":10,"dummy":[1,0,10],"discrete_flow":[-3,-9223372036854775808,9223372036854775807,0]}"#,
                "\n",
                r#"{"kind":"queue","node":0,"next_seq":3,"entries":[[0,9223372036854775808,2,false],[2,18446744073709551615,1,true]]}"#,
                "\n",
                r#"{"kind":"queue","node":1,"next_seq":0,"entries":[]}"#,
                "\n",
                r#"{"kind":"queue","node":2,"next_seq":18446744073709551615,"entries":[[18446744073709551614,0,18446744073709551615,false]]}"#,
                "\n",
                r#"{"kind":"end","records":6,"tasks":3}"#,
                "\n",
            )
        );
    }

    /// Golden bytes for an Algorithm 2 state over an SOS twin (history
    /// record included).
    #[test]
    fn alg2_sos_render_is_pinned_byte_for_byte() {
        let snapshot = Snapshot {
            scenario: Json::obj([("name", Json::from("golden2"))]),
            driver: Json::Null,
            round: 9,
            engine: EngineState {
                round: 9,
                twin: TwinState {
                    round: 2,
                    loads: vec![1.0, f64::MAX, f64::MIN_POSITIVE],
                    cumulative_flow: vec![f64::INFINITY, -0.5],
                    min_load_seen: -3.25,
                    history: Some(ProcessHistory {
                        beta: 1.804217,
                        previous: vec![EdgeFlow::new(0.25, -0.0), EdgeFlow::new(0.0, 1e-310)],
                        has_previous: false,
                    }),
                },
                discrete: DiscreteState::Alg2(Alg2State {
                    tokens: vec![5, 0, u64::MAX],
                    dummy: vec![1, 0, 0],
                    discrete_flow: vec![2, -2],
                    seed: (1 << 60) + 9,
                    dummy_created: 1,
                    arrived_weight: 4,
                    completed_weight: 2,
                }),
            },
        };
        assert_eq!(
            render(&snapshot),
            concat!(
                r#"{"kind":"header","version":1,"scenario":{"name":"golden2"}}"#,
                "\n",
                r#"{"kind":"run","round":9,"driver":null}"#,
                "\n",
                r#"{"kind":"twin","round":2,"min_load_seen":13837872805049270272,"loads":[4607182418800017408,9218868437227405311,4503599627370496],"cumulative_flow":[9218868437227405312,13826050856027422720]}"#,
                "\n",
                r#"{"kind":"history","beta":4610804290181542426,"has_previous":false,"previous":[[4598175219545276416,9223372036854775808],[0,20240225330731]]}"#,
                "\n",
                r#"{"kind":"alg2","round":9,"seed":1152921504606846985,"dummy_created":1,"arrived_weight":4,"completed_weight":2,"tokens":[5,0,18446744073709551615],"dummy":[1,0,0],"discrete_flow":[2,-2]}"#,
                "\n",
                r#"{"kind":"end","records":4,"tasks":0}"#,
                "\n",
            )
        );
    }

    #[test]
    fn truncation_and_torn_writes_fail_loudly() {
        let text = render(&sample());
        // Drop the end record.
        let without_end: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        match parse(&without_end) {
            Err(SnapshotError::Truncated { reason, .. }) => {
                assert!(reason.contains("end record"), "{reason}")
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Mid-line torn write: cut the file in the middle of a record.
        let cut = text.rfind("\"kind\":\"queue\"").unwrap() + 8;
        let torn = &text[..cut];
        match parse(torn) {
            Err(SnapshotError::Truncated { reason, .. }) => {
                assert!(reason.contains("torn"), "{reason}")
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn flipped_version_is_a_version_error() {
        let text = render(&sample()).replace("\"version\":1", "\"version\":2");
        match parse(&text) {
            Err(SnapshotError::Version { found: 2, line: 1 }) => {}
            other => panic!("expected Version, got {other:?}"),
        }
    }

    #[test]
    fn edited_totals_are_corrupt() {
        let text = render(&sample()).replace("\"tasks\":3", "\"tasks\":4");
        match parse(&text) {
            Err(SnapshotError::Corrupt { reason, .. }) => {
                assert!(reason.contains("declares"), "{reason}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_round_trips_and_cleans_up() {
        let path = lb_analysis::artifact::unique_temp_path("lb_snapshot_unit.snap.jsonl");
        let snapshot = sample();
        write_atomic(&path, &snapshot).expect("writes");
        // Overwrite with a second snapshot: rename replaces atomically.
        let mut second = snapshot.clone();
        second.round = 13;
        write_atomic(&path, &second).expect("overwrites");
        assert_eq!(load(&path).expect("loads"), second);
        // No temp file lingers.
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("lb_snapshot_unit"))
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_names_the_failure() {
        let err = SnapshotError::Version { line: 1, found: 9 };
        assert!(err.to_string().contains("version 9"));
        let err = SnapshotError::corrupt(4, "bad");
        assert!(err.to_string().contains("line 4"));
        let err = SnapshotError::mismatch("wrong engine");
        assert!(err.to_string().contains("wrong engine"));
    }
}
