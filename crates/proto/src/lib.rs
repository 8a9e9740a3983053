//! # lb-proto
//!
//! The versioned, line-delimited wire protocol shared by every socket
//! front-end of the workspace: one JSON record per line, client speaks
//! first, every record carries a `"kind"` tag. This crate owns the **single
//! parse/emit surface** — [`Record::parse`] and [`Record::render`] — so the
//! server and client sides of `lb serve`, `lb serve-trace --connect` and
//! `lb federate` can never drift apart on framing.
//!
//! ## Versions
//!
//! * **v1** ([`PROTOCOL_V1`]) — the trace-ingest handshake spoken by
//!   `lb serve`: [`Record::Hello`], [`Record::Header`], [`Record::Welcome`],
//!   [`Record::Reject`]. The byte layout matches the records `lb serve` has
//!   always spoken, so v1 clients and servers interoperate unchanged.
//! * **v2** ([`PROTOCOL_V2`]) — the federation round-synchronization
//!   protocol layered on the same framing: a coordinator drives `parts`
//!   worker processes through per-round barrier and exchange records
//!   ([`Record::Join`] through [`Record::Abort`]). v2 extends v1 — a v2
//!   listener still accepts v1 ingest handshakes.
//!
//! ## Determinism
//!
//! Every `f64` travels as its IEEE-754 bit pattern inside a JSON integer
//! (never as a decimal float), so a value crosses a process boundary
//! bit-identically. Rendering is insertion-ordered and stable: the same
//! record always renders to the same bytes.
//!
//! ## Encoding
//!
//! The bulk v2 records — [`Record::Loads`], [`Record::Flows`],
//! [`Record::Sends`], [`Record::Deliver`] and [`Record::Sample`] — carry one
//! integer per element and go through the exact-integer line codec
//! ([`lb_analysis::codec`]): [`Record::render_into`] appends them straight
//! into a caller-owned buffer, and [`Record::parse`] reads them in one pass
//! **in the writer's field order**, with byte-located errors. Control
//! records are small and stay [`Json`] trees, so their fields may come in
//! any order. Both render the same bytes a [`Json`] tree would.
//!
//! Semantic validation — protocol-version checks, scenario authentication,
//! rank bounds — is deliberately **not** done here: [`Record::parse`] checks
//! structure only and hands the typed record to the caller, which owns the
//! policy (and its error strings).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use lb_analysis::codec::{LineScanner, LineWriter, ScanError};
use lb_analysis::Json;
use std::error::Error;
use std::fmt;

/// Protocol version of the trace-ingest handshake (`lb serve`).
pub const PROTOCOL_V1: u64 = 1;

/// Protocol version of the federation round protocol (`lb federate`).
pub const PROTOCOL_V2: u64 = 2;

/// Errors produced while parsing a wire record.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The line is not valid JSON, or a required field is missing or of the
    /// wrong type.
    Malformed {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The line parses as JSON but its `kind` tag names no known record.
    UnknownKind {
        /// The unrecognized kind tag.
        kind: String,
    },
}

impl ProtoError {
    fn malformed(reason: impl Into<String>) -> Self {
        ProtoError::Malformed {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Malformed { reason } => write!(f, "{reason}"),
            ProtoError::UnknownKind { kind } => write!(f, "unknown record kind {kind:?}"),
        }
    }
}

impl Error for ProtoError {}

/// One real-task delivery crossing a partition boundary: the canonical edge
/// it travelled, the receiving node, and the task's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTask {
    /// Canonical edge the task moved over (global edge id).
    pub edge: u64,
    /// Receiving node (global node id).
    pub node: u64,
    /// Task identity.
    pub id: u64,
    /// Task weight.
    pub weight: u64,
    /// True for dummy tokens drawn from the infinite source.
    pub dummy: bool,
}

/// One partition's outgoing cross-partition effects for a round, as they
/// travel on the wire. Mirrors `lb_core::SendBatch` field by field, with
/// global ids throughout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireBatch {
    /// Real-task deliveries, in the sender's canonical edge order.
    pub tasks: Vec<WireTask>,
    /// Aggregate dummy-unit deliveries per receiving node (Algorithm 1).
    pub dummy: Vec<(u64, u64)>,
    /// `(node, real, dummy)` token deliveries per receiving node
    /// (Algorithm 2).
    pub tokens: Vec<(u64, u64, u64)>,
    /// `(edge, delta)` discrete-flow ledger updates for crossing edges.
    pub deltas: Vec<(u64, i64)>,
}

/// A parsed wire record: every line either side of any `lb` socket speaks.
///
/// The v1 records carry the ingest handshake; the v2 records carry the
/// federation round protocol. See the [crate docs](self) for the flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Record {
    // -- v1: trace-ingest handshake ------------------------------------
    /// Client → server greeting opening an ingest connection.
    Hello {
        /// Protocol version the client speaks.
        version: u64,
        /// Feed name the connection claims.
        feed: String,
    },
    /// The trace header: version plus the embedded scenario (opaque here;
    /// the server authenticates it against its own).
    Header {
        /// Trace format version.
        version: u64,
        /// The scenario document the trace was recorded from.
        scenario: Json,
    },
    /// Server → client acceptance of a feed.
    Welcome {
        /// Protocol version the server speaks.
        version: u64,
        /// The admitted feed name.
        feed: String,
        /// Last round already admitted from this feed (reconnects resume
        /// strictly after it); `None` for a fresh feed.
        last_round: Option<u64>,
    },
    /// Server → client refusal; the connection is dropped afterwards.
    Reject {
        /// Protocol version the server speaks.
        version: u64,
        /// Why the handshake was refused.
        error: String,
    },
    // -- v2: federation round protocol ---------------------------------
    /// Worker → coordinator greeting: claims one partition rank.
    Join {
        /// Protocol version the worker speaks (v2).
        version: u64,
        /// Partition rank this worker claims.
        rank: u64,
        /// Partition count the worker was launched for.
        parts: u64,
    },
    /// Coordinator → worker: the effective scenario and run shape; the
    /// worker builds its engine from this and nothing else.
    Start {
        /// The effective scenario document (seed and federation overrides
        /// already applied).
        scenario: Json,
        /// Number of partitions in the run.
        parts: u64,
        /// Intra-partition shard count each worker should use.
        shards: u64,
        /// Checkpoint cadence in rounds; `None` disables checkpointing.
        checkpoint_every: Option<u64>,
    },
    /// Coordinator → worker round barrier: all workers proceed into
    /// `round` together.
    Round {
        /// The round about to execute.
        round: u64,
    },
    /// Boundary-node twin loads, as `(node, f64-bits)` entries. Workers
    /// send their own boundary (rank-tagged); the coordinator broadcasts
    /// the combined list (`rank: None`).
    Loads {
        /// Sending worker's rank, or `None` for the coordinator's combined
        /// broadcast.
        rank: Option<u64>,
        /// `(global node id, IEEE-754 bits of the twin load)`.
        entries: Vec<(u64, u64)>,
    },
    /// Crossing-edge kernel flows, as `(edge, forward-bits, backward-bits)`
    /// entries; same gather/broadcast shape as [`Record::Loads`].
    Flows {
        /// Sending worker's rank, or `None` for the coordinator's combined
        /// broadcast.
        rank: Option<u64>,
        /// `(global edge id, forward flow bits, backward flow bits)`.
        entries: Vec<(u64, u64, u64)>,
    },
    /// Worker → coordinator: this partition's outgoing cross-partition
    /// deliveries for the round.
    Sends {
        /// Sending worker's rank.
        rank: u64,
        /// The outgoing batch.
        batch: WireBatch,
    },
    /// Coordinator → worker: every partition's batch for the round, rank-
    /// tagged, so each worker merges deliveries in global edge order.
    Deliver {
        /// `(rank, batch)` for every partition, in rank order.
        batches: Vec<(u64, WireBatch)>,
    },
    /// Worker → coordinator: this partition's slice of a round sample.
    Sample {
        /// Sending worker's rank.
        rank: u64,
        /// The sampled round.
        round: u64,
        /// Owned-range total loads, as IEEE-754 bits, in node order.
        loads: Vec<u64>,
        /// Owned-range real (non-dummy) loads, as IEEE-754 bits.
        real: Vec<u64>,
        /// Partition's dummy-load partial sum.
        dummy_load: u64,
        /// Partition's arrived-weight partial sum.
        arrived: u64,
        /// Partition's completed-weight partial sum.
        completed: u64,
    },
    /// Worker → coordinator: a full rendered snapshot of this partition's
    /// engine (foreign entries stale), for churn reassembly and
    /// checkpoints.
    State {
        /// Sending worker's rank.
        rank: u64,
        /// The round the state was captured at.
        round: u64,
        /// The rendered snapshot document.
        snapshot: String,
    },
    /// Coordinator → worker: the assembled full snapshot every worker
    /// restores from before continuing.
    Restore {
        /// The round the assembled state belongs to.
        round: u64,
        /// The rendered snapshot document.
        snapshot: String,
    },
    /// Coordinator → worker: the run is complete; reply with
    /// [`Record::Done`] and exit.
    Finish,
    /// Worker → coordinator: final per-partition totals.
    Done {
        /// Replying worker's rank.
        rank: u64,
        /// Partition's dummy-created partial sum.
        dummy_created: u64,
        /// The engine name the worker ran (e.g. `alg1(fos)`).
        engine: String,
    },
    /// Either direction: the sender hit a fatal error and is going away.
    Abort {
        /// What went wrong.
        error: String,
    },
}

impl Record {
    /// The `kind` tag this record renders with.
    pub fn kind(&self) -> &'static str {
        match self {
            Record::Hello { .. } => "hello",
            Record::Header { .. } => "header",
            Record::Welcome { .. } => "welcome",
            Record::Reject { .. } => "reject",
            Record::Join { .. } => "join",
            Record::Start { .. } => "start",
            Record::Round { .. } => "round",
            Record::Loads { .. } => "loads",
            Record::Flows { .. } => "flows",
            Record::Sends { .. } => "sends",
            Record::Deliver { .. } => "deliver",
            Record::Sample { .. } => "sample",
            Record::State { .. } => "state",
            Record::Restore { .. } => "restore",
            Record::Finish => "finish",
            Record::Done { .. } => "done",
            Record::Abort { .. } => "abort",
        }
    }

    /// Parses one wire line into a typed record.
    ///
    /// Structural validation only: required fields must be present and
    /// well-typed, but no version or policy checks happen here. Bulk
    /// records are read by one [`LineScanner`] pass in the writer's field
    /// order; control records are parsed as a [`Json`] tree.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] for bad JSON or missing/mistyped fields
    /// (located by byte for bulk records), [`ProtoError::UnknownKind`] for
    /// an unrecognized `kind` tag.
    pub fn parse(line: &str) -> Result<Record, ProtoError> {
        let mut scan = LineScanner::new(line);
        if let Ok(kind @ ("loads" | "flows" | "sends" | "deliver" | "sample")) = scan.kind() {
            return parse_bulk(kind, &mut scan)
                .map_err(|e| ProtoError::malformed(format!("{kind} record: {e}")));
        }
        let json = Json::parse(line).map_err(ProtoError::malformed)?;
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::malformed("record has no kind tag"))?;
        match kind {
            "hello" => Ok(Record::Hello {
                version: u64_field(&json, "hello", "version")?,
                feed: str_field(&json, "hello", "feed")?,
            }),
            "header" => Ok(Record::Header {
                version: u64_field(&json, "trace header", "version")?,
                scenario: json
                    .get("scenario")
                    .cloned()
                    .ok_or_else(|| ProtoError::malformed("trace header has no scenario"))?,
            }),
            "welcome" => Ok(Record::Welcome {
                version: u64_field(&json, "welcome", "version")?,
                feed: str_field(&json, "welcome", "feed")?,
                last_round: opt_u64_field(&json, "welcome", "last_round")?,
            }),
            "reject" => Ok(Record::Reject {
                version: u64_field(&json, "reject", "version")?,
                error: str_field(&json, "reject", "error")?,
            }),
            "join" => Ok(Record::Join {
                version: u64_field(&json, "join", "version")?,
                rank: u64_field(&json, "join", "rank")?,
                parts: u64_field(&json, "join", "parts")?,
            }),
            "start" => Ok(Record::Start {
                scenario: json
                    .get("scenario")
                    .cloned()
                    .ok_or_else(|| ProtoError::malformed("start has no scenario"))?,
                parts: u64_field(&json, "start", "parts")?,
                shards: u64_field(&json, "start", "shards")?,
                checkpoint_every: opt_u64_field(&json, "start", "checkpoint_every")?,
            }),
            "round" => Ok(Record::Round {
                round: u64_field(&json, "round", "round")?,
            }),
            "state" => Ok(Record::State {
                rank: u64_field(&json, "state", "rank")?,
                round: u64_field(&json, "state", "round")?,
                snapshot: str_field(&json, "state", "snapshot")?,
            }),
            "restore" => Ok(Record::Restore {
                round: u64_field(&json, "restore", "round")?,
                snapshot: str_field(&json, "restore", "snapshot")?,
            }),
            "finish" => Ok(Record::Finish),
            "done" => Ok(Record::Done {
                rank: u64_field(&json, "done", "rank")?,
                dummy_created: u64_field(&json, "done", "dummy_created")?,
                engine: str_field(&json, "done", "engine")?,
            }),
            "abort" => Ok(Record::Abort {
                error: str_field(&json, "abort", "error")?,
            }),
            "loads" | "flows" | "sends" | "deliver" | "sample" => Err(ProtoError::malformed(
                format!("a {kind} record must lead with its \"kind\" field"),
            )),
            other => Err(ProtoError::UnknownKind {
                kind: other.to_string(),
            }),
        }
    }

    /// Renders the record to its one-line wire form (no trailing newline).
    ///
    /// Rendering is stable — the same record always produces the same
    /// bytes — and `parse(render(r)) == r` for every record.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.render_into(&mut out);
        // Every byte is ASCII or comes from a Rust string, so this never
        // falls back.
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Appends the record's one-line wire form (no trailing newline) to
    /// `out`: bulk records through one [`LineWriter`] pass, control records
    /// through [`Json`]. Same bytes as [`render`](Self::render).
    pub fn render_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.capacity_hint());
        let json = match self {
            Record::Loads { rank, entries } => {
                let mut w = LineWriter::record(out, "loads");
                w.key("rank").opt_u64(*rank);
                w.key("entries")
                    .u64_rows(entries, |&(node, bits)| [node, bits]);
                return w.end();
            }
            Record::Flows { rank, entries } => {
                let mut w = LineWriter::record(out, "flows");
                w.key("rank").opt_u64(*rank);
                w.key("entries")
                    .u64_rows(entries, |&(edge, f, b)| [edge, f, b]);
                return w.end();
            }
            Record::Sends { rank, batch } => {
                let mut w = LineWriter::record(out, "sends");
                w.key("rank").u64(*rank);
                write_batch(w.key("batch"), batch);
                return w.end();
            }
            Record::Deliver { batches } => {
                let mut w = LineWriter::record(out, "deliver");
                w.key("batches").list(batches, |w, (rank, batch)| {
                    w.open_object().key("rank").u64(*rank);
                    write_batch(w.key("batch"), batch);
                    w.close_object();
                });
                return w.end();
            }
            Record::Sample {
                rank,
                round,
                loads,
                real,
                dummy_load,
                arrived,
                completed,
            } => {
                let mut w = LineWriter::record(out, "sample");
                w.key("rank").u64(*rank);
                w.key("round").u64(*round);
                w.key("loads").u64s(loads);
                w.key("real").u64s(real);
                w.key("dummy_load").u64(*dummy_load);
                w.key("arrived").u64(*arrived);
                w.key("completed").u64(*completed);
                return w.end();
            }
            Record::Hello { version, feed } => Json::obj([
                ("kind", Json::from("hello")),
                ("version", Json::from(*version)),
                ("feed", Json::from(feed.as_str())),
            ]),
            Record::Header { version, scenario } => Json::obj([
                ("kind", Json::from("header")),
                ("version", Json::from(*version)),
                ("scenario", scenario.clone()),
            ]),
            Record::Welcome {
                version,
                feed,
                last_round,
            } => Json::obj([
                ("kind", Json::from("welcome")),
                ("version", Json::from(*version)),
                ("feed", Json::from(feed.as_str())),
                ("last_round", last_round.map_or(Json::Null, Json::from)),
            ]),
            Record::Reject { version, error } => Json::obj([
                ("kind", Json::from("reject")),
                ("version", Json::from(*version)),
                ("error", Json::from(error.as_str())),
            ]),
            Record::Join {
                version,
                rank,
                parts,
            } => Json::obj([
                ("kind", Json::from("join")),
                ("version", Json::from(*version)),
                ("rank", Json::from(*rank)),
                ("parts", Json::from(*parts)),
            ]),
            Record::Start {
                scenario,
                parts,
                shards,
                checkpoint_every,
            } => Json::obj([
                ("kind", Json::from("start")),
                ("scenario", scenario.clone()),
                ("parts", Json::from(*parts)),
                ("shards", Json::from(*shards)),
                (
                    "checkpoint_every",
                    checkpoint_every.map_or(Json::Null, Json::from),
                ),
            ]),
            Record::Round { round } => {
                Json::obj([("kind", Json::from("round")), ("round", Json::from(*round))])
            }
            Record::State {
                rank,
                round,
                snapshot,
            } => Json::obj([
                ("kind", Json::from("state")),
                ("rank", Json::from(*rank)),
                ("round", Json::from(*round)),
                ("snapshot", Json::from(snapshot.as_str())),
            ]),
            Record::Restore { round, snapshot } => Json::obj([
                ("kind", Json::from("restore")),
                ("round", Json::from(*round)),
                ("snapshot", Json::from(snapshot.as_str())),
            ]),
            Record::Finish => Json::obj([("kind", Json::from("finish"))]),
            Record::Done {
                rank,
                dummy_created,
                engine,
            } => Json::obj([
                ("kind", Json::from("done")),
                ("rank", Json::from(*rank)),
                ("dummy_created", Json::from(*dummy_created)),
                ("engine", Json::from(engine.as_str())),
            ]),
            Record::Abort { error } => Json::obj([
                ("kind", Json::from("abort")),
                ("error", Json::from(error.as_str())),
            ]),
        };
        out.extend_from_slice(json.render().as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Bulk records: the codec
// ---------------------------------------------------------------------------

impl Record {
    /// An upper estimate of a bulk record's rendered size (at most 24 bytes
    /// per integer with its separators), so the buffer grows once.
    fn capacity_hint(&self) -> usize {
        const PER_VALUE: usize = 24;
        let batch_values = |b: &WireBatch| {
            5 * b.tasks.len() + 2 * b.dummy.len() + 3 * b.tokens.len() + 2 * b.deltas.len()
        };
        let values = match self {
            Record::Loads { entries, .. } => 2 * entries.len(),
            Record::Flows { entries, .. } => 3 * entries.len(),
            Record::Sends { batch, .. } => batch_values(batch),
            Record::Deliver { batches } => batches.iter().map(|(_, b)| 4 + batch_values(b)).sum(),
            Record::Sample { loads, real, .. } => loads.len() + real.len(),
            _ => 0,
        };
        128 + PER_VALUE * values
    }
}

/// Writes a batch object, `{"tasks":[…],"dummy":[…],"tokens":[…],"deltas":[…]}`.
fn write_batch(w: &mut LineWriter<'_>, batch: &WireBatch) {
    w.open_object();
    w.key("tasks").list(&batch.tasks, |w, task| {
        w.open_array()
            .u64(task.edge)
            .u64(task.node)
            .u64(task.id)
            .u64(task.weight)
            .bool(task.dummy)
            .close_array();
    });
    w.key("dummy")
        .u64_rows(&batch.dummy, |&(node, units)| [node, units]);
    w.key("tokens")
        .u64_rows(&batch.tokens, |&(node, real, dummy)| [node, real, dummy]);
    w.key("deltas").list(&batch.deltas, |w, &(edge, delta)| {
        w.open_array().u64(edge).i64(delta).close_array();
    });
    w.close_object();
}

/// Reads what [`write_batch`] wrote.
fn read_batch(scan: &mut LineScanner<'_>) -> Result<WireBatch, ScanError> {
    scan.open_object()?;
    let tasks = scan.field_list("tasks", |scan| {
        scan.open_array()?;
        let (edge, node, id, weight) = (scan.u64()?, scan.u64()?, scan.u64()?, scan.u64()?);
        let dummy = scan.bool()?;
        scan.close_array()?;
        Ok(WireTask {
            edge,
            node,
            id,
            weight,
            dummy,
        })
    })?;
    let dummy = scan.field_u64_rows("dummy", |[node, units]| (node, units))?;
    let tokens = scan.field_u64_rows("tokens", |[node, real, dummy]| (node, real, dummy))?;
    let deltas = scan.field_list("deltas", |scan| {
        scan.open_array()?;
        let (edge, delta) = (scan.u64()?, scan.i64()?);
        scan.close_array()?;
        Ok((edge, delta))
    })?;
    scan.close_object()?;
    Ok(WireBatch {
        tasks,
        dummy,
        tokens,
        deltas,
    })
}

/// Reads the fields of a bulk record after its kind, in the writer's
/// order, through the end of the line.
fn parse_bulk(kind: &str, scan: &mut LineScanner<'_>) -> Result<Record, ScanError> {
    let record = match kind {
        "loads" => Record::Loads {
            rank: scan.field_opt_u64("rank")?,
            entries: scan.field_u64_rows("entries", |[node, bits]| (node, bits))?,
        },
        "flows" => Record::Flows {
            rank: scan.field_opt_u64("rank")?,
            entries: scan.field_u64_rows("entries", |[edge, f, b]| (edge, f, b))?,
        },
        "sends" => {
            let rank = scan.field_u64("rank")?;
            scan.key("batch")?;
            Record::Sends {
                rank,
                batch: read_batch(scan)?,
            }
        }
        "deliver" => Record::Deliver {
            batches: scan.field_list("batches", |scan| {
                scan.open_object()?;
                let rank = scan.field_u64("rank")?;
                scan.key("batch")?;
                let batch = read_batch(scan)?;
                scan.close_object()?;
                Ok((rank, batch))
            })?,
        },
        _ => Record::Sample {
            rank: scan.field_u64("rank")?,
            round: scan.field_u64("round")?,
            loads: scan.field_u64s("loads")?,
            real: scan.field_u64s("real")?,
            dummy_load: scan.field_u64("dummy_load")?,
            arrived: scan.field_u64("arrived")?,
            completed: scan.field_u64("completed")?,
        },
    };
    scan.finish()?;
    Ok(record)
}

// ---------------------------------------------------------------------------
// Control records: field accessors over the Json tree
// ---------------------------------------------------------------------------

fn u64_field(json: &Json, record: &str, key: &str) -> Result<u64, ProtoError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::malformed(format!("{record} has no {key}")))
}

fn opt_u64_field(json: &Json, record: &str, key: &str) -> Result<Option<u64>, ProtoError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value.as_u64().map(Some).ok_or_else(|| {
            ProtoError::malformed(format!("{record} field {key} is not an integer"))
        }),
    }
}

fn str_field(json: &Json, record: &str, key: &str) -> Result<String, ProtoError> {
    match json.get(key).and_then(Json::as_str) {
        Some(text) if !text.is_empty() => Ok(text.to_string()),
        Some(_) if key == "feed" => {
            Err(ProtoError::malformed(format!("{record} has no {key} name")))
        }
        Some(text) => Ok(text.to_string()),
        None => Err(ProtoError::malformed(format!("{record} has no {key}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: Record) {
        let line = record.render();
        assert!(!line.contains('\n'), "wire form must be one line: {line}");
        let parsed = Record::parse(&line).expect("rendered record parses");
        assert_eq!(parsed, record);
    }

    #[test]
    fn v1_records_roundtrip_and_pin_their_bytes() {
        let hello = Record::Hello {
            version: PROTOCOL_V1,
            feed: "a".into(),
        };
        // Byte-compatibility with pre-crate `lb serve`: the rendered form is
        // pinned, not just the parse/render fixpoint.
        assert_eq!(hello.render(), r#"{"kind":"hello","version":1,"feed":"a"}"#);
        roundtrip(hello);
        roundtrip(Record::Welcome {
            version: PROTOCOL_V1,
            feed: "replay".into(),
            last_round: Some(7),
        });
        assert_eq!(
            Record::Welcome {
                version: PROTOCOL_V1,
                feed: "a".into(),
                last_round: None,
            }
            .render(),
            r#"{"kind":"welcome","version":1,"feed":"a","last_round":null}"#
        );
        roundtrip(Record::Reject {
            version: PROTOCOL_V1,
            error: "feed \"a\" is already connected".into(),
        });
        roundtrip(Record::Header {
            version: 1,
            scenario: Json::obj([("name", Json::from("s"))]),
        });
    }

    #[test]
    fn v2_records_roundtrip() {
        roundtrip(Record::Join {
            version: PROTOCOL_V2,
            rank: 1,
            parts: 4,
        });
        roundtrip(Record::Start {
            scenario: Json::obj([("rounds", Json::from(32u64))]),
            parts: 4,
            shards: 2,
            checkpoint_every: Some(8),
        });
        roundtrip(Record::Start {
            scenario: Json::Null,
            parts: 2,
            shards: 1,
            checkpoint_every: None,
        });
        roundtrip(Record::Round { round: 12 });
        roundtrip(Record::Loads {
            rank: Some(3),
            entries: vec![(0, 4_607_182_418_800_017_408), (5, 0)],
        });
        roundtrip(Record::Loads {
            rank: None,
            entries: Vec::new(),
        });
        roundtrip(Record::Flows {
            rank: Some(0),
            entries: vec![(9, 17, u64::MAX)],
        });
        roundtrip(Record::Sends {
            rank: 2,
            batch: WireBatch {
                tasks: vec![WireTask {
                    edge: 3,
                    node: 7,
                    id: 1 << 60,
                    weight: 2,
                    dummy: false,
                }],
                dummy: vec![(7, 4)],
                tokens: vec![(1, 2, 3)],
                deltas: vec![(3, -5), (9, i64::MAX)],
            },
        });
        roundtrip(Record::Deliver {
            batches: vec![(0, WireBatch::default()), (1, WireBatch::default())],
        });
        roundtrip(Record::Sample {
            rank: 0,
            round: 16,
            loads: vec![1, 2, 3],
            real: vec![4, 5, 6],
            dummy_load: 7,
            arrived: 8,
            completed: 9,
        });
        roundtrip(Record::State {
            rank: 1,
            round: 8,
            snapshot: "{\"kind\":\"header\"}\n{\"kind\":\"end\"}\n".into(),
        });
        roundtrip(Record::Restore {
            round: 8,
            snapshot: "line one\nline two\n".into(),
        });
        roundtrip(Record::Finish);
        roundtrip(Record::Done {
            rank: 3,
            dummy_created: 11,
            engine: "alg2(sos)".into(),
        });
        roundtrip(Record::Abort {
            error: "worker 2 went away".into(),
        });
    }

    fn golden_batch(base: u64) -> WireBatch {
        WireBatch {
            tasks: vec![
                WireTask {
                    edge: base,
                    node: 7,
                    id: 1 << 63,
                    weight: 2,
                    dummy: false,
                },
                WireTask {
                    edge: base + 1,
                    node: 0,
                    id: u64::MAX,
                    weight: 1,
                    dummy: true,
                },
            ],
            dummy: vec![(7, 4), (0, u64::MAX)],
            tokens: vec![(1, 2, 3)],
            deltas: vec![(3, -5), (9, i64::MAX), (10, i64::MIN)],
        }
    }

    /// Golden bytes for every bulk v2 record: the wire form is pinned
    /// literally, not only as a parse/render fixpoint, so the writer and the
    /// reader cannot drift together.
    #[test]
    fn bulk_v2_records_pin_their_bytes() {
        let cases = [
            (
                Record::Loads {
                    rank: None,
                    entries: vec![(0, 4_607_182_418_800_017_408), (5, 0), (u64::MAX, 1 << 63)],
                },
                r#"{"kind":"loads","rank":null,"entries":[[0,4607182418800017408],[5,0],[18446744073709551615,9223372036854775808]]}"#,
            ),
            (
                Record::Loads {
                    rank: Some(3),
                    entries: Vec::new(),
                },
                r#"{"kind":"loads","rank":3,"entries":[]}"#,
            ),
            (
                Record::Flows {
                    rank: None,
                    entries: vec![(9, 17, u64::MAX), (0, 0, 1)],
                },
                r#"{"kind":"flows","rank":null,"entries":[[9,17,18446744073709551615],[0,0,1]]}"#,
            ),
            (
                Record::Flows {
                    rank: Some(1),
                    entries: vec![(2, 13_830_554_455_654_793_216, 0)],
                },
                r#"{"kind":"flows","rank":1,"entries":[[2,13830554455654793216,0]]}"#,
            ),
            (
                Record::Sends {
                    rank: 2,
                    batch: golden_batch(3),
                },
                r#"{"kind":"sends","rank":2,"batch":{"tasks":[[3,7,9223372036854775808,2,false],[4,0,18446744073709551615,1,true]],"dummy":[[7,4],[0,18446744073709551615]],"tokens":[[1,2,3]],"deltas":[[3,-5],[9,9223372036854775807],[10,-9223372036854775808]]}}"#,
            ),
            (
                Record::Sends {
                    rank: 0,
                    batch: WireBatch::default(),
                },
                r#"{"kind":"sends","rank":0,"batch":{"tasks":[],"dummy":[],"tokens":[],"deltas":[]}}"#,
            ),
            (
                Record::Deliver {
                    batches: vec![(0, golden_batch(40)), (1, WireBatch::default())],
                },
                r#"{"kind":"deliver","batches":[{"rank":0,"batch":{"tasks":[[40,7,9223372036854775808,2,false],[41,0,18446744073709551615,1,true]],"dummy":[[7,4],[0,18446744073709551615]],"tokens":[[1,2,3]],"deltas":[[3,-5],[9,9223372036854775807],[10,-9223372036854775808]]}},{"rank":1,"batch":{"tasks":[],"dummy":[],"tokens":[],"deltas":[]}}]}"#,
            ),
            (
                Record::Deliver {
                    batches: Vec::new(),
                },
                r#"{"kind":"deliver","batches":[]}"#,
            ),
            (
                Record::Sample {
                    rank: 1,
                    round: 16,
                    loads: vec![4_607_182_418_800_017_408, 0],
                    real: vec![1 << 63, u64::MAX],
                    dummy_load: 7,
                    arrived: 8,
                    completed: u64::MAX,
                },
                r#"{"kind":"sample","rank":1,"round":16,"loads":[4607182418800017408,0],"real":[9223372036854775808,18446744073709551615],"dummy_load":7,"arrived":8,"completed":18446744073709551615}"#,
            ),
        ];
        for (record, golden) in cases {
            assert_eq!(record.render(), golden);
            roundtrip(record);
        }
    }

    #[test]
    fn malformed_lines_produce_typed_errors() {
        assert!(matches!(
            Record::parse("not json"),
            Err(ProtoError::Malformed { .. })
        ));
        assert!(matches!(
            Record::parse(r#"{"version":1}"#),
            Err(ProtoError::Malformed { .. })
        ));
        assert!(matches!(
            Record::parse(r#"{"kind":"warp"}"#),
            Err(ProtoError::UnknownKind { kind }) if kind == "warp"
        ));
        let err = Record::parse(r#"{"kind":"hello","feed":"a"}"#).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let err = Record::parse(r#"{"kind":"hello","version":1,"feed":""}"#).unwrap_err();
        assert!(err.to_string().contains("feed"), "{err}");
        let err = Record::parse(r#"{"kind":"round"}"#).unwrap_err();
        assert!(err.to_string().contains("round"), "{err}");
        let err = Record::parse(r#"{"kind":"sends","rank":0}"#).unwrap_err();
        assert!(err.to_string().contains("batch"), "{err}");
        let err = Record::parse(r#"{"kind":"loads","rank":0,"entries":[[1]]}"#).unwrap_err();
        assert!(err.to_string().contains("pair"), "{err}");
    }

    #[test]
    fn float_bits_survive_the_wire_exactly() {
        for value in [0.0f64, -0.0, 1.0, f64::MIN_POSITIVE, 1.0 / 3.0, 6.25e17] {
            let record = Record::Loads {
                rank: Some(0),
                entries: vec![(0, value.to_bits())],
            };
            let Record::Loads { entries, .. } = Record::parse(&record.render()).unwrap() else {
                panic!("loads record changed kind on the wire");
            };
            assert_eq!(f64::from_bits(entries[0].1).to_bits(), value.to_bits());
        }
    }

    #[test]
    fn error_type_is_displayable_and_sendable() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<ProtoError>();
        let err = ProtoError::UnknownKind { kind: "x".into() };
        assert!(err.to_string().contains("unknown record kind"));
    }
}
