//! Byte-stream ingestion sources: live front-ends that parse the
//! line-delimited trace format ([`crate::trace`]) **incrementally** — from a
//! growing file ([`TraceSource`]) or any framed byte stream such as a pipe,
//! socket or stdin ([`ReadSource`]) — into recycled [`RoundEvents`] buffers,
//! so a producer thread can feed an engine through the async ingestion
//! channel without allocating in steady state.
//!
//! # Layout
//!
//! * [`RoundSource`] — the producer-side contract: the header's embedded
//!   scenario plus a blocking `next_round` that fills a caller-owned batch.
//! * [`ReadSource`] — frames and parses records from any [`io::Read`]. End
//!   of input before the `end` record is a typed truncation error.
//! * [`TraceSource`] — follows a growing trace file: at end-of-file it polls
//!   for appended bytes, erroring out only after `idle_timeout` without
//!   growth (a stalled writer is indistinguishable from a truncated trace,
//!   so the timeout is the truncation guard). Resumable via
//!   [`Checkpoint`]s, which mark a consumed-line boundary.
//!
//! # The streaming record parser
//!
//! Whole-file parsing ([`crate::Trace::parse`]) goes through
//! [`lb_analysis::Json`] and allocates freely. The streaming parser here is
//! a separate single-pass scanner over one line at a time: it writes
//! arrivals and completions straight into the caller's [`RoundEvents`]
//! buffers and allocates only on the error path. It accepts the format the
//! writer emits plus insignificant whitespace and any field order — with
//! one extra requirement, natural for dispatch-while-streaming: every
//! record must **lead with its `"kind"` field**. Integer fields are exact:
//! fraction or exponent forms, negatives and out-of-range values are parse
//! errors, never silent roundings (`tests/trace_corpus.rs` pins the error
//! taxonomy).

use lb_analysis::u64_exact;
use lb_core::discrete::RoundEvents;
use lb_core::{Task, TaskId};
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

use crate::scenario::Scenario;
use crate::trace::parse_header_line;

/// Default [`TraceSource`] idle timeout: how long the tail may see no file
/// growth before the trace is declared stalled/truncated.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Default [`TraceSource`] poll interval between end-of-file checks.
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// A producer-side stream of round-tagged event batches, ready to be pumped
/// into the ingestion channel by a driver thread.
pub trait RoundSource: Send {
    /// The effective scenario embedded in the stream's header.
    fn scenario(&self) -> &Scenario;

    /// Fills `out` (cleared first) with the next round record's batch and
    /// returns its round tag, blocking until one is available. `Ok(None)`
    /// means the stream ended cleanly (the `end` record was seen and its
    /// totals matched).
    ///
    /// # Errors
    ///
    /// Returns a message for malformed records, ordering violations,
    /// truncation (end of input without the `end` record) and I/O failures.
    fn next_round(&mut self, out: &mut RoundEvents) -> Result<Option<u64>, String>;
}

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

/// Accumulates raw bytes and yields complete newline-terminated lines.
/// Consumed bytes are compacted away on the next [`feed`](FrameDecoder::feed),
/// so the buffer stops growing once it fits the longest line plus one read
/// chunk — steady-state framing allocates nothing.
#[derive(Default)]
struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before `start` belong to already-consumed lines.
    start: usize,
    /// Next index to search for a newline from (avoids rescanning).
    scan: usize,
}

impl FrameDecoder {
    fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.scan -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line, without its terminator (a trailing `\r` is
    /// stripped), or `None` until more bytes arrive.
    fn take_line(&mut self) -> Option<&[u8]> {
        match self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let mut end = self.scan + pos;
                let start = self.start;
                self.start = end + 1;
                self.scan = end + 1;
                if end > start && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                Some(&self.buf[start..end])
            }
            None => {
                self.scan = self.buf.len();
                None
            }
        }
    }

    /// Whether unconsumed bytes (a partial line) are buffered.
    fn has_partial(&self) -> bool {
        self.buf.len() > self.start
    }

    /// Number of buffered bytes not yet consumed as complete lines.
    fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }
}

// ---------------------------------------------------------------------------
// The single-pass record parser
// ---------------------------------------------------------------------------

/// One decoded stream record beyond the header.
enum StreamRecord {
    /// A `round` record; the batch was written into the caller's buffers.
    Round(u64),
    /// The sealing `end` record with its declared totals.
    End {
        /// Declared round-record total.
        rounds: u64,
        /// Declared event total.
        events: u64,
    },
    /// A `header` record (not parsed here — headers carry arbitrary JSON).
    Header,
}

/// A byte cursor over one record line.
struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn new(line: &'a str) -> Self {
        Scan {
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn require(&mut self, token: u8) -> Result<(), String> {
        if self.peek() == Some(token) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", token as char, self.pos))
        }
    }

    fn consume_if(&mut self, token: u8) -> bool {
        if self.peek() == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// A double-quoted string without escapes (the format never emits any in
    /// record positions the streaming parser inspects).
    fn string(&mut self) -> Result<&'a str, String> {
        self.require(b'"')?;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => return Err("unsupported escape in string".into()),
                Some(_) => self.pos += 1,
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// A `"key":` pair opener.
    fn key(&mut self) -> Result<&'a str, String> {
        let name = self.string()?;
        self.require(b':')?;
        Ok(name)
    }

    /// A non-negative exact integer. Fraction/exponent forms, negatives and
    /// values beyond `u64` are errors — the streaming counterpart of the
    /// `Json::Int` exactness rule.
    fn integer(&mut self) -> Result<u64, String> {
        if self.peek() == Some(b'-') {
            return Err(format!(
                "expected a non-negative exact integer at byte {}",
                self.pos
            ));
        }
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(digit) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit - b'0')))
                .ok_or("integer out of range")?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected an integer at byte {}", self.pos));
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err("non-exact integer (fraction/exponent forms are rejected)".into());
        }
        Ok(value)
    }

    fn end(&mut self) -> Result<(), String> {
        if self.peek().is_some() {
            return Err(format!("unexpected trailing content at byte {}", self.pos));
        }
        Ok(())
    }
}

/// Parses `"completions":[[node,weight],…]` into `out.completions`.
fn parse_completions(scan: &mut Scan<'_>, out: &mut RoundEvents) -> Result<(), String> {
    scan.require(b'[')?;
    if scan.consume_if(b']') {
        return Ok(());
    }
    loop {
        scan.require(b'[')?;
        let node = usize::try_from(scan.integer()?).map_err(|_| "integer out of range")?;
        scan.require(b',')?;
        let weight = scan.integer()?;
        scan.require(b']')?;
        out.completions.push((node, weight));
        if !scan.consume_if(b',') {
            return scan.require(b']');
        }
    }
}

/// Parses `"arrivals":[[node,id,weight],…]` into `out.arrivals`.
fn parse_arrivals(scan: &mut Scan<'_>, out: &mut RoundEvents) -> Result<(), String> {
    scan.require(b'[')?;
    if scan.consume_if(b']') {
        return Ok(());
    }
    loop {
        scan.require(b'[')?;
        let node = usize::try_from(scan.integer()?).map_err(|_| "integer out of range")?;
        scan.require(b',')?;
        let id = scan.integer()?;
        scan.require(b',')?;
        let weight = scan.integer()?;
        scan.require(b']')?;
        if weight == 0 {
            return Err("arrival weight must be positive".into());
        }
        out.arrivals.push((node, Task::new(TaskId(id), weight)));
        if !scan.consume_if(b',') {
            return scan.require(b']');
        }
    }
}

/// Parses one stream record line, filling `out` (cleared first) for round
/// records. Allocation-free on the success path.
fn parse_stream_record(line: &str, out: &mut RoundEvents) -> Result<StreamRecord, String> {
    out.clear();
    let mut scan = Scan::new(line);
    scan.require(b'{')?;
    if scan.key()? != "kind" {
        return Err("record must lead with its \"kind\" field".into());
    }
    match scan.string()? {
        "header" => Ok(StreamRecord::Header),
        "round" => {
            let mut round = None;
            let mut have_completions = false;
            let mut have_arrivals = false;
            while scan.consume_if(b',') {
                match scan.key()? {
                    "round" if round.is_none() => round = Some(scan.integer()?),
                    "completions" if !have_completions => {
                        parse_completions(&mut scan, out)?;
                        have_completions = true;
                    }
                    "arrivals" if !have_arrivals => {
                        parse_arrivals(&mut scan, out)?;
                        have_arrivals = true;
                    }
                    key @ ("round" | "completions" | "arrivals") => {
                        return Err(format!("duplicate field {key:?}"))
                    }
                    other => return Err(format!("unknown round-record field {other:?}")),
                }
            }
            scan.require(b'}')?;
            scan.end()?;
            match (round, have_completions, have_arrivals) {
                (Some(round), true, true) => Ok(StreamRecord::Round(round)),
                (None, _, _) => Err("round record is missing field \"round\"".into()),
                (_, false, _) => Err("round record is missing field \"completions\"".into()),
                (_, _, false) => Err("round record is missing field \"arrivals\"".into()),
            }
        }
        "end" => {
            let mut rounds = None;
            let mut events = None;
            while scan.consume_if(b',') {
                match scan.key()? {
                    "rounds" if rounds.is_none() => rounds = Some(scan.integer()?),
                    "events" if events.is_none() => events = Some(scan.integer()?),
                    key @ ("rounds" | "events") => return Err(format!("duplicate field {key:?}")),
                    other => return Err(format!("unknown end-record field {other:?}")),
                }
            }
            scan.require(b'}')?;
            scan.end()?;
            match (rounds, events) {
                (Some(rounds), Some(events)) => Ok(StreamRecord::End { rounds, events }),
                (None, _) => Err("end record is missing field \"rounds\"".into()),
                (_, None) => Err("end record is missing field \"events\"".into()),
            }
        }
        other => Err(format!("unknown record kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Shared stream validation
// ---------------------------------------------------------------------------

/// Per-stream validation state shared by both sources: round ordering,
/// bounds, running totals and the end-record seal.
struct StreamState {
    scenario_rounds: u64,
    last_round: Option<u64>,
    rounds_seen: u64,
    events_seen: u64,
    sealed: bool,
}

impl StreamState {
    fn new(scenario_rounds: usize) -> Self {
        StreamState {
            scenario_rounds: u64_exact(scenario_rounds),
            last_round: None,
            rounds_seen: 0,
            events_seen: 0,
            sealed: false,
        }
    }

    fn admit_round(&mut self, round: u64, events: u64) -> Result<(), String> {
        if let Some(last) = self.last_round {
            if round <= last {
                return Err(format!(
                    "round {round} after round {last} (must be strictly increasing)"
                ));
            }
        }
        if round >= self.scenario_rounds {
            return Err(format!(
                "round {round} is beyond the scenario ({} rounds)",
                self.scenario_rounds
            ));
        }
        self.last_round = Some(round);
        self.rounds_seen += 1;
        self.events_seen += events;
        Ok(())
    }

    fn admit_end(&mut self, rounds: u64, events: u64) -> Result<(), String> {
        if rounds != self.rounds_seen || events != self.events_seen {
            return Err(format!(
                "end record declares {rounds} round(s) / {events} event(s) but the \
                 stream carried {} / {}",
                self.rounds_seen, self.events_seen
            ));
        }
        self.sealed = true;
        Ok(())
    }
}

/// What one framed line contributed to the stream.
enum LineStep {
    /// A round record; `out` holds its batch.
    Round(u64),
    /// The sealing end record.
    End,
    /// A blank line.
    Skip,
}

/// Validates and dispatches one framed line for either source.
fn process_line(
    state: &mut StreamState,
    lineno: u64,
    line: &[u8],
    out: &mut RoundEvents,
) -> Result<LineStep, String> {
    if line.iter().all(u8::is_ascii_whitespace) {
        return Ok(LineStep::Skip);
    }
    if state.sealed {
        return Err(format!("line {lineno}: content after the end record"));
    }
    let text = std::str::from_utf8(line).map_err(|_| format!("line {lineno}: invalid UTF-8"))?;
    match parse_stream_record(text, out).map_err(|e| format!("line {lineno}: {e}"))? {
        StreamRecord::Header => Err(format!(
            "line {lineno}: unexpected header record mid-stream"
        )),
        StreamRecord::Round(round) => {
            let events = u64_exact(out.arrivals.len() + out.completions.len());
            state
                .admit_round(round, events)
                .map_err(|e| format!("line {lineno}: {e}"))?;
            Ok(LineStep::Round(round))
        }
        StreamRecord::End { rounds, events } => {
            state
                .admit_end(rounds, events)
                .map_err(|e| format!("line {lineno}: {e}"))?;
            Ok(LineStep::End)
        }
    }
}

// ---------------------------------------------------------------------------
// ReadSource: framed records over any io::Read
// ---------------------------------------------------------------------------

/// A framed line-delimited trace reader over any [`io::Read`] — a pipe, a
/// socket, stdin, an in-memory cursor. Construction blocks until the header
/// line arrives; end of input before the `end` record is a truncation error.
pub struct ReadSource<R: Read> {
    reader: R,
    decoder: FrameDecoder,
    scenario: Scenario,
    state: StreamState,
    lineno: u64,
    /// Bytes handed to the decoder so far (consumed + buffered partial).
    read_pos: u64,
}

impl<R: Read + Send> ReadSource<R> {
    /// Wraps `reader`, reading and validating the header record (blocking
    /// until its line is complete).
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures, a malformed or missing header,
    /// and streams that end before the header line.
    pub fn new(mut reader: R) -> Result<Self, String> {
        let mut decoder = FrameDecoder::default();
        let mut buf = [0u8; 8192];
        let mut lineno = 0u64;
        let mut read_pos = 0u64;
        let header = loop {
            if let Some(line) = decoder.take_line() {
                lineno += 1;
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                let text = std::str::from_utf8(line)
                    .map_err(|_| format!("line {lineno}: invalid UTF-8"))?;
                break parse_header_line(text).map_err(|e| format!("line {lineno}: {e}"))?;
            }
            match reader.read(&mut buf) {
                Ok(0) => return Err("event stream ended before the header record".into()),
                Ok(n) => {
                    read_pos += u64_exact(n);
                    decoder.feed(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("reading event stream: {e}")),
            }
        };
        let state = StreamState::new(header.rounds);
        Ok(ReadSource {
            reader,
            decoder,
            scenario: header,
            state,
            lineno,
            read_pos,
        })
    }

    /// Wraps a stream whose header was **already consumed** — e.g. during a
    /// socket handshake that authenticated the header before attaching the
    /// connection — continuing validation from `checkpoint`. The carried
    /// `scenario` must be the one the consumed header embedded; round
    /// ordering resumes after `checkpoint.last_round` and the running totals
    /// resume from `checkpoint.rounds_seen`/`events_seen`, so a fresh
    /// post-handshake stream (totals zero, `last_round` pinned) validates
    /// its own `end` record while still rejecting replays of already-applied
    /// rounds.
    ///
    /// # Errors
    ///
    /// Returns a message when the carried scenario is invalid.
    pub fn resume(reader: R, scenario: Scenario, checkpoint: Checkpoint) -> Result<Self, String> {
        scenario.validate()?;
        let state = StreamState {
            scenario_rounds: u64_exact(scenario.rounds),
            last_round: checkpoint.last_round,
            rounds_seen: checkpoint.rounds_seen,
            events_seen: checkpoint.events_seen,
            sealed: false,
        };
        Ok(ReadSource {
            reader,
            decoder: FrameDecoder::default(),
            scenario,
            state,
            lineno: checkpoint.lineno,
            read_pos: checkpoint.offset,
        })
    }

    /// The current resume point: the boundary after the last consumed line
    /// (`offset` counts bytes consumed from the reader, relative to where
    /// this source started reading).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            offset: self.read_pos - u64_exact(self.decoder.pending_len()),
            lineno: self.lineno,
            last_round: self.state.last_round,
            rounds_seen: self.state.rounds_seen,
            events_seen: self.state.events_seen,
        }
    }
}

impl<R: Read + Send> RoundSource for ReadSource<R> {
    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn next_round(&mut self, out: &mut RoundEvents) -> Result<Option<u64>, String> {
        let mut buf = [0u8; 8192];
        loop {
            while let Some(line) = self.decoder.take_line() {
                self.lineno += 1;
                match process_line(&mut self.state, self.lineno, line, out)? {
                    LineStep::Skip => continue,
                    LineStep::Round(round) => return Ok(Some(round)),
                    LineStep::End => return Ok(None),
                }
            }
            if self.state.sealed {
                return Ok(None);
            }
            match self.reader.read(&mut buf) {
                Ok(0) => {
                    return Err(if self.decoder.has_partial() {
                        format!(
                            "event stream ended mid-record at line {} (torn line; truncated?)",
                            self.lineno + 1
                        )
                    } else {
                        "event stream ended without the end record (truncated?)".to_string()
                    });
                }
                Ok(n) => {
                    self.read_pos += u64_exact(n);
                    self.decoder.feed(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("reading event stream: {e}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TraceSource: tailing a growing trace file
// ---------------------------------------------------------------------------

/// A resume point of a streaming source, taken at a consumed-line boundary
/// (see [`TraceSource::checkpoint`] and [`ReadSource::checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Byte offset of the first unconsumed line.
    pub offset: u64,
    /// Lines consumed so far (the header is line 1).
    pub lineno: u64,
    /// Round tag of the last admitted round record.
    pub last_round: Option<u64>,
    /// Round records admitted so far.
    pub rounds_seen: u64,
    /// Events admitted so far.
    pub events_seen: u64,
}

/// Reads one chunk from the tailed file into the decoder, erroring if the
/// file shrank below the committed read position (in-place truncation).
fn read_file_chunk(
    file: &mut fs::File,
    path: &Path,
    read_pos: &mut u64,
    decoder: &mut FrameDecoder,
) -> Result<usize, String> {
    let len = file
        .metadata()
        .map_err(|e| format!("stat {}: {e}", path.display()))?
        .len();
    if len < *read_pos {
        return Err(format!(
            "trace {} shrank below the read position (truncated)",
            path.display()
        ));
    }
    let mut buf = [0u8; 8192];
    loop {
        match file.read(&mut buf) {
            Ok(n) => {
                *read_pos += u64_exact(n);
                if n > 0 {
                    decoder.feed(&buf[..n]);
                }
                return Ok(n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        }
    }
}

/// A file-tail trace reader: follows a trace file as it grows, parsing each
/// appended round record. End-of-file means *wait* (the writer may still be
/// running); only `idle_timeout` without growth — or a file that shrinks, or
/// ends in a torn line — is an error. The `end` record is the only clean
/// exit, so a truncated trace can never silently replay as a prefix.
pub struct TraceSource {
    file: fs::File,
    path: PathBuf,
    decoder: FrameDecoder,
    scenario: Scenario,
    state: StreamState,
    lineno: u64,
    /// File offset of the bytes handed to the decoder so far.
    read_pos: u64,
    idle_timeout: Duration,
    poll_interval: Duration,
}

impl TraceSource {
    /// Opens `path` with the default timeouts ([`DEFAULT_IDLE_TIMEOUT`],
    /// [`DEFAULT_POLL_INTERVAL`]), blocking until the header line arrives.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures, a malformed header, or a header
    /// that does not arrive within the idle timeout.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        Self::open_with(path, DEFAULT_IDLE_TIMEOUT, DEFAULT_POLL_INTERVAL)
    }

    /// Opens `path` with explicit timeouts; see [`TraceSource::open`].
    ///
    /// # Errors
    ///
    /// As for [`TraceSource::open`].
    pub fn open_with(
        path: impl AsRef<Path>,
        idle_timeout: Duration,
        poll_interval: Duration,
    ) -> Result<Self, String> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            fs::File::open(&path).map_err(|e| format!("opening trace {}: {e}", path.display()))?;
        let mut decoder = FrameDecoder::default();
        let mut read_pos = 0u64;
        let mut waited = Duration::ZERO;
        let mut lineno = 0u64;
        let header = loop {
            if let Some(line) = decoder.take_line() {
                lineno += 1;
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                let text = std::str::from_utf8(line)
                    .map_err(|_| format!("{}: line {lineno}: invalid UTF-8", path.display()))?;
                break parse_header_line(text)
                    .map_err(|e| format!("{}: line {lineno}: {e}", path.display()))?;
            }
            if read_file_chunk(&mut file, &path, &mut read_pos, &mut decoder)? == 0 {
                if waited >= idle_timeout {
                    return Err(format!(
                        "trace {}: stalled before the header record (truncated?)",
                        path.display()
                    ));
                }
                thread::sleep(poll_interval);
                waited += poll_interval;
            } else {
                waited = Duration::ZERO;
            }
        };
        let state = StreamState::new(header.rounds);
        Ok(TraceSource {
            file,
            path,
            decoder,
            scenario: header,
            state,
            lineno,
            read_pos,
            idle_timeout,
            poll_interval,
        })
    }

    /// Reopens `path` at `checkpoint`, continuing a partially consumed tail
    /// (the header was consumed by the original source, so its `scenario`
    /// must be carried over).
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures or an invalid carried scenario.
    pub fn resume(
        path: impl AsRef<Path>,
        scenario: Scenario,
        checkpoint: Checkpoint,
        idle_timeout: Duration,
        poll_interval: Duration,
    ) -> Result<Self, String> {
        scenario.validate()?;
        let path = path.as_ref().to_path_buf();
        let mut file =
            fs::File::open(&path).map_err(|e| format!("opening trace {}: {e}", path.display()))?;
        file.seek(SeekFrom::Start(checkpoint.offset))
            .map_err(|e| format!("seeking {}: {e}", path.display()))?;
        let state = StreamState {
            scenario_rounds: u64_exact(scenario.rounds),
            last_round: checkpoint.last_round,
            rounds_seen: checkpoint.rounds_seen,
            events_seen: checkpoint.events_seen,
            sealed: false,
        };
        Ok(TraceSource {
            file,
            path,
            decoder: FrameDecoder::default(),
            scenario,
            state,
            lineno: checkpoint.lineno,
            read_pos: checkpoint.offset,
            idle_timeout,
            poll_interval,
        })
    }

    /// The current resume point: the boundary after the last consumed line.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            offset: self.read_pos - u64_exact(self.decoder.pending_len()),
            lineno: self.lineno,
            last_round: self.state.last_round,
            rounds_seen: self.state.rounds_seen,
            events_seen: self.state.events_seen,
        }
    }
}

impl RoundSource for TraceSource {
    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn next_round(&mut self, out: &mut RoundEvents) -> Result<Option<u64>, String> {
        let mut waited = Duration::ZERO;
        loop {
            while let Some(line) = self.decoder.take_line() {
                self.lineno += 1;
                match process_line(&mut self.state, self.lineno, line, out)
                    .map_err(|e| format!("{}: {e}", self.path.display()))?
                {
                    LineStep::Skip => continue,
                    LineStep::Round(round) => return Ok(Some(round)),
                    LineStep::End => return Ok(None),
                }
            }
            if self.state.sealed {
                return Ok(None);
            }
            if read_file_chunk(
                &mut self.file,
                &self.path,
                &mut self.read_pos,
                &mut self.decoder,
            )? == 0
            {
                if waited >= self.idle_timeout {
                    return Err(if self.decoder.has_partial() {
                        format!(
                            "trace {}: stalled mid-record without an end record \
                             (torn tail; truncated?)",
                            self.path.display()
                        )
                    } else {
                        format!(
                            "trace {}: stalled without an end record (truncated?)",
                            self.path.display()
                        )
                    });
                }
                thread::sleep(self.poll_interval);
                waited += self.poll_interval;
            } else {
                waited = Duration::ZERO;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::TokenDistribution;
    use crate::scenario::{
        AlgorithmSpec, ArrivalSpec, InitialSpec, ModelSpec, PadSpec, ServiceSpec, SpeedSpec,
        TopologySpec,
    };
    use crate::trace::TraceWriter;
    use std::io::Write;

    fn scenario() -> Scenario {
        Scenario {
            name: "source_test".into(),
            seed: 9,
            rounds: 40,
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
                max_weight: 2,
            },
            completions: ServiceSpec::Uniform {
                weight_per_speed: 1,
            },
            churn: Vec::new(),
            shards: 1,
            federation: 1,
        }
    }

    /// A `Write` sink the test can read back (mirrors the trace.rs helper).
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn into_string(self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn batch(base_id: u64) -> RoundEvents {
        let mut events = RoundEvents::default();
        events.completions.push((0, 3));
        events.completions.push((5, 1));
        events.arrivals.push((2, Task::new(TaskId(base_id), 2)));
        events.arrivals.push((7, Task::new(TaskId(base_id + 1), 1)));
        events
    }

    fn sample_trace() -> String {
        let buf = SharedBuf::default();
        let mut writer = TraceWriter::new(buf.clone(), &scenario()).unwrap();
        writer.record_round(0, &batch(100)).unwrap();
        writer.record_round(7, &batch(102)).unwrap();
        writer.record_round(12, &batch(104)).unwrap();
        writer.finish().unwrap();
        buf.into_string()
    }

    /// A reader that trickles its bytes a few at a time, exercising the
    /// framing across arbitrary chunk boundaries.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.bytes.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn read_source_round_trips_the_writer_format() {
        let text = sample_trace();
        for step in [1, 3, 8192] {
            let mut source = ReadSource::new(Trickle {
                bytes: text.clone().into_bytes(),
                pos: 0,
                step,
            })
            .expect("header parses");
            assert_eq!(source.scenario(), &scenario());
            let mut out = RoundEvents::default();
            let mut rounds = Vec::new();
            while let Some(round) = source.next_round(&mut out).expect("rounds parse") {
                rounds.push(round);
                let expect = batch(100 + rounds.len() as u64 * 2 - 2);
                assert_eq!(out.completions, expect.completions, "step {step}");
                assert_eq!(out.arrivals, expect.arrivals, "step {step}");
            }
            assert_eq!(rounds, vec![0, 7, 12], "step {step}");
            // Post-seal calls stay at the clean end.
            assert_eq!(source.next_round(&mut out).unwrap(), None);
        }
    }

    #[test]
    fn read_source_rejects_truncation() {
        let text = sample_trace();
        // Without the end record.
        let cut: String = text.lines().take(3).collect::<Vec<_>>().join("\n") + "\n";
        let mut source = ReadSource::new(io::Cursor::new(cut.into_bytes())).unwrap();
        let mut out = RoundEvents::default();
        let err = loop {
            match source.next_round(&mut out) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncated stream ended cleanly"),
                Err(e) => break e,
            }
        };
        assert!(err.contains("without the end record"), "{err}");

        // Torn mid-line.
        let torn = &text[..text.len() - 20];
        let mut source = ReadSource::new(io::Cursor::new(torn.as_bytes().to_vec())).unwrap();
        let err = loop {
            match source.next_round(&mut out) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("torn stream ended cleanly"),
                Err(e) => break e,
            }
        };
        assert!(err.contains("torn line"), "{err}");
    }

    #[test]
    fn read_source_resumes_a_headerless_stream() {
        let text = sample_trace();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        let first_round = lines.next().unwrap();

        // A first connection delivers the header and one round, then dies.
        let opening = format!("{header}\n{first_round}\n");
        let mut source = ReadSource::new(io::Cursor::new(opening.into_bytes())).unwrap();
        let mut out = RoundEvents::default();
        assert_eq!(source.next_round(&mut out).unwrap(), Some(0));
        let err = source.next_round(&mut out).unwrap_err();
        assert!(err.contains("without the end record"), "{err}");
        let parked = source.checkpoint();
        assert_eq!(parked.last_round, Some(0));
        let scenario = source.scenario().clone();
        drop(source);

        // The continuation stream carries only post-resume rounds plus its
        // own end record; counters restart at zero so those totals validate,
        // while `last_round` still rejects replays.
        let buf = SharedBuf::default();
        let mut writer = TraceWriter::new(buf.clone(), &scenario).unwrap();
        writer.record_round(7, &batch(102)).unwrap();
        writer.record_round(12, &batch(104)).unwrap();
        writer.finish().unwrap();
        let continuation: String = buf
            .into_string()
            .lines()
            .skip(1) // the handshake consumed the header
            .map(|l| format!("{l}\n"))
            .collect();
        let resume_at = Checkpoint {
            last_round: parked.last_round,
            rounds_seen: 0,
            events_seen: 0,
            offset: 0,
            lineno: 0,
        };
        let mut resumed = ReadSource::resume(
            io::Cursor::new(continuation.clone().into_bytes()),
            scenario.clone(),
            resume_at,
        )
        .unwrap();
        assert_eq!(resumed.next_round(&mut out).unwrap(), Some(7));
        assert_eq!(resumed.next_round(&mut out).unwrap(), Some(12));
        assert_eq!(resumed.next_round(&mut out).unwrap(), None, "sealed");

        // Replaying an already-applied round is still an ordering error.
        let mut replayer = ReadSource::resume(
            io::Cursor::new(continuation.into_bytes()),
            scenario,
            Checkpoint {
                last_round: Some(7),
                rounds_seen: 0,
                events_seen: 0,
                offset: 0,
                lineno: 0,
            },
        )
        .unwrap();
        let err = replayer.next_round(&mut out).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn trace_source_follows_a_growing_file() {
        let text = sample_trace();
        let path = lb_analysis::artifact::unique_temp_path("lb_source_tail_test.trace.jsonl");
        std::fs::write(&path, "").unwrap();
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let writer_path = path.clone();
        let writer = thread::spawn(move || {
            let mut file = fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .unwrap();
            for line in lines {
                writeln!(file, "{line}").unwrap();
                file.flush().unwrap();
                thread::sleep(Duration::from_millis(2));
            }
        });
        let mut source =
            TraceSource::open_with(&path, Duration::from_secs(20), Duration::from_millis(1))
                .expect("header arrives");
        assert_eq!(source.scenario(), &scenario());
        let mut out = RoundEvents::default();
        let mut rounds = Vec::new();
        while let Some(round) = source.next_round(&mut out).expect("tail parses") {
            rounds.push(round);
        }
        assert_eq!(rounds, vec![0, 7, 12]);
        writer.join().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_source_checkpoints_resume() {
        let text = sample_trace();
        let path = lb_analysis::artifact::unique_temp_path("lb_source_resume_test.trace.jsonl");
        std::fs::write(&path, &text).unwrap();
        let mut source =
            TraceSource::open_with(&path, Duration::from_millis(100), Duration::from_millis(1))
                .unwrap();
        let mut out = RoundEvents::default();
        assert_eq!(source.next_round(&mut out).unwrap(), Some(0));
        assert_eq!(source.next_round(&mut out).unwrap(), Some(7));
        let checkpoint = source.checkpoint();
        let embedded = source.scenario().clone();
        drop(source);

        let mut resumed = TraceSource::resume(
            &path,
            embedded,
            checkpoint,
            Duration::from_millis(100),
            Duration::from_millis(1),
        )
        .unwrap();
        assert_eq!(resumed.next_round(&mut out).unwrap(), Some(12));
        let expect = batch(104);
        assert_eq!(out.arrivals, expect.arrivals);
        assert_eq!(resumed.next_round(&mut out).unwrap(), None, "sealed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_source_times_out_on_a_stalled_tail() {
        let text = sample_trace();
        let path = lb_analysis::artifact::unique_temp_path("lb_source_stall_test.trace.jsonl");
        // Drop the end record AND tear the last line.
        let torn = &text[..text.len() - 25];
        std::fs::write(&path, torn).unwrap();
        let mut source =
            TraceSource::open_with(&path, Duration::from_millis(30), Duration::from_millis(5))
                .unwrap();
        let mut out = RoundEvents::default();
        let err = loop {
            match source.next_round(&mut out) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("stalled tail ended cleanly"),
                Err(e) => break e,
            }
        };
        assert!(err.contains("truncated?"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_parser_matches_whole_file_parser() {
        // The streaming parser and Trace::parse must agree on every record
        // of a canonical trace.
        let text = sample_trace();
        let trace = crate::Trace::parse(&text).unwrap();
        let mut source = ReadSource::new(io::Cursor::new(text.into_bytes())).unwrap();
        let mut out = RoundEvents::default();
        let mut expect_out = RoundEvents::default();
        for record in &trace.rounds {
            assert_eq!(source.next_round(&mut out).unwrap(), Some(record.round));
            record.fill(&mut expect_out);
            assert_eq!(out.completions, expect_out.completions);
            assert_eq!(out.arrivals, expect_out.arrivals);
        }
        assert_eq!(source.next_round(&mut out).unwrap(), None);
    }
}
