//! In-memory span recording for the traced run.
//!
//! A span wraps one public call into a layer: its name, start and end (as
//! nanoseconds since the tracer's origin), its parent span and the round it
//! belongs to. Spans stay in memory while the run executes and are written
//! out once, at the end. A span's self time is its duration minus the time
//! its direct children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The round the span belongs to (`None` for set-up work).
    pub round: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 12),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: Option<usize>) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        round: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, round);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adopts spans recorded by another thread's tracer (same origin) as
    /// top-level spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per round, the summed duration in microseconds of the spans called
    /// `name` (rounds without one are absent).
    pub fn per_round_us(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(round) = s.round {
                *out.entry(round).or_insert(0.0) += s.duration_ns() as f64 / 1e3;
            }
        }
        out
    }

    /// Total self time in nanoseconds and call count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_insert((0u64, 0usize));
            entry.0 += s.duration_ns().saturating_sub(children);
            entry.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let round = s.round.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"round":{round}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            Span {
                name: "parent",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                round: Some(1),
            },
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                round: Some(1),
            },
            Span {
                name: "child",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                round: Some(1),
            },
        ];
        let times = t.self_times();
        assert_eq!(times["parent"], (60, 1));
        assert_eq!(times["child"], (40, 2));
        assert_eq!(t.per_round_us("child")[&1], 0.04);
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", None, || ());
        t.enter("a", Some(0));
        t.enter("b", Some(0));
        t.exit();
        t.exit();
        assert_eq!(t.spans()[1].parent, None);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t.spans()[2].end_ns <= t.spans()[1].end_ns);
    }
}
