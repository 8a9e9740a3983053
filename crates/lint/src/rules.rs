//! The rule set and the per-file analysis pass.
//!
//! Every rule enforces a contract the repo already promises dynamically
//! (ROADMAP: "Determinism contract", "Buffer-reuse contract", "Atomic
//! publication", the typed-error taxonomies) — the linter moves the check
//! from the code path a test happens to execute to the source itself.
//!
//! Rules match token sequences from [`crate::tokenizer`], so literals and
//! comments can never trigger them. Code under a `#[test]` function or a
//! `#[cfg(test)]` module is exempt from every rule. Individual findings are
//! suppressed with an inline directive on the offending line or the line
//! above:
//!
//! ```text
//! // lint: allow(R01, out-of-band backpressure metrics, never in results)
//! ```
//!
//! A suppression without a reason — or with an unknown rule id, or any
//! unrecognized directive — is itself a finding (R00): the suppression
//! ledger must stay auditable.

use crate::config::Config;
use crate::tokenizer::{tokenize, Token, TokenKind};
use crate::Finding;

/// One rule's documentation row (also rendered by `lb lint --help` docs and
/// the ROADMAP table).
pub struct RuleInfo {
    pub id: &'static str,
    pub name: &'static str,
    /// The repo contract the rule enforces.
    pub contract: &'static str,
}

/// The shipped rule set.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R00",
        name: "suppression-hygiene",
        contract: "every `lint: allow` carries a rule id and a reason; \
                   unknown directives are findings, never silently ignored",
    },
    RuleInfo {
        id: "R01",
        name: "nondeterminism",
        contract: "engine/serialization code is bit-identical across shard \
                   counts and producer modes: no wall clocks, no \
                   RandomState iteration order",
    },
    RuleInfo {
        id: "R02",
        name: "truncating-cast",
        contract: "parsing/serialization keeps integers exact end to end: \
                   conversions go through checked paths, never `as`",
    },
    RuleInfo {
        id: "R03",
        name: "panic-in-library",
        contract: "fallible library paths return the typed taxonomies \
                   (CoreError/SnapshotError/BenchError), they do not panic",
    },
    RuleInfo {
        id: "R04",
        name: "non-atomic-artefact",
        contract: "artefacts publish through write_bytes_atomic \
                   (temp + fsync + rename): no torn files, ever",
    },
    RuleInfo {
        id: "R05",
        name: "alloc-in-hot-path",
        contract: "functions annotated `// lint: zero-alloc` keep \
                   steady-state rounds off the heap (tests/zero_alloc.rs \
                   is the runtime twin of this rule)",
    },
];

/// Integer cast targets R02 flags.
const INT_CAST_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Is `id` a known rule id?
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Lints one file's source text. `rel` is the `/`-separated
/// workspace-relative path used for rule scoping and reporting.
pub fn lint_source(rel: &str, src: &str, config: &Config) -> Vec<Finding> {
    let tokens = tokenize(src);
    let analysis = FileAnalysis::new(rel, src, &tokens, config);
    analysis.run()
}

/// A parsed `// lint: allow(rule, reason)` suppression.
struct Suppression {
    line: usize,
    rule: String,
}

struct FileAnalysis<'a> {
    rel: &'a str,
    src: &'a str,
    /// The full token stream (comments included).
    tokens: &'a [Token<'a>],
    /// Indices into `tokens` of non-comment tokens, in order.
    code: Vec<usize>,
    config: &'a Config,
    suppressions: Vec<Suppression>,
    /// Byte ranges of `#[test]` / `#[cfg(test)]` items (rule-exempt).
    test_regions: Vec<(usize, usize)>,
    /// Byte ranges of `// lint: zero-alloc` function bodies (R05 scope).
    zero_alloc_regions: Vec<(usize, usize)>,
    findings: Vec<Finding>,
}

impl<'a> FileAnalysis<'a> {
    fn new(rel: &'a str, src: &'a str, tokens: &'a [Token<'a>], config: &'a Config) -> Self {
        let code = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        FileAnalysis {
            rel,
            src,
            tokens,
            code,
            config,
            suppressions: Vec::new(),
            test_regions: Vec::new(),
            zero_alloc_regions: Vec::new(),
            findings: Vec::new(),
        }
    }

    fn run(mut self) -> Vec<Finding> {
        self.collect_directives();
        self.collect_test_regions();
        self.match_rules();
        self.findings
            .sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
        self.findings
    }

    // ----- findings plumbing -------------------------------------------

    /// Records a finding at `token` unless it is suppressed, inside test
    /// code, or out of the rule's configured scope.
    fn report(&mut self, rule: &'static str, token: &Token<'_>, message: String) {
        if !self.config.rule_applies(rule, self.rel) {
            return;
        }
        if self.in_test_region(token.offset) {
            return;
        }
        if self
            .suppressions
            .iter()
            .any(|s| s.rule == rule && (s.line == token.line || s.line + 1 == token.line))
        {
            return;
        }
        self.push_finding(rule, token, message);
    }

    /// Records a finding unconditionally (R00 directive hygiene: a broken
    /// suppression must not be able to suppress itself).
    fn push_finding(&mut self, rule: &'static str, token: &Token<'_>, message: String) {
        let snippet = self
            .src
            .lines()
            .nth(token.line - 1)
            .unwrap_or("")
            .trim()
            .to_string();
        self.findings.push(Finding {
            file: self.rel.to_string(),
            line: token.line,
            col: token.col,
            rule,
            message,
            snippet,
        });
    }

    fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| offset >= start && offset < end)
    }

    fn in_zero_alloc_region(&self, offset: usize) -> bool {
        self.zero_alloc_regions
            .iter()
            .any(|&(start, end)| offset >= start && offset < end)
    }

    // ----- directives ---------------------------------------------------

    fn collect_directives(&mut self) {
        for (i, token) in self.tokens.iter().enumerate() {
            if token.kind != TokenKind::LineComment {
                continue;
            }
            let Some(directive) = directive_text(token.text) else {
                continue;
            };
            if directive == "zero-alloc" {
                self.mark_zero_alloc_fn(i, token);
            } else if let Some(body) = directive.strip_prefix("allow") {
                self.parse_allow(body, token);
            } else {
                let message = format!(
                    "unrecognized lint directive {directive:?} \
                     (want `allow(RXX, reason)` or `zero-alloc`)"
                );
                self.push_finding("R00", token, message);
            }
        }
    }

    fn parse_allow(&mut self, body: &str, token: &Token<'_>) {
        let inner = body
            .trim_start()
            .strip_prefix('(')
            .and_then(|b| b.trim_end().strip_suffix(')'));
        let Some(inner) = inner else {
            self.push_finding(
                "R00",
                token,
                "malformed suppression: want `allow(RXX, reason)`".to_string(),
            );
            return;
        };
        let (rule, reason) = match inner.split_once(',') {
            Some((rule, reason)) => (rule.trim(), reason.trim()),
            None => (inner.trim(), ""),
        };
        if !known_rule(rule) {
            self.push_finding(
                "R00",
                token,
                format!("suppression names unknown rule {rule:?}"),
            );
            return;
        }
        if reason.is_empty() {
            self.push_finding(
                "R00",
                token,
                format!("suppression of {rule} without a reason"),
            );
            return;
        }
        self.suppressions.push(Suppression {
            line: token.line,
            rule: rule.to_string(),
        });
    }

    /// Resolves a `zero-alloc` directive at token index `i` to the body of
    /// the next `fn` and records it as an R05 region.
    fn mark_zero_alloc_fn(&mut self, i: usize, token: &Token<'_>) {
        let fn_idx = self.tokens[i + 1..]
            .iter()
            .position(|t| t.kind == TokenKind::Ident && t.text == "fn")
            .map(|off| i + 1 + off);
        let body = fn_idx.and_then(|f| self.find_body_open(f + 1));
        match body {
            Some(open) => {
                let close = self.match_delim(open, b'{', b'}');
                let end = self.tokens[close].offset + self.tokens[close].text.len();
                self.zero_alloc_regions
                    .push((self.tokens[open].offset, end));
            }
            None => self.push_finding(
                "R00",
                token,
                "dangling zero-alloc directive: no following fn body".to_string(),
            ),
        }
    }

    // ----- structural scanning -----------------------------------------

    /// From token index `from`, finds the `{` opening the current item's
    /// body — the first top-level `{` outside parens/brackets (so `;`
    /// inside `[u8; 4]` or a signature's parens never confuses it).
    /// Returns `None` if the item ends with `;` first (no body) or the
    /// file ends.
    fn find_body_open(&self, from: usize) -> Option<usize> {
        let mut parens = 0i32;
        let mut brackets = 0i32;
        for (k, t) in self.tokens.iter().enumerate().skip(from) {
            match t.kind {
                TokenKind::Punct(b'(') => parens += 1,
                TokenKind::Punct(b')') => parens -= 1,
                TokenKind::Punct(b'[') => brackets += 1,
                TokenKind::Punct(b']') => brackets -= 1,
                TokenKind::Punct(b'{') if parens == 0 && brackets == 0 => return Some(k),
                TokenKind::Punct(b';') if parens == 0 && brackets == 0 => return None,
                _ => {}
            }
        }
        None
    }

    /// Index of the token closing the delimiter opened at `open` (or the
    /// last token, for unbalanced files).
    fn match_delim(&self, open: usize, open_ch: u8, close_ch: u8) -> usize {
        let mut depth = 0i32;
        for (k, t) in self.tokens.iter().enumerate().skip(open) {
            match t.kind {
                TokenKind::Punct(c) if c == open_ch => depth += 1,
                TokenKind::Punct(c) if c == close_ch => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
        self.tokens.len().saturating_sub(1)
    }

    /// Marks every `#[test]` / `#[cfg(test)]` item's byte range as exempt.
    /// `#[cfg(not(test))]` guards *non*-test code and is deliberately not
    /// a test marker.
    fn collect_test_regions(&mut self) {
        let mut i = 0;
        while i < self.tokens.len() {
            if !self.is_punct(i, b'#') || !self.is_punct_skipping_nothing(i + 1, b'[') {
                i += 1;
                continue;
            }
            let close = self.match_delim(i + 1, b'[', b']');
            let idents: Vec<&str> = self.tokens[i + 2..close]
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text)
                .collect();
            let is_test = idents.contains(&"test") && !idents.contains(&"not");
            if !is_test {
                i = close + 1;
                continue;
            }
            // Skip any further attributes (and interleaved comments) to the
            // item itself, then swallow its body (or its `;` form).
            let mut j = close + 1;
            loop {
                while self.tokens.get(j).is_some_and(|t| {
                    matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                }) {
                    j += 1;
                }
                if self.is_punct(j, b'#') && self.is_punct_skipping_nothing(j + 1, b'[') {
                    j = self.match_delim(j + 1, b'[', b']') + 1;
                } else {
                    break;
                }
            }
            let end_idx = match self.find_body_open(j) {
                Some(open) => self.match_delim(open, b'{', b'}'),
                // `;`-terminated item (e.g. `#[cfg(test)] mod tests;`): the
                // out-of-line file is simply not walked as test code, but
                // the declaration itself has no body to exempt.
                None => close,
            };
            let end_tok = &self.tokens[end_idx.min(self.tokens.len() - 1)];
            self.test_regions
                .push((self.tokens[i].offset, end_tok.offset + end_tok.text.len()));
            i = end_idx + 1;
        }
    }

    fn is_punct(&self, i: usize, ch: u8) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct(ch))
    }

    /// Like [`is_punct`](Self::is_punct) but named for call sites where the
    /// grammar requires strict adjacency (`#[`): tokens are already
    /// whitespace-free, so plain index lookup is exactly that.
    fn is_punct_skipping_nothing(&self, i: usize, ch: u8) -> bool {
        self.is_punct(i, ch)
    }

    // ----- rule matching -------------------------------------------------

    /// The code-token accessors below index into `self.code` (comment-free
    /// view); `ctok` resolves back to the underlying token.
    fn ctok(&self, ci: usize) -> Option<&Token<'a>> {
        self.code.get(ci).map(|&i| &self.tokens[i])
    }

    fn cident(&self, ci: usize, name: &str) -> bool {
        self.ctok(ci)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
    }

    fn cident_any(&self, ci: usize, names: &[&str]) -> bool {
        self.ctok(ci)
            .is_some_and(|t| t.kind == TokenKind::Ident && names.contains(&t.text))
    }

    fn cpunct(&self, ci: usize, ch: u8) -> bool {
        self.ctok(ci)
            .is_some_and(|t| t.kind == TokenKind::Punct(ch))
    }

    /// `a :: b` at code index `ci`.
    fn cpath2(&self, ci: usize, a: &str, b: &str) -> bool {
        self.cident(ci, a)
            && self.cpunct(ci + 1, b':')
            && self.cpunct(ci + 2, b':')
            && self.cident(ci + 3, b)
    }

    /// `a :: b` or `a :: < … > :: b` (turbofish) at code index `ci`.
    fn cpath2_generic(&self, ci: usize, a: &str, b: &str) -> bool {
        if self.cpath2(ci, a, b) {
            return true;
        }
        if !(self.cident(ci, a) && self.cpunct(ci + 1, b':') && self.cpunct(ci + 2, b':')) {
            return false;
        }
        let mut j = ci + 3;
        if !self.cpunct(j, b'<') {
            return false;
        }
        let mut depth = 0usize;
        let limit = j + 64; // generics longer than this are not a real hot path
        while j < limit {
            if self.cpunct(j, b'<') {
                depth += 1;
            } else if self.cpunct(j, b'>') {
                depth -= 1;
                if depth == 0 {
                    return self.cpunct(j + 1, b':')
                        && self.cpunct(j + 2, b':')
                        && self.cident(j + 3, b);
                }
            } else if self.ctok(j).is_none() {
                return false;
            }
            j += 1;
        }
        false
    }

    /// Whether the `.` at code index `dot` closes a `lock(…)` / `wait(…)`
    /// receiver. `.expect(…)` on a poisoned-lock result only *propagates* a
    /// panic that already happened on another thread — it can never
    /// introduce one — so R03 exempts it.
    fn is_lock_receiver(&self, dot: usize) -> bool {
        if dot == 0 || !self.cpunct(dot - 1, b')') {
            return false;
        }
        let mut depth = 0i32;
        let mut k = dot - 1;
        loop {
            if self.cpunct(k, b')') {
                depth += 1;
            } else if self.cpunct(k, b'(') {
                depth -= 1;
                if depth == 0 {
                    return k >= 1 && self.cident_any(k - 1, &["lock", "wait"]);
                }
            }
            if k == 0 {
                return false;
            }
            k -= 1;
        }
    }

    fn match_rules(&mut self) {
        for ci in 0..self.code.len() {
            self.match_r01(ci);
            self.match_r02(ci);
            self.match_r03(ci);
            self.match_r04(ci);
            self.match_r05(ci);
        }
    }

    fn match_r01(&mut self, ci: usize) {
        let hit = if self.cpath2(ci, "SystemTime", "now") || self.cpath2(ci, "Instant", "now") {
            Some(format!(
                "wall-clock read `{}::now()`",
                self.ctok(ci).map_or("", |t| t.text)
            ))
        } else if self.cident_any(ci, &["HashMap", "HashSet"]) {
            Some(format!(
                "`{}` (RandomState iteration order)",
                self.ctok(ci).map_or("", |t| t.text)
            ))
        } else {
            None
        };
        if let Some(what) = hit {
            let Some(&token) = self.ctok(ci) else { return };
            self.report(
                "R01",
                &token,
                format!(
                    "{what} in deterministic engine/serialization code — results \
                     must be bit-identical across shard counts and producer modes; \
                     keep timing out of band and use BTreeMap/BTreeSet"
                ),
            );
        }
    }

    fn match_r02(&mut self, ci: usize) {
        if self.cident(ci, "as") && self.cident_any(ci + 1, INT_CAST_TARGETS) {
            let target = self.ctok(ci + 1).map_or("", |t| t.text).to_string();
            let Some(&token) = self.ctok(ci) else { return };
            self.report(
                "R02",
                &token,
                format!(
                    "integer cast `as {target}` in parsing/serialization code — \
                     route through a checked conversion (try_from / the \
                     u32_field-style helpers) so out-of-range values fail loudly"
                ),
            );
        }
    }

    fn match_r03(&mut self, ci: usize) {
        if self.cpunct(ci, b'.')
            && self.cident_any(ci + 1, &["unwrap", "expect"])
            && self.cpunct(ci + 2, b'(')
            && !self.is_lock_receiver(ci)
        {
            let method = self.ctok(ci + 1).map_or("", |t| t.text).to_string();
            let Some(&token) = self.ctok(ci + 1) else {
                return;
            };
            self.report(
                "R03",
                &token,
                format!(
                    "`.{method}(…)` in non-test library code — fallible paths \
                     return the typed taxonomies \
                     (CoreError/SnapshotError/BenchError), they do not panic"
                ),
            );
        }
        if self.cident(ci, "panic") && self.cpunct(ci + 1, b'!') {
            let Some(&token) = self.ctok(ci) else { return };
            self.report(
                "R03",
                &token,
                "`panic!` in non-test library code — fallible paths return the \
                 typed taxonomies (CoreError/SnapshotError/BenchError)"
                    .to_string(),
            );
        }
    }

    fn match_r04(&mut self, ci: usize) {
        let hit = if self.cpath2(ci, "File", "create") {
            Some("File::create")
        } else if self.cpath2(ci, "fs", "write") {
            Some("fs::write")
        } else {
            None
        };
        if let Some(what) = hit {
            let Some(&token) = self.ctok(ci) else { return };
            self.report(
                "R04",
                &token,
                format!(
                    "direct artefact write `{what}` — publish through \
                     write_bytes_atomic (temp + fsync + rename) so a reader or \
                     a crash never sees a torn file"
                ),
            );
        }
    }

    fn match_r05(&mut self, ci: usize) {
        let Some(first) = self.ctok(ci) else { return };
        if !self.in_zero_alloc_region(first.offset) {
            return;
        }
        let hit = if self.cpath2_generic(ci, "Vec", "new") {
            Some(("Vec::new()", ci))
        } else if self.cpath2_generic(ci, "Box", "new") {
            Some(("Box::new()", ci))
        } else if self.cident_any(ci, &["vec", "format"]) && self.cpunct(ci + 1, b'!') {
            Some((
                if self.cident(ci, "vec") {
                    "vec![…]"
                } else {
                    "format!(…)"
                },
                ci,
            ))
        } else if self.cpunct(ci, b'.') && self.cident_any(ci + 1, &["collect", "to_vec"]) {
            Some((
                if self.cident(ci + 1, "collect") {
                    ".collect()"
                } else {
                    ".to_vec()"
                },
                ci + 1,
            ))
        } else {
            None
        };
        if let Some((what, at)) = hit {
            let Some(&token) = self.ctok(at) else { return };
            self.report(
                "R05",
                &token,
                format!(
                    "`{what}` inside a `lint: zero-alloc` function — steady-state \
                     rounds must not touch the heap; keep scratch in pre-sized \
                     buffers owned by the process (tests/zero_alloc.rs is the \
                     runtime twin of this rule)"
                ),
            );
        }
    }
}

/// Extracts a directive from a `//`-comment's text: strips the slashes and
/// an optional `!`, and returns the remainder after a leading `lint:`
/// marker, trimmed. Returns `None` for ordinary comments.
fn directive_text(comment: &str) -> Option<&str> {
    let body = comment.trim_start_matches('/');
    let body = body.strip_prefix('!').unwrap_or(body).trim_start();
    body.strip_prefix("lint:").map(str::trim)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source("crates/x/src/lib.rs", src, &Config::default())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn r01_flags_clocks_and_hash_collections() {
        let f = lint("fn f() { let t = SystemTime::now(); }");
        assert_eq!(rules_of(&f), ["R01"]);
        let f = lint("use std::collections::HashMap;\n");
        assert_eq!(rules_of(&f), ["R01"]);
        // …but not inside strings or comments.
        assert!(lint("// SystemTime::now()\nfn f() { let s = \"Instant::now\"; }").is_empty());
    }

    #[test]
    fn r02_flags_integer_casts_only() {
        let f = lint("fn f(x: u64) -> u32 { x as u32 }");
        assert_eq!(rules_of(&f), ["R02"]);
        assert!(lint("fn f(x: u32) -> f64 { x as f64 }").is_empty());
    }

    #[test]
    fn r03_flags_panics_but_not_lock_propagation() {
        let f = lint("fn f(x: Option<u8>) { x.unwrap(); }");
        assert_eq!(rules_of(&f), ["R03"]);
        let f = lint("fn f() { panic!(\"boom\"); }");
        assert_eq!(rules_of(&f), ["R03"]);
        // Poisoned-lock propagation is exempt.
        assert!(lint("fn f(m: &Mutex<u8>) { m.lock().expect(\"poisoned\"); }").is_empty());
        assert!(lint("fn f() { state = cv.wait(state).expect(\"poisoned\"); }").is_empty());
        // unwrap_or and friends are different identifiers.
        assert!(lint("fn f(x: Option<u8>) { x.unwrap_or(0); }").is_empty());
    }

    #[test]
    fn r04_flags_direct_writes() {
        let f = lint("fn f() { fs::write(path, bytes); }");
        assert_eq!(rules_of(&f), ["R04"]);
        let f = lint("fn f() { let file = File::create(p); }");
        assert_eq!(rules_of(&f), ["R04"]);
        assert!(lint("fn f() { write_bytes_atomic(path, bytes); }").is_empty());
    }

    #[test]
    fn r05_only_fires_inside_annotated_fns() {
        let src = "fn cold() { let v = vec![1]; }\n\
                   // lint: zero-alloc\n\
                   fn hot(&mut self) { self.buf.push(format!(\"x\")); }\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), ["R05"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn r05_sees_through_turbofish() {
        let src = "// lint: zero-alloc\n\
                   fn hot() { let v = Vec::<u8>::new(); }\n";
        assert_eq!(rules_of(&lint(src)), ["R05"]);
        let src = "// lint: zero-alloc\n\
                   fn hot() { let b = Box::<[u8; 4]>::new([0; 4]); }\n";
        assert_eq!(rules_of(&lint(src)), ["R05"]);
        // Plain paths still match, and cold code stays exempt.
        assert!(lint("fn cold() { let v = Vec::<u8>::new(); }").is_empty());
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn helper() { x.unwrap(); }\n}\n\
                   fn lib() { y.unwrap(); }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
        let src = "#[test]\nfn t() { x.unwrap(); }\n";
        assert!(lint(src).is_empty());
        // not(test) guards real code: not exempt.
        let src = "#[cfg(not(test))]\nfn lib() { x.unwrap(); }\n";
        assert_eq!(rules_of(&lint(src)), ["R03"]);
    }

    #[test]
    fn suppressions_need_reasons_and_known_rules() {
        let src = "fn f(x: Option<u8>) {\n\
                   // lint: allow(R03, invariant: checked two lines above)\n\
                   x.unwrap();\n}\n";
        assert!(lint(src).is_empty());
        // Same-line suppression.
        let src = "fn f(x: Option<u8>) { x.unwrap(); // lint: allow(R03, checked)\n}\n";
        assert!(lint(src).is_empty());
        // Bare suppression: the unwrap stays AND the directive is flagged.
        let src = "fn f(x: Option<u8>) {\n// lint: allow(R03)\nx.unwrap();\n}\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), ["R00", "R03"]);
        // Unknown rule id.
        let f = lint("// lint: allow(R99, whatever)\n");
        assert_eq!(rules_of(&f), ["R00"]);
        // Unrecognized directive.
        let f = lint("// lint: zero-allocation\n");
        assert_eq!(rules_of(&f), ["R00"]);
    }

    #[test]
    fn a_suppression_only_covers_its_own_rule() {
        let src = "fn f(x: Option<u8>) {\n\
                   // lint: allow(R01, wrong rule)\n\
                   x.unwrap();\n}\n";
        assert_eq!(rules_of(&lint(src)), ["R03"]);
    }

    #[test]
    fn rule_scoping_follows_the_config() {
        let config = Config::parse("[rules.R03]\ninclude = [\"crates/core\"]\n").unwrap();
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(lint_source("crates/core/src/lib.rs", src, &config).len(), 1);
        assert!(lint_source("crates/bench/src/lib.rs", src, &config).is_empty());
    }
}
