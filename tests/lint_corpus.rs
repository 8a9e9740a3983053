//! Corpus test for `lb lint`: every rule pinned by positive *and* negative
//! snippets with exact `file:line:col` locations, the tokenizer exercised on
//! the constructs that break naive scanners (string literals, raw strings,
//! nested block comments, `#[cfg(test)]` regions), and — the acceptance
//! gate — a self-check that the workspace itself lints clean through the
//! same binary entry point CI uses.

use lb_analysis::artifact::unique_temp_path;
use lb_lint::{lint_source, report_json, Config, Finding, Linter, RULES};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Lints a snippet under the default (everything-in-scope) config, as if it
/// lived at `crates/core/src/corpus.rs`.
fn lint(src: &str) -> Vec<Finding> {
    lint_source("crates/core/src/corpus.rs", src, &Config::default())
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

/// `(rule, line, col)` triples — the exact-location view of a report.
fn located(findings: &[Finding]) -> Vec<(&'static str, usize, usize)> {
    findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root two levels up")
        .to_path_buf()
}

// ---------------------------------------------------------------------------
// R01 — nondeterminism
// ---------------------------------------------------------------------------

#[test]
fn r01_wall_clocks_and_hashed_collections() {
    let src = "fn f() {\n    let t = SystemTime::now();\n}\n";
    assert_eq!(located(&lint(src)), [("R01", 2, 13)]);

    let src = "fn f() {\n    let t = Instant::now();\n}\n";
    assert_eq!(located(&lint(src)), [("R01", 2, 13)]);

    let src = "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n";
    assert_eq!(rules_of(&lint(src)), ["R01", "R01"]);

    let src = "fn f() {\n    let s = HashSet::from([1]);\n}\n";
    assert_eq!(located(&lint(src)), [("R01", 2, 13)]);

    // The deterministic replacements pass.
    assert!(lint("fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }").is_empty());
    assert!(lint("fn f() { let s = BTreeSet::from([1]); }").is_empty());
    // `now` on some other path is not a wall clock.
    assert!(lint("fn f() { let t = Clock::now(); }").is_empty());
}

// ---------------------------------------------------------------------------
// R02 — truncating casts
// ---------------------------------------------------------------------------

#[test]
fn r02_integer_as_casts() {
    let src = "fn f(x: u64) {\n    let b = x as u8;\n}\n";
    assert_eq!(located(&lint(src)), [("R02", 2, 15)]);

    let src = "fn f(x: usize) {\n    let n = x as u64;\n}\n";
    assert_eq!(rules_of(&lint(src)), ["R02"]);

    // Float casts and `as` in a non-cast position are out of scope.
    assert!(lint("fn f(x: u32) { let y = x as f64; }").is_empty());
    assert!(lint("use lb_core::snapshot as snap;\n").is_empty());
    // The sanctioned conversions don't use `as` at all.
    assert!(lint("fn f(x: u64) { let n = usize_exact(x); }").is_empty());
    assert!(lint("fn f(x: u64) { let b = u8::try_from(x); }").is_empty());
}

// ---------------------------------------------------------------------------
// R03 — panics in library code
// ---------------------------------------------------------------------------

#[test]
fn r03_unwrap_expect_panic() {
    let src = "fn f(x: Option<u8>) {\n    x.unwrap();\n}\n";
    assert_eq!(located(&lint(src)), [("R03", 2, 7)]);

    let src = "fn f(r: Result<u8, E>) {\n    r.expect(\"always ok\");\n}\n";
    assert_eq!(located(&lint(src)), [("R03", 2, 7)]);

    let src = "fn f() {\n    panic!(\"boom\");\n}\n";
    assert_eq!(located(&lint(src)), [("R03", 2, 5)]);

    // Poisoned-lock propagation is a built-in exemption: the panic already
    // happened on another thread.
    assert!(lint("fn f(m: &Mutex<u8>) { let g = m.lock().expect(\"poisoned\"); }").is_empty());
    assert!(lint("fn f() { state = cv.wait(state).expect(\"poisoned\"); }").is_empty());
    // Different identifiers entirely.
    assert!(lint("fn f(x: Option<u8>) { x.unwrap_or(0); }").is_empty());
    assert!(lint("fn f(x: Option<u8>) { x.unwrap_or_default(); }").is_empty());
}

// ---------------------------------------------------------------------------
// R04 — non-atomic artefact writes
// ---------------------------------------------------------------------------

#[test]
fn r04_direct_filesystem_writes() {
    let src = "fn f() {\n    fs::write(path, bytes)?;\n}\n";
    assert_eq!(located(&lint(src)), [("R04", 2, 5)]);

    let src = "fn f() {\n    let out = File::create(path)?;\n}\n";
    assert_eq!(located(&lint(src)), [("R04", 2, 15)]);

    // The atomic publish path is the sanctioned spelling.
    assert!(lint("fn f() { write_bytes_atomic(path, bytes)?; }").is_empty());
    // Reads are fine.
    assert!(lint("fn f() { let s = fs::read_to_string(path)?; }").is_empty());
}

// ---------------------------------------------------------------------------
// R05 — allocations in zero-alloc hot paths
// ---------------------------------------------------------------------------

#[test]
fn r05_scoped_to_annotated_fns() {
    // Unannotated functions may allocate freely.
    assert!(lint("fn setup() { let v: Vec<u8> = Vec::new(); }").is_empty());
    assert!(lint("fn setup() { let v = vec![1, 2]; }").is_empty());

    let src = "// lint: zero-alloc\n\
               fn hot(&mut self) {\n    let v = Vec::new();\n}\n";
    assert_eq!(located(&lint(src)), [("R05", 3, 13)]);

    let src = "// lint: zero-alloc\n\
               fn hot(&mut self) {\n    self.log = format!(\"{x}\");\n}\n";
    assert_eq!(located(&lint(src)), [("R05", 3, 16)]);

    // Turbofish does not hide the allocation.
    let src = "// lint: zero-alloc\nfn hot() { let v = Vec::<u8>::new(); }\n";
    assert_eq!(rules_of(&lint(src)), ["R05"]);

    // `.collect()` via turbofish too.
    let src = "// lint: zero-alloc\n\
               fn hot(&self) { let v = it.collect::<Vec<_>>(); }\n";
    assert_eq!(rules_of(&lint(src)), ["R05"]);

    // The region ends with the function body: the next fn is cold again.
    let src = "// lint: zero-alloc\n\
               fn hot(&mut self) { self.buf.clear(); }\n\
               fn cold(&self) { let v = vec![1]; }\n";
    assert!(lint(src).is_empty());

    // A directive with no following fn is itself a finding.
    let src = "// lint: zero-alloc\nconst X: u8 = 1;\n";
    assert_eq!(rules_of(&lint(src)), ["R00"]);
}

// ---------------------------------------------------------------------------
// Suppressions and R00
// ---------------------------------------------------------------------------

#[test]
fn suppressions_require_reasons() {
    // A reasoned allow silences the next line.
    let src = "fn f(x: Option<u8>) {\n\
               // lint: allow(R03, checked by the caller)\n\
               x.unwrap();\n}\n";
    assert!(lint(src).is_empty());

    // Same-line allow works too.
    let src = "fn f(x: Option<u8>) { x.unwrap(); // lint: allow(R03, checked)\n}\n";
    assert!(lint(src).is_empty());

    // A bare allow is itself a finding — and does not suppress.
    let src = "fn f(x: Option<u8>) {\n\
               // lint: allow(R03)\n\
               x.unwrap();\n}\n";
    assert_eq!(rules_of(&lint(src)), ["R00", "R03"]);

    // Unknown rule ids are flagged, including the ids of retired rules
    // (ids are never reused).
    let src = "// lint: allow(R99, no such rule)\nfn f() {}\n";
    assert_eq!(rules_of(&lint(src)), ["R00"]);
    let src = "// lint: allow(R06, retired rule)\nfn f() {}\n";
    assert_eq!(rules_of(&lint(src)), ["R00"]);

    // An allow for rule A does not silence rule B.
    let src = "fn f() {\n\
               // lint: allow(R02, wrong rule)\n\
               let t = SystemTime::now();\n}\n";
    assert_eq!(rules_of(&lint(src)), ["R01"]);
}

// ---------------------------------------------------------------------------
// Tokenizer corner cases
// ---------------------------------------------------------------------------

#[test]
fn tokenizer_string_literals_are_not_code() {
    // Rule spellings inside string literals never fire.
    assert!(lint("fn f() { log(\"call x.unwrap() here\"); }").is_empty());
    assert!(lint("fn f() { let s = \"SystemTime::now()\"; }").is_empty());
    assert!(lint("fn f() { let s = r\"fs::write(path, b)\"; }").is_empty());
    assert!(lint("fn f() { let s = r#\"panic!(\"inner\")\"#; }").is_empty());
    // A quote inside a char literal doesn't open a string.
    assert!(lint("fn f() { let c = '\"'; let x = y.unwrap_or(0); }").is_empty());
}

#[test]
fn tokenizer_comments_are_not_code() {
    assert!(lint("fn f() {\n    // x.unwrap() would panic\n}\n").is_empty());
    assert!(lint("fn f() { /* fs::write(p, b) */ }").is_empty());
    // Nested block comments (Rust allows them).
    assert!(lint("fn f() { /* outer /* panic!(\"x\") */ still comment */ }").is_empty());
}

#[test]
fn tokenizer_line_numbers_survive_multiline_literals() {
    // A `\`-continued string and an embedded newline both advance the line
    // counter; the finding after them must carry the real source line.
    let src = "fn f() {\n\
               let s = \"one \\\n  two\";\n\
               let t = \"a\n b\";\n\
               x.unwrap();\n}\n";
    assert_eq!(located(&lint(src)), [("R03", 6, 3)]);

    // Raw strings spanning lines as well.
    let src = "fn f() {\nlet s = r#\"line\nline\nline\"#;\nx.unwrap();\n}\n";
    assert_eq!(located(&lint(src)), [("R03", 5, 3)]);
}

#[test]
fn test_regions_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n\
               fn lib() { y.unwrap(); }\n";
    assert_eq!(located(&lint(src)), [("R03", 5, 14)]);

    assert!(lint("#[test]\nfn t() { x.unwrap(); }\n").is_empty());

    // `#[cfg(not(test))]` guards *production* code — not exempt.
    let src = "#[cfg(not(test))]\nfn lib() { x.unwrap(); }\n";
    assert_eq!(rules_of(&lint(src)), ["R03"]);
}

// ---------------------------------------------------------------------------
// Config scoping
// ---------------------------------------------------------------------------

#[test]
fn config_scopes_rules_by_path() {
    let toml = "[rules.R03]\ninclude = [\"crates/core\"]\n";
    let config = Config::parse(toml).expect("valid config");
    let src = "fn f(x: Option<u8>) { x.unwrap(); }";
    assert_eq!(
        rules_of(&lint_source("crates/core/src/lib.rs", src, &config)),
        ["R03"]
    );
    assert!(lint_source("crates/bench/src/lib.rs", src, &config).is_empty());
    // Whole-component prefixes: `crates/core` does not cover `crates/corex`.
    assert!(lint_source("crates/corex/src/lib.rs", src, &config).is_empty());
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

#[test]
fn findings_sort_stably_and_render_json() {
    let src = "fn f() {\n    x.unwrap();\n    let t = SystemTime::now();\n}\n";
    let findings = lint(src);
    assert_eq!(rules_of(&findings), ["R03", "R01"]);
    let json = report_json(&findings).render();
    assert!(json.contains("\"count\":2"), "count in {json}");
    assert!(json.contains("\"rule\":\"R03\""), "rule id in {json}");
    assert!(
        json.contains("\"file\":\"crates/core/src/corpus.rs\""),
        "file in {json}"
    );
}

#[test]
fn every_rule_is_documented() {
    let ids: Vec<&str> = RULES.iter().map(|rule| rule.id).collect();
    assert_eq!(ids, ["R00", "R01", "R02", "R03", "R04", "R05"]);
    for rule in RULES {
        assert!(rule.id.starts_with('R') && rule.id.len() == 3);
        assert!(!rule.name.is_empty() && !rule.contract.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Workspace self-check: the acceptance gate
// ---------------------------------------------------------------------------

#[test]
fn workspace_lints_clean_via_library() {
    let linter = Linter::load(&workspace_root()).expect("lint.toml parses");
    let findings = linter.lint_workspace().expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "workspace must lint clean, got:\n{}",
        findings
            .iter()
            .map(|f| f.human())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lint_subcommand_exit_codes() {
    let root = workspace_root();
    // Clean workspace → exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_lb"))
        .args(["lint", "--root"])
        .arg(&root)
        .output()
        .expect("lb runs");
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // Findings → exit 1 with a diagnostic naming the rule; point the linter
    // at a scratch tree with a planted violation.
    let dir = unique_temp_path("lb-lint-corpus");
    std::fs::create_dir_all(dir.join("src")).expect("scratch tree");
    std::fs::write(
        dir.join("src/planted.rs"),
        "pub fn f() { let t = SystemTime::now(); }\n",
    )
    .expect("plant violation");
    let out = Command::new(env!("CARGO_BIN_EXE_lb"))
        .args(["lint", "--format", "json", "--root"])
        .arg(&dir)
        .output()
        .expect("lb runs");
    assert_eq!(out.status.code(), Some(1), "findings exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"rule\":\"R01\""), "R01 in {stdout}");
    assert!(stdout.contains("src/planted.rs"), "file in {stdout}");
    std::fs::remove_dir_all(&dir).ok();

    // Bad usage → exit 2.
    let out = Command::new(env!("CARGO_BIN_EXE_lb"))
        .args(["lint", "--format", "yaml"])
        .output()
        .expect("lb runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}
