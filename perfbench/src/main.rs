//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats untraced trials of the workload, each in a
//! fresh child process (so peak RSS is one trial's), until `--seconds` are
//! spent, checks every trial's output, and prints the median of each
//! end-to-end metric. With `--trace 1` it runs the per-layer breakdown in
//! this process (see `traced.rs`). Either way the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; details go to standard error. The exit code is 0 only when
//! every attempt passed its checks.

mod spans;
mod stats;
mod traced;
mod trial;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use lb_analysis::Json;

use trial::TrialReport;
use workload::{Expectation, References, Workload};

/// Fewest and most trials one end-to-end run makes.
const MIN_TRIALS: usize = 3;
const MAX_TRIALS: usize = 40;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run exactly one trial and print its report.
    trial: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trial = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::find(name).ok_or_else(|| {
                    let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--trial" => trial = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        trial,
    })
}

/// Where checkpoints and span files go: beside the build output.
fn scratch_dir() -> Result<PathBuf, String> {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    let dir = root.join("perfbench-run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One end-to-end metric: name, unit and its value in a trial.
type Metric = (&'static str, &'static str, fn(&TrialReport) -> f64);

const END_TO_END: [Metric; 4] = [
    ("rounds_per_s", "rounds/s", |r| r.rounds_per_s),
    ("time_to_balance_s", "s", |r| r.time_to_balance_s),
    ("setup_s", "s", |r| r.setup_s),
    ("peak_rss_mb", "MB", |r| r.peak_rss_mb),
];

/// The checked result of a run's trials.
#[derive(Debug)]
struct Summary {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// Per end-to-end metric, the values of every trial that measured it.
    values: Vec<Vec<f64>>,
}

impl Summary {
    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn exit_code(&self) -> ExitCode {
        if self.failed == 0 && self.attempted > 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Checks every trial against the reference and against the run's first
/// successful trial. A trial that errored or failed a check counts as
/// failed; its measurements still count, so a wrong output never hides how
/// fast it was produced.
fn summarize(expect: Option<&Expectation>, trials: &[Result<TrialReport, String>]) -> Summary {
    let mut failures = Vec::new();
    let mut values = vec![Vec::new(); END_TO_END.len()];
    let mut agreed = None;
    for (i, trial) in trials.iter().enumerate() {
        let report = match trial {
            Ok(report) => report,
            Err(e) => {
                failures.push(format!("trial {i}: {e}"));
                continue;
            }
        };
        if let Err(e) = workload::check(expect, agreed, &report.produced) {
            failures.push(format!("trial {i}: {e}"));
        }
        agreed.get_or_insert(report.produced.digest);
        for ((_, _, get), column) in END_TO_END.iter().zip(&mut values) {
            let v = get(report);
            if v.is_finite() {
                column.push(v);
            }
        }
    }
    Summary {
        attempted: trials.len(),
        failed: failures.len(),
        failures,
        values,
    }
}

/// Runs one trial in a child process and reads its report.
fn child_trial(args: &Args) -> Result<TrialReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--trial", "--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a trial process: {e}"))?;
    if !output.status.success() {
        return Err(format!("trial process exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("trial report: {e}"))?;
    if let Some(error) = doc.get("error").and_then(Json::as_str) {
        return Err(error.to_string());
    }
    TrialReport::from_json(&doc)
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                number(*value)
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        metrics.join(", ")
    )
}

fn end_to_end(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload;
    let expect = References::bundled()?.expectation(w.name, args.seed);
    let start = Instant::now();
    let mut trials = Vec::new();
    let mut durations = Vec::new();
    loop {
        let began = Instant::now();
        trials.push(child_trial(args));
        durations.push(began.elapsed().as_secs_f64());
        let next = durations.iter().copied().fold(0.0, f64::max);
        let done = start.elapsed().as_secs_f64() + next > args.seconds;
        if trials.len() >= MAX_TRIALS || (trials.len() >= MIN_TRIALS && done) {
            break;
        }
    }
    let summary = summarize(expect.as_ref(), &trials);
    eprintln!(
        "{}: seed {}, {} trial(s) in {:.1} s, failed_share {} (failed / attempted)",
        w.name,
        args.seed,
        summary.attempted,
        start.elapsed().as_secs_f64(),
        summary.failed_share()
    );
    for failure in &summary.failures {
        eprintln!("  FAILED {failure}");
    }
    let mut metrics = Vec::new();
    for ((name, unit, _), column) in END_TO_END.iter().zip(&summary.values) {
        if let (Some(median), Some((q1, q3))) = (stats::median(column), stats::quartiles(column)) {
            eprintln!(
                "  {name:<18} median {median:>12.4} {unit:<9} q1 {q1:>12.4}  q3 {q3:>12.4}  ({} trials)",
                column.len()
            );
            metrics.push((*name, median, *unit));
        }
    }
    let complete = metrics.len() == END_TO_END.len();
    println!(
        "{}",
        result_line(
            summary.failed == 0 && complete,
            summary.attempted,
            summary.failed,
            &metrics
        )
    );
    Ok(if complete {
        summary.exit_code()
    } else {
        ExitCode::FAILURE
    })
}

fn traced_run(args: &Args) -> Result<ExitCode, String> {
    let scratch = scratch_dir()?;
    let report = traced::run(args.workload, args.seed, args.seconds, &scratch)?;
    for failure in &report.failures {
        eprintln!("  FAILED {failure}");
    }
    let correct = report.failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            report.attempted as usize,
            report.failed as usize,
            &report.metrics
        )
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn trial_process(args: &Args) -> Result<ExitCode, String> {
    let scratch = scratch_dir()?;
    let line = match trial::run(args.workload, args.seed, &scratch) {
        Ok(report) => report.to_json().render(),
        Err(e) => Json::obj([("error", Json::from(e))]).render(),
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.trial {
            trial_process(&args)
        } else if args.trace {
            traced_run(&args)
        } else {
            end_to_end(&args)
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Produced;

    fn report(digest: u64) -> Result<TrialReport, String> {
        Ok(TrialReport {
            setup_s: 0.5,
            rounds_per_s: 40.0,
            time_to_balance_s: 0.6,
            peak_rss_mb: 600.0,
            produced: Produced {
                digest,
                cross_round: Some(23),
                violations: Vec::new(),
            },
        })
    }

    #[test]
    fn matching_trials_pass() {
        let expect = Expectation {
            digest: Some(0xabc),
            cross_round: 23,
        };
        let trials = vec![report(0xabc), report(0xabc), report(0xabc)];
        let summary = summarize(Some(&expect), &trials);
        assert_eq!((summary.attempted, summary.failed), (3, 0));
        assert_eq!(summary.exit_code(), ExitCode::SUCCESS);
        assert_eq!(summary.values[0], vec![40.0; 3]);
    }

    #[test]
    fn corrupted_reference_fails_every_trial_and_the_exit_code() {
        let corrupted = Expectation {
            digest: Some(0xabc ^ 1),
            cross_round: 23,
        };
        let trials = vec![report(0xabc), report(0xabc), report(0xabc)];
        let summary = summarize(Some(&corrupted), &trials);
        assert_eq!(summary.failed_share(), 1.0);
        assert_eq!(summary.exit_code(), ExitCode::FAILURE);
        // The measurements are still reported.
        assert_eq!(summary.values[2], vec![0.5; 3]);
    }

    #[test]
    fn errors_and_disagreeing_trials_count_as_failed() {
        let trials = vec![report(1), Err("engine error".into()), report(2), report(1)];
        let summary = summarize(None, &trials);
        assert_eq!((summary.attempted, summary.failed), (4, 2));
        assert_eq!(summary.failed_share(), 0.5);
        assert_eq!(summary.exit_code(), ExitCode::FAILURE);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 0, &[("setup_s", 0.8127, "s")]);
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv(
            "--workload static_alg1_fos --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload static_alg1_fos --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload static_alg1_fos")).is_err());
        assert!(parse_args(&argv("--seed 1 --bogus")).is_err());
    }
}
