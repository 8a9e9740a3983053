//! One module per reproduced paper artefact (see the per-experiment index in
//! DESIGN.md).
//!
//! Every experiment exposes `run(quick) -> ExperimentReport`; `quick = true`
//! shrinks sizes and repeat counts so the same code path can be exercised by
//! unit tests and `lb <name> --quick`, while `lb <name>` runs the full
//! configuration and writes the JSON record used by EXPERIMENTS.md.

pub mod dummy_ablation;
pub mod dynamic_arrivals;
pub mod fos_vs_sos;
pub mod heterogeneous;
pub mod table1;
pub mod table2;
pub mod theorem3;
pub mod theorem8;
pub mod trajectory;

use lb_analysis::ExperimentRecord;
use std::path::PathBuf;

/// The rendered output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Markdown report printed to stdout by the experiment binary.
    pub markdown: String,
    /// Machine-readable record written under `target/experiments/`.
    pub record: ExperimentRecord,
}

impl ExperimentReport {
    /// Prints the Markdown report and writes the JSON record to
    /// `target/experiments/`, returning the path written (if the write
    /// succeeded).
    pub fn emit(&self) -> Option<PathBuf> {
        println!("{}", self.markdown);
        match self.record.write_to_dir("target/experiments") {
            Ok(path) => {
                println!("(record written to {})", path.display());
                Some(path)
            }
            Err(err) => {
                eprintln!("warning: could not write experiment record: {err}");
                None
            }
        }
    }
}

/// Seeds used for repeated runs; experiments index into this list so repeat
/// counts stay consistent across experiments.
pub(crate) const REPEAT_SEEDS: [u64; 5] = [11, 23, 37, 51, 73];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment must complete in quick mode and produce a non-empty
    /// report with at least one measurement.
    #[test]
    fn all_experiments_run_in_quick_mode() {
        let reports = vec![
            ("table1", table1::run(true)),
            ("table2", table2::run(true)),
            ("theorem3", theorem3::run(true)),
            ("theorem8", theorem8::run(true)),
            ("trajectory", trajectory::run(true)),
            ("heterogeneous", heterogeneous::run(true)),
            ("dummy_ablation", dummy_ablation::run(true)),
            ("fos_vs_sos", fos_vs_sos::run(true)),
            ("dynamic_arrivals", dynamic_arrivals::run(true)),
        ];
        for (name, report) in reports {
            assert!(!report.markdown.is_empty(), "{name} produced no markdown");
            assert!(
                !report.record.measurements.is_empty(),
                "{name} produced no measurements"
            );
        }
    }
}
