//! The workloads and what they share: the run configuration, the report a
//! run fills in, and the set-up / measure driver.

pub mod refresh;
pub mod serve;
pub mod train;

use crate::stats::median;
use crate::trace::Trace;
use fdb::data::DataError;
use std::collections::BTreeMap;
use std::time::Instant;

/// One run's knobs, all from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Multiplies every workload's input size; 1 is the benchmark, 0.02
    /// the smoke run.
    pub scale: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub traced: bool,
}

/// Input size of the small instance every set-up holds to the oracle.
pub const ORACLE_SCALE: f64 = 0.02;

/// What one run found.
#[derive(Default)]
pub struct Report {
    /// Operations and checks attempted, and how many of them failed:
    /// returned `Err`, were refused, or produced a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer of a traced one.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sizes and choices worth printing next to the numbers.
    pub notes: Vec<String>,
    /// Spans by thread, for `trace.json`.
    pub threads: Vec<(&'static str, Trace)>,
}

impl Report {
    /// Counts one attempt; a miss is a failure and says why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Enough to diagnose, not a line per failed op.
            if self.failed <= 10 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A workload: a set-up that can be repeated, and a measurement over what
/// it prepared.
pub trait Workload: Sized {
    /// Generates inputs, prepares the system, and holds a small instance of
    /// the workload's query to the oracle. Everything here is `setup_s`.
    fn setup(cfg: &Cfg) -> Result<Self, DataError>;

    /// `(aggregates checked, aggregates that disagreed)` in set-up.
    fn oracle(&self) -> (u64, u64);

    fn measure(self, cfg: &Cfg, report: &mut Report) -> Result<(), DataError>;
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn drive<W: Workload>(cfg: &Cfg) -> Result<Report, DataError> {
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..if cfg.traced { 1 } else { SETUP_REPS } {
        // Drop the previous instance first: a set-up never runs beside the
        // threads or memory of another.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(W::setup(cfg)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up ran");
    let (checked, bad) = prepared.oracle();
    report.attempted += checked;
    report.failed += bad;
    if bad > 0 {
        report.note(format!("FAILED: {bad} of {checked} aggregates disagree with the oracle"));
    }
    report.check(checked > 0, || "the oracle checked nothing".into());
    if !cfg.traced {
        report.set("setup_s", median(&times));
    }
    prepared.measure(cfg, &mut report)?;
    Ok(report)
}

/// Runs the workload called `name`.
pub fn run(name: &str, cfg: &Cfg) -> Result<Report, DataError> {
    match name {
        "ridge_wide" => drive::<train::RidgeWide>(cfg),
        "ridge_narrow_skew" => drive::<train::RidgeNarrowSkew>(cfg),
        "cart_nodes" => drive::<train::CartNodes>(cfg),
        "materialize_wide" => drive::<train::MaterializeWide>(cfg),
        "refresh_stream" => drive::<refresh::RefreshStream>(cfg),
        "serve_mixed" => drive::<serve::ServeMixed>(cfg),
        other => Err(DataError::Invalid(format!("no workload called `{other}`"))),
    }
}

/// `VmHWM`, the most resident memory the process has held, in MB; `NaN`
/// where `/proc` does not say. Traced runs read it when the measured loop
/// ends, before any extra per-layer experiment allocates.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds since `t`.
pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_attempts_and_failures() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        r.check(false, || "boom".into());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.notes, ["FAILED: boom"]);
    }

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 1.0);
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let cfg = Cfg { seed: 1, seconds: 0.1, scale: 0.02, traced: false };
        assert!(run("nope", &cfg).is_err());
    }
}
