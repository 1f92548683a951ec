//! `borg-bench`: the end-to-end, layer-attributed benchmark of `fdb`.
//!
//! ```text
//! borg-bench --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last line of standard output is
//!     {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
//!     with --trace 0, per-layer metrics (and out/trace-NAME.json) with 1
//! borg-bench [--seed N] [--seconds S] [--trace] [--repeat N] [--out FILE]
//!     every workload, each in a child process of its own, then a table,
//!     the paper's ratio, and the results JSON
//! borg-bench --results FILE
//!     print a results file again instead of running
//! borg-bench --compare OLD.json [--results NEW.json]
//!     deltas of NEW (or of a fresh run) against OLD, each against its
//!     bound; exit code 1 on a regression
//! borg-bench --smoke
//!     every workload at scale 0.02 for a second, oracle check on
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! how they interact.

pub mod engine;
pub mod gen;
pub mod json;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use json::Json;
use std::process::ExitCode;

/// Where `results.json` and `trace-*.json` go unless `--out` says
/// otherwise; relative to the working directory, the repository root.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    repeat: usize,
    compare: Option<String>,
    results: Option<String>,
    out: String,
    smoke: bool,
    emit_benchmark_json: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            workload: None,
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
            scale: 1.0,
            trace: false,
            repeat: 1,
            compare: None,
            results: None,
            out: format!("{OUT_DIR}/results.json"),
            smoke: false,
            emit_benchmark_json: false,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: `{v}` is not a number"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = num(flag, value("a seed")?)?,
            "--seconds" => a.seconds = num(flag, value("seconds")?)?,
            "--scale" => a.scale = num(flag, value("a factor")?)?,
            "--repeat" => a.repeat = num(flag, value("a count")?)?,
            "--compare" => a.compare = Some(value("a results file")?),
            "--results" => a.results = Some(value("a results file")?),
            "--out" => a.out = value("a file")?,
            "--smoke" => a.smoke = true,
            "--emit-benchmark-json" => a.emit_benchmark_json = true,
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite() && a.scale > 0.0 && a.scale.is_finite()) {
        return Err("--seconds and --scale must be positive".into());
    }
    if a.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    if let Some(w) = &a.workload {
        if spec::workload(w).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("no workload `{w}`; there are: {}", names.join(", ")));
        }
    }
    Ok(a)
}

/// Runs one workload in this process and prints its result line.
fn run_one(name: &str, a: &Args) -> Result<(), String> {
    let cfg = workloads::Cfg { seed: a.seed, seconds: a.seconds, scale: a.scale, traced: a.trace };
    println!(
        "workload {name}  seed {}  seconds {}  scale {}  trace {}",
        a.seed,
        a.seconds,
        a.scale,
        u8::from(a.trace)
    );
    let mut rep = workloads::run(name, &cfg).map_err(|e| format!("{name}: {e}"))?;
    for note in &rep.notes {
        println!("# {note}");
    }
    // The result line carries every metric of the list, whatever the
    // workload: a layer this workload never enters reads 0.
    let listed: Vec<(&str, &str)> = if a.trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in listed {
        let value = rep.metrics.remove(name).unwrap_or(0.0);
        if !value.is_finite() || (!a.trace && value <= 0.0) {
            rep.failed += 1;
            println!("# FAILED: {name} = {value} is not a measurement");
        }
        println!("  {name:<36} {value:>16.6} {unit}");
        let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]);
        metrics.push((name, entry));
    }
    if let Some(stray) = rep.metrics.keys().next() {
        return Err(format!("`{stray}` was measured but is in no metric list"));
    }
    if a.trace {
        let threads: Vec<(&str, &trace::Trace)> =
            rep.threads.iter().map(|(n, t)| (*n, t)).collect();
        let path = std::path::Path::new(&a.out).with_file_name(format!("trace-{name}.json"));
        report::write_file(&path, &trace::to_json(&threads))?;
        println!("# spans written to {}", path.display());
    }
    let line = Json::obj([
        ("correct", Json::Bool(rep.failed == 0)),
        ("attempted", Json::Num(rep.attempted.max(1) as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{line}");
    Ok(())
}

fn run(argv: &[String]) -> Result<bool, String> {
    let mut args = parse_args(argv)?;
    if args.emit_benchmark_json {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if let Some(name) = &args.workload {
        // The result line is the verdict; the exit code only says that it
        // was printed.
        return run_one(name, &args).map(|()| true);
    }
    if args.smoke {
        args.scale = workloads::ORACLE_SCALE;
        args.seconds = 1.0;
    }
    let new = match &args.results {
        Some(path) => {
            let read = report::read_results(path)?;
            report::print_results(&read);
            read
        }
        None => report::run_suite(&args)?,
    };
    let mut ok = report::all_correct(&new);
    if let Some(old) = &args.compare {
        ok &= report::compare(&report::read_results(old)?, &new);
    }
    Ok(ok)
}

/// The whole command line: 0 when everything ran and was correct, 1 on a
/// wrong answer or a regression, 2 when the run itself failed.
pub fn main(argv: &[String]) -> ExitCode {
    match run(argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("borg-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload cart_nodes --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("cart_nodes"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(!args("--workload cart_nodes --trace 0 --seed 2").unwrap().trace);
        // Bare `--trace` before another flag.
        let a = args("--trace --seed 4").unwrap();
        assert!(a.trace && a.seed == 4);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--repeat 0").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("--seed").is_err());
    }
}
