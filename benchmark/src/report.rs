//! Everything above a single run: the suite (each workload in a child
//! process, so caches and peak memory do not leak from one to the next),
//! repeated sets with their spread, the results file, and the comparison
//! of two results files against the bounds.

use crate::json::{self, Json};
use crate::stats::{median, quartiles, spread};
use crate::{spec, Args};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// workload -> metric -> one value per set.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs this binary again for one workload and returns its result line
/// with the `# ` notes it printed.
fn run_child(name: &str, a: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name, "--out", &a.out])
        .args(["--seed", &a.seed.to_string(), "--seconds", &a.seconds.to_string()])
        .args(["--scale", &a.scale.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{name} exited with {}:\n{text}", out.status));
    }
    let last = text.lines().last().ok_or(format!("{name} printed nothing"))?;
    let Json::Obj(mut result) = json::parse(last).map_err(|e| format!("{name}: {e}"))? else {
        return Err(format!("{name}: the result line is not an object"));
    };
    let notes = text.lines().filter_map(|l| l.strip_prefix("# ")).map(|l| Json::Str(l.into()));
    result.insert("notes".into(), Json::Arr(notes.collect()));
    Ok(Json::Obj(result))
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Runs `--repeat` sets of every workload, prints them, writes the results
/// file, and returns it.
pub fn run_suite(a: &Args) -> Result<Json, String> {
    let mut sets = Vec::new();
    for set in 0..a.repeat {
        let mut by_workload = BTreeMap::new();
        for w in spec::WORKLOADS {
            eprintln!("[set {}/{}] {} ...", set + 1, a.repeat, w.name);
            let mut entry = BTreeMap::new();
            entry.insert("end_to_end".to_string(), run_child(w.name, a, false)?);
            if a.trace {
                entry.insert("per_layer".to_string(), run_child(w.name, a, true)?);
            }
            by_workload.insert(w.name.to_string(), Json::Obj(entry));
        }
        sets.push(Json::Obj(by_workload));
    }
    let meta = Json::obj([
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("scale", Json::Num(a.scale)),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64)),
        ("rustc", Json::Str(tool_version("rustc", &["--version"]))),
        ("commit", Json::Str(tool_version("git", &["rev-parse", "HEAD"]))),
    ]);
    let results = Json::obj([("meta", meta), ("sets", Json::Arr(sets))]);
    print_results(&results);
    write_file(Path::new(&a.out), &format!("{results}\n"))?;
    println!("results written to {}", a.out);
    Ok(results)
}

/// The runs of one kind (`end_to_end` or `per_layer`) in every set.
fn runs<'a>(results: &'a Json, kind: &'a str) -> impl Iterator<Item = (&'a String, &'a Json)> {
    let sets = results.get("sets").and_then(Json::as_arr).unwrap_or(&[]);
    sets.iter()
        .filter_map(Json::as_obj)
        .flatten()
        .filter_map(move |(workload, entry)| Some((workload, entry.get(kind)?)))
}

fn samples(results: &Json, kind: &str) -> Samples {
    let mut out = Samples::new();
    for (workload, run) in runs(results, kind) {
        let metrics = run.get("metrics").and_then(Json::as_obj);
        for (name, m) in metrics.into_iter().flatten() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry(workload.clone()).or_default().entry(name.clone()).or_default().push(v);
            }
        }
    }
    out
}

/// True if every run of every set reported `correct`.
pub fn all_correct(results: &Json) -> bool {
    ["end_to_end", "per_layer"].iter().all(|kind| {
        runs(results, kind).all(|(_, run)| run.get("correct").and_then(Json::as_bool) == Some(true))
    })
}

/// `listed`: metric name -> (unit, what it means or moves).
fn print_kind(results: &Json, kind: &str, listed: &BTreeMap<&str, (&str, &str)>) {
    let all = samples(results, kind);
    for w in spec::WORKLOADS {
        let Some(metrics) = all.get(w.name) else { continue };
        println!("\n{} ({kind})", w.name);
        for (_, run) in runs(results, kind).filter(|(name, _)| *name == w.name) {
            let get = |k| run.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "  attempted {}  failed {}  fail_frac {}",
                get("attempted"),
                get("failed"),
                get("failed") / get("attempted")
            );
            for note in run.get("notes").and_then(Json::as_arr).unwrap_or(&[]) {
                println!("  # {}", note.as_str().unwrap_or(""));
            }
        }
        for (name, values) in metrics {
            // A layer the workload never enters reads 0 in every set.
            if kind == "per_layer" && values.iter().all(|v| *v == 0.0) {
                continue;
            }
            let (unit, about) = listed.get(name.as_str()).copied().unwrap_or(("", ""));
            match quartiles(values) {
                None => println!("  {name:<36} {:>16.6} {unit:<6} {about}", values[0]),
                Some([q1, q2, q3]) => println!(
                    "  {name:<36} {q2:>16.6} {unit:<6} q1 {q1:.6}  q3 {q3:.6}  spread {:.2} %  n {}",
                    spread(values).unwrap_or(f64::NAN) * 100.0,
                    values.len()
                ),
            }
        }
    }
}

/// Every metric by name with its unit; with more than one set, the
/// median, the quartiles and the spread between them.
pub fn print_results(results: &Json) {
    let e2e = spec::END_TO_END.iter().map(|m| (m.name, (m.unit, m.what))).collect();
    let layers = spec::PER_LAYER.iter().map(|m| (m.name, (m.unit, m.moves))).collect();
    print_kind(results, "end_to_end", &e2e);
    print_kind(results, "per_layer", &layers);
    let all = samples(results, "end_to_end");
    let fresh = |w: &str| all.get(w).and_then(|m| m.get("fresh_p50_ms")).map(|v| median(v));
    if let (Some(m), Some(r)) = (fresh("materialize_wide"), fresh("ridge_wide")) {
        println!(
            "\npaper's ratio (derived, not gated): materialize_wide {m:.1} ms / ridge_wide {r:.1} ms = {:.3}",
            m / r
        );
    }
}

/// Prints the change of every end-to-end metric from `old` to `new`, as a
/// share of `old` and signed so that positive is worse, against its bound.
/// Returns false if any got worse by more than its bound.
pub fn compare(old: &Json, new: &Json) -> bool {
    let (old, new) = (samples(old, "end_to_end"), samples(new, "end_to_end"));
    let mut ok = true;
    println!(
        "\n{:<20} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "worse by", "bound"
    );
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let side = |s: &Samples| s.get(w.name).and_then(|x| x.get(m.name)).cloned();
            let (Some(o), Some(n)) = (side(&old), side(&new)) else {
                println!("{:<20} {:<14} missing on one side", w.name, m.name);
                ok = false;
                continue;
            };
            let (o_med, n_med) = (median(&o), median(&n));
            let worse =
                if m.higher_is_better { (o_med - n_med) / o_med } else { (n_med - o_med) / o_med };
            // A spread wider than the bound cannot resolve a change of
            // the bound's size either way.
            let noisy = [&o, &n].iter().any(|v| spread(v).is_some_and(|s| s > m.bound));
            let verdict = if worse > m.bound {
                ok = false;
                "REGRESSION"
            } else if noisy {
                "unresolved (spread > bound)"
            } else {
                "ok"
            };
            println!(
                "{:<20} {:<14} {o_med:>14.4} {n_med:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(values: &[f64]) -> Json {
        let sets = values.iter().map(|v| {
            let metrics = spec::END_TO_END.iter().map(|m| {
                (m.name, Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(m.unit.into()))]))
            });
            let run = Json::obj([("correct", Json::Bool(true)), ("metrics", Json::obj(metrics))]);
            Json::obj(
                spec::WORKLOADS.iter().map(|w| (w.name, Json::obj([("end_to_end", run.clone())]))),
            )
        });
        Json::obj([("sets", Json::Arr(sets.collect()))])
    }

    #[test]
    fn samples_collect_one_value_per_set() {
        let s = samples(&results(&[10.0, 12.0, 11.0]), "end_to_end");
        assert_eq!(s.len(), spec::WORKLOADS.len());
        assert_eq!(s["serve_mixed"]["setup_s"], [10.0, 12.0, 11.0]);
        assert!(samples(&results(&[1.0]), "per_layer").is_empty());
        assert!(all_correct(&results(&[1.0])));
    }

    #[test]
    fn compare_flags_only_changes_beyond_the_bound() {
        let base = results(&[100.0]);
        assert!(compare(&base, &results(&[100.0])));
        // 2 % is inside every bound; lower-is-better metrics got worse,
        // work_per_s got better.
        assert!(compare(&base, &results(&[102.0])));
        // +40 % is beyond every lower-is-better bound.
        assert!(!compare(&base, &results(&[140.0])));
        // -40 % improves the times but is a throughput regression.
        assert!(!compare(&base, &results(&[60.0])));
        assert!(!compare(&base, &Json::obj([("sets", Json::Arr(vec![]))])));
    }
}
