//! Runs the built binary the way the acceptance driver and a developer do.

use borg_bench::json::{self, Json};
use borg_bench::spec;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_borg-bench")).args(args).output().expect("the binary runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn smoke_run_holds_every_workload_to_the_oracle() {
    let results = scratch("smoke").join("results.json");
    let started = Instant::now();
    let out = bench(&["--smoke", "--seed", "11", "--out", results.to_str().unwrap()]);
    let took = started.elapsed().as_secs_f64();
    assert!(out.status.success(), "{}\n{}", stdout(&out), String::from_utf8_lossy(&out.stderr));
    // An optimised build does the six workloads in about six seconds; a
    // debug build is several times slower and is not held to it.
    assert!(cfg!(debug_assertions) || took < 10.0, "the smoke run took {took:.1} s");

    let file = json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    let meta = file.get("meta").unwrap();
    assert_eq!(meta.get("seed").and_then(Json::as_f64), Some(11.0));
    for key in ["nproc", "rustc", "commit", "scale", "seconds"] {
        assert!(meta.get(key).is_some(), "meta lacks {key}");
    }
    let sets = file.get("sets").and_then(Json::as_arr).unwrap();
    assert_eq!(sets.len(), 1);
    for w in spec::WORKLOADS {
        let run = sets[0].get(w.name).and_then(|e| e.get("end_to_end")).expect(w.name);
        assert_eq!(run.get("correct").and_then(Json::as_bool), Some(true), "{}", w.name);
        assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0), "{}", w.name);
        // More than the one attempt the contract's floor would give: the
        // oracle compared aggregates and the loop ran operations.
        assert!(run.get("attempted").and_then(Json::as_f64).unwrap() > 20.0, "{}", w.name);
    }
    assert!(stdout(&out).contains("paper's ratio"));
}

#[test]
fn driver_command_line_prints_exactly_the_listed_metrics() {
    let out_file = scratch("driver").join("results.json");
    for (trace, listed) in [
        ("0", spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect::<Vec<_>>()),
        ("1", spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect::<Vec<_>>()),
    ] {
        let out = bench(&[
            "--workload",
            "refresh_stream",
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--scale",
            "0.02",
            "--trace",
            trace,
            "--out",
            out_file.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = stdout(&out);
        let line = json::parse(text.lines().last().unwrap()).unwrap();
        let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true), "{text}");
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), listed.len());
        for (name, unit) in listed {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name} is missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(value.is_finite() && (trace == "1" || value > 0.0), "{name} = {value}");
        }
    }
    let spans =
        std::fs::read_to_string(out_file.with_file_name("trace-refresh_stream.json")).unwrap();
    assert!(spans.contains("\"name\":\"op.refresh\"") && spans.contains("\"self_ns\""));
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    // The first note starts with the sizes of the generated inputs, down
    // to the bytes of their CSV.
    let run = |seed: &str| {
        let out = bench(&[
            "--workload",
            "materialize_wide",
            "--seed",
            seed,
            "--seconds",
            "0.2",
            "--scale",
            "0.02",
        ]);
        let text = stdout(&out);
        text.lines()
            .find(|l| l.contains("CSV bytes"))
            .map(|l| l.split(';').next().unwrap().to_string())
            .unwrap()
    };
    assert_eq!(run("5"), run("5"));
    assert_ne!(run("5"), run("6"));
}

#[test]
fn compare_exits_non_zero_only_on_a_regression() {
    let dir = scratch("compare");
    let write = |name: &str, value: f64| {
        let metrics = Json::obj(spec::END_TO_END.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(m.unit.into()))]))
        }));
        let run = Json::obj([("correct", Json::Bool(true)), ("metrics", metrics)]);
        let set = Json::obj(
            spec::WORKLOADS.iter().map(|w| (w.name, Json::obj([("end_to_end", run.clone())]))),
        );
        let path = dir.join(name);
        std::fs::write(&path, Json::obj([("sets", Json::Arr(vec![set]))]).to_string()).unwrap();
        path.to_str().unwrap().to_string()
    };
    let (old, same, worse) =
        (write("old.json", 100.0), write("same.json", 101.0), write("worse.json", 150.0));
    let ok = bench(&["--compare", &old, "--results", &same]);
    assert_eq!(ok.status.code(), Some(0), "{}", stdout(&ok));
    let bad = bench(&["--compare", &old, "--results", &worse]);
    assert_eq!(bad.status.code(), Some(1), "{}", stdout(&bad));
    assert!(stdout(&bad).contains("REGRESSION"));
    assert_eq!(
        bench(&["--compare", "/nonexistent.json", "--results", &same]).status.code(),
        Some(2)
    );
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    let out = bench(&["--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty());
}
