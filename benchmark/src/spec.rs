//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric each is expected to move. `BENCHMARK.json` at the repository root
//! is generated from these tables (`--emit-benchmark-json`) and a test
//! keeps the two equal.

use crate::json::Json;

/// How long one run measures; `run_seconds` in `BENCHMARK.json` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    /// One line: input, operation, loop type, and why it is here.
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ridge_wide",
        why: "Retailer x2 (243k fact rows, 5 relations): CSV -> 203-aggregate covariance batch -> closed-form ridge -> predict, closed loop, 1 client. Wide batch, large fact: over 90% inside Engine::run.",
    },
    Workload {
        name: "ridge_narrow_skew",
        why: "zipf_snowflake 1M rows, 4096 keys, skew 2, 14 aggregates, same op. Nothing to fuse or share: CSV parse (~50%) and per-row overhead dominate; a wide-batch specialisation must not move it.",
    },
    Workload {
        name: "cart_nodes",
        why: "Retailer x0.25 (30k rows): CSV -> depth-4 CART, 32 Engine::run calls of ~870 filtered aggregates -> predict. Planning, view-cache reuse and split search carry the time; cold vs warm differ 20x.",
    },
    Workload {
        name: "refresh_stream",
        why: "Retailer x1, OnlineRidge: seeded deltas (75% 1-row insert, 10% 64-row, 10% delete, 5% Item price update), op = apply_delta + model(), closed loop. No fact scan: a scan optimisation must not move it.",
    },
    Workload {
        name: "serve_mixed",
        why: "Retailer x0.5 covariance query behind FrontDoor: 1-row inserts open loop at 200/s beside one closed-loop reader. Visibility is read off the reader's own log: publish lag and reads under writes.",
    },
    Workload {
        name: "materialize_wide",
        why: "The structure-agnostic arm on ridge_wide's data: CSV -> join -> one-hot matrix -> shuffle -> one-epoch SGD -> predict. Its fresh_p50_ms over ridge_wide's is the paper's ratio; touches no engine.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

/// Every bound is the contract's cap, 0.25: three times the widest quartile
/// spread seen over ten seeds in three sets of runs is 0.24 to 0.30,
/// depending on the metric (see the spread table in README.md). What sets
/// it is not sampling noise but the shared 2-core machine: whole runs shift
/// by a few percent, most on the memory-bound operations.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "fresh_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        what: "median time from new data in to an answer that reflects it",
    },
    EndToEnd {
        name: "fresh_tail_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        what: "the same, at the highest percentile the workload's sample count supports",
    },
    EndToEnd {
        name: "ask_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        what: "median time to answer again from data already in",
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        what: "units of work completed per second of the measured window",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        what: "median of repeated set-ups: generate, serialise, prepare, small-scale oracle check",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Which end-to-end metric this should move, and where.
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false, moves }
}

const fn layer_up(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true, moves }
}

const TRAIN_FRESH: &str = "fresh_p50_ms on ridge_wide and cart_nodes; half of it on ridge_narrow_skew; nothing on refresh_stream";
const TRAIN_ASK: &str = "ask_p50_ms on the three training workloads";
const SOLVE: &str =
    "ask_p50_ms on the ridge workloads and refresh_stream; negligible in fresh_p50_ms";
const CART: &str = "fresh_p50_ms and ask_p50_ms on cart_nodes";
const PANEL: &str = "explains fresh_p50_ms on the ridge workloads (run on 1/8 of the rows)";
const MATERIALIZE: &str = "fresh_p50_ms on materialize_wide only";
const REFRESH_P50: &str = "fresh_p50_ms on refresh_stream";
const REFRESH_TAIL: &str = "fresh_tail_ms on refresh_stream";
const SERVE_LAG: &str = "fresh_p50_ms and fresh_tail_ms on serve_mixed";

pub const PER_LAYER: &[PerLayer] = &[
    layer("data.csv.parse_s", "s", "fresh_p50_ms, mainly ridge_narrow_skew and materialize_wide"),
    layer("data.csv.bytes", "bytes", "input size of data.csv.parse_s"),
    layer("core.engine.run_s", "s", TRAIN_FRESH),
    layer("core.engine.run_calls", "count", TRAIN_FRESH),
    layer("core.engine.aggs", "count", TRAIN_FRESH),
    layer_up("core.engine.rows_per_s", "1/s", TRAIN_FRESH),
    layer("core.engine.result_groups", "count", TRAIN_FRESH),
    layer("core.engine.warm_run_s", "s", TRAIN_ASK),
    layer("core.engine.warm_over_cold", "ratio", TRAIN_ASK),
    layer("core.stats.extract_s", "s", SOLVE),
    layer("core.stats.bytes", "bytes", "payload size against query.join_bytes (exact count)"),
    layer("ml.linreg.solve_s", "s", SOLVE),
    layer("ml.tree.fit_s", "s", CART),
    layer("ml.tree.self_s", "s", CART),
    layer_up("ml.tree.view_reuse_ratio", "ratio", CART),
    layer("ml.predict_s", "s", "fresh_p50_ms on the training workloads"),
    layer("core.backend.flat.run_s", "s", PANEL),
    layer("core.backend.factorized.run_s", "s", PANEL),
    layer("core.backend.lmfao.run_s", "s", PANEL),
    layer("core.dispatch.regret", "ratio", "a dispatch change moves this, not the backend rows"),
    layer("core.parallel.t1_run_s", "s", "fresh_p50_ms on the ridge workloads"),
    layer_up(
        "core.parallel.speedup",
        "ratio",
        "fresh_p50_ms on the ridge workloads; 0 = refused, fewer than 2 cores",
    ),
    layer("query.join_s", "s", MATERIALIZE),
    layer("query.join_bytes", "bytes", "payload size against core.stats.bytes (exact count)"),
    layer("ml.matrix.build_s", "s", MATERIALIZE),
    layer("ml.sgd.shuffle_s", "s", "fresh_p50_ms and ask_p50_ms on materialize_wide"),
    layer("ml.sgd.train_s", "s", "fresh_p50_ms and ask_p50_ms on materialize_wide"),
    layer("ml.online.prepare_s", "s", "setup_s on refresh_stream"),
    layer("ml.online.apply_s.fact1", "s", REFRESH_P50),
    layer("ml.online.apply_s.fact64", "s", "work_per_s on refresh_stream"),
    layer("ml.online.apply_s.delete", "s", REFRESH_TAIL),
    layer("ml.online.apply_s.dim", "s", REFRESH_TAIL),
    layer("ml.online.model_s", "s", "ask_p50_ms and fresh_p50_ms on refresh_stream"),
    layer("data.delta.apply_s", "s", "the catalog's share of ml.online.apply_s.*"),
    layer("core.maintain.recompute_s", "s", "what refresh_stream would cost without maintenance"),
    layer("core.maintain.delta_vs_recompute", "ratio", REFRESH_P50),
    layer(
        "core.serve.read_idle_ms",
        "ms",
        "ask_p50_ms on serve_mixed minus this is what writes cost readers",
    ),
    layer("core.serve.read_p90_ms", "ms", "tail of ask_p50_ms on serve_mixed"),
    layer("core.serve.write_alone_ms", "ms", SERVE_LAG),
    layer("core.frontdoor.submit_ms", "ms", SERVE_LAG),
    layer("core.frontdoor.epochs_per_submit", "ratio", SERVE_LAG),
    layer("core.frontdoor.refused", "count", "failed submits on serve_mixed"),
    layer(
        "loadgen.late_p99_ms",
        "ms",
        "how late the open-loop generator ran; large means the numbers are the generator's",
    ),
    layer(
        "proc.peak_rss_mb",
        "MB",
        "memory, not time; per layer because it follows the seed on cart_nodes (spread 29 %)",
    ),
    layer_up("bench.fresh_samples", "count", "samples behind fresh_p50_ms and fresh_tail_ms"),
    layer_up("bench.ask_samples", "count", "samples behind ask_p50_ms"),
    layer("trace.unattributed_frac", "ratio", "share of the op no layer span claims"),
    layer("trace.overhead_frac", "ratio", "traced over untraced fresh_p50_ms, minus one"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn better(higher: bool) -> Json {
    Json::Str(if higher { "higher" } else { "lower" }.into())
}

/// `BENCHMARK.json`, one key per line so a diff of it reads.
pub fn benchmark_json() -> String {
    let str_list = |items: &[&str]| {
        items.iter().map(|s| Json::Str((*s).into()).to_string()).collect::<Vec<_>>().join(", ")
    };
    let rows =
        |rows: Vec<Json>| rows.iter().map(|r| format!("    {r}")).collect::<Vec<_>>().join(",\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::Str(w.name.into())), ("why", Json::Str(w.why.into()))]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", better(m.higher_is_better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", better(m.higher_is_better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        str_list(&command),
        str_list(&["benchmark"]),
        rows(workloads),
        rows(e2e),
        rows(layers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name));
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name));
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        let setup =
            END_TO_END.iter().find(|m| m.name == "setup_s").expect("the contract requires setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        // 4 + 22 runs per workload, each RUN_SECONDS plus set-up, inside
        // the driver's 3420 s with room for two builds.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 6) + 300 <= 3420, "{runs} runs do not fit");
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with --emit-benchmark-json");
        assert!(committed.len() <= 64 * 1024);
        let parsed = crate::json::parse(&committed).expect("valid JSON");
        let keys: Vec<&str> = parsed.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
    }
}
