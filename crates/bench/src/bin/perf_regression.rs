//! Perf-regression harness: fixed-seed covariance + join benches for every
//! engine, written to `BENCH_engines.json` so future PRs have a trajectory
//! to compare against.
//!
//! ```text
//! perf_regression [--scale S] [--iters N] [--shards K] [--out PATH]
//!                 [--serving-readers R]
//! ```
//!
//! `--shards` sets the fan-out of the sharded-vs-single-shard arm and
//! `--serving-readers` the client-thread count of the serving arm's
//! multi-reader phase (default for both: one per available core).

use fdb_bench::perf;

fn main() {
    let mut scale = 1.0f64;
    let mut iters = 3usize;
    let mut out = String::from("BENCH_engines.json");
    let mut shards = fdb_core::parallel::default_threads();
    let mut serving_readers = fdb_core::parallel::default_threads().max(2);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = args.next().and_then(|v| v.parse().ok()).expect("--scale S"),
            "--iters" => iters = args.next().and_then(|v| v.parse().ok()).expect("--iters N"),
            "--shards" => shards = args.next().and_then(|v| v.parse().ok()).expect("--shards K"),
            "--serving-readers" => {
                serving_readers =
                    args.next().and_then(|v| v.parse().ok()).expect("--serving-readers R");
            }
            "--out" => out = args.next().expect("--out PATH"),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: perf_regression [--scale S] [--iters N] [--shards K] [--out PATH] \
                     [--serving-readers R]"
                );
                std::process::exit(2);
            }
        }
    }

    let rows = perf::run_all(scale, iters, shards);
    let cart = perf::cart_sort_accounting(scale);
    let views = perf::cart_view_reuse(scale);
    // The IVM arm scales its update count mildly with the dataset.
    let ivm_updates = ((64.0 * scale.sqrt()) as usize).clamp(16, 512);
    let ivm = perf::ivm_maintenance(scale, ivm_updates);
    // Fault-site overhead: cheap enough to always measure, and the JSON
    // records whether the sites were compiled in for this build.
    let fault = perf::fault_overhead(2_000_000);
    // The serving arm: snapshot-read throughput under a live delta
    // stream, 1 reader vs `serving_readers`; mild workload scaling so
    // small `--scale` smoke runs stay quick.
    let serving_queries = ((48.0 * scale.sqrt()) as usize).clamp(8, 256);
    let serving_updates = ((32.0 * scale.sqrt()) as usize).clamp(8, 256);
    let serving = perf::serving_bench(scale, serving_readers, serving_queries, serving_updates);
    // The front-door arm: sustained overload through the bounded-queue
    // admission layer — `--serving-readers` producers hammering a
    // 4-slot queue while 2 readers stream snapshot queries.
    let fd_per_producer = ((24.0 * scale.sqrt()) as usize).clamp(6, 128);
    let frontdoor = perf::frontdoor_bench(scale, serving_readers, 2, fd_per_producer);

    fdb_bench::print_table(
        &["bench", "engine", "config", "wall", "groups", "threads", "morsel_rows"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.bench.to_string(),
                    r.engine.to_string(),
                    r.config.to_string(),
                    fdb_bench::fmt_secs(r.wall_ns as f64 * 1e-9),
                    r.groups.to_string(),
                    r.threads.to_string(),
                    r.morsel_rows.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for (bench, engine, x) in perf::speedups(&rows) {
        println!("speedup {bench}/{engine}: {x:.2}x");
    }
    println!(
        "cart: {} relations, {} sorts on first fit, {} on second (leaves {})",
        cart.relations, cart.first_fit_sorts, cart.second_fit_sorts, cart.leaves
    );
    println!(
        "cart-retailer: {} batches, {}/{} views rescanned cold ({} reused, ratio {:.2}), \
         {} rescanned warm; cached-vs-cold {:.2}x",
        views.batches_run,
        views.views_rescanned,
        views.view_lookups,
        views.views_reused,
        views.reuse_ratio(),
        views.warm_views_rescanned,
        views.warm_speedup()
    );
    println!(
        "ivm-retailer: {} fact inserts maintained at {:.0} updates/s \
         ({} views delta-maintained, {} rescans); delta-vs-recompute {:.1}x",
        ivm.updates,
        ivm.updates_per_sec(),
        ivm.views_maintained,
        ivm.maintained_rescans,
        ivm.speedup()
    );

    println!(
        "fault-injection sites ({}): {:.3} ns/check, {:.4}% of one maintained delta",
        if fault.sites_compiled_in { "compiled in" } else { "compiled out" },
        fault.ns_per_check(),
        fault.overhead_fraction_per_delta() * 100.0
    );

    println!(
        "serving: {} readers at {:.0} qps vs {:.0} qps single ({:.2}x), \
         {} deltas live; stripe waits sort {} view {} ({}+{} stripes)",
        serving.readers,
        serving.qps_multi(),
        serving.qps_single(),
        serving.reader_scaling(),
        serving.deltas_applied,
        serving.sort_contended,
        serving.view_contended,
        serving.sort_stripes,
        serving.view_stripes
    );
    println!(
        "frontdoor: {} producers vs {}-slot queue at {:.0} submits/s \
         (p50 {} ns, p99 {} ns), {} batches for {} submits ({:.2}x coalesced), \
         {:.0} qps read-side",
        frontdoor.producers,
        frontdoor.queue_capacity,
        frontdoor.submit_qps(),
        frontdoor.submit_p50_ns,
        frontdoor.submit_p99_ns,
        frontdoor.batches_committed,
        frontdoor.submitted,
        frontdoor.coalescing_factor(),
        frontdoor.read_qps()
    );

    let json = perf::to_json(&rows, &cart, &views, &ivm, &fault, &serving, &frontdoor);
    std::fs::write(&out, json).expect("write BENCH_engines.json");
    println!("wrote {out}");
}
