//! The perf-regression harness behind the `perf_regression` binary.
//!
//! Runs the grouped-covariance and join-count benches at a fixed seed for
//! every engine at its defaults, plus the sharded-vs-single-shard pair,
//! and writes them to `BENCH_engines.json` — the trajectory a later PR
//! diffs its own run against. Each row records the engine, config,
//! dataset, best wall time in nanoseconds over the requested iterations,
//! and the total number of groups emitted (a cheap cross-engine agreement
//! checksum). The Figure 6 ablation stages live in [`crate::fig6`].

use fdb_core::{
    covariance_batch, AggQuery, Engine, EngineConfig, FactorizedEngine, FlatEngine, LmfaoEngine,
    ShardedEngine, ViewCache,
};
use fdb_data::SortCache;
use fdb_datasets::{retailer, zipf_snowflake, Dataset, RetailerConfig, ZipfConfig};
use fdb_ml::tree::{DecisionTree, TreeConfig};

/// One measurement row of `BENCH_engines.json`.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Bench name: `grouped-covariance` or `join-count`.
    pub bench: &'static str,
    /// Engine name (`lmfao`, `factorized`, `flat`, `sharded-lmfao`).
    pub engine: &'static str,
    /// `optimized` (the engine's defaults — the label earlier
    /// `BENCH_engines.json` files key these rows by), or — for the sharding
    /// rows — `sharded` (one shard per worker) / `single-shard` (the wrapper's
    /// 1-partition configuration, which short-circuits to the unwrapped
    /// inner engine: no partition, no merge — i.e. "not sharding at all",
    /// the baseline the sharded arm's speedup is measured against).
    pub config: &'static str,
    /// Dataset label.
    pub dataset: String,
    /// Best wall time over the iterations, in nanoseconds.
    pub wall_ns: u128,
    /// Total groups emitted across the batch (agreement checksum).
    pub groups: usize,
    /// Worker fan-out of the row (shard/thread count; 1 = sequential).
    pub threads: usize,
    /// Morsel size (rows per work unit) in effect for the row.
    pub morsel_rows: usize,
    /// Cores available on the measuring host (`default_threads()`): the
    /// context a row's `threads` and any cross-host comparison of its
    /// parallel speedups must be read against — a 1-core CI runner cannot
    /// show shard scaling no matter what the code does.
    pub available_cores: usize,
}

/// Sort accounting of one CART training run (the "sorts each relation at
/// most once per fit" acceptance check).
#[derive(Debug, Clone, Default)]
pub struct CartSorts {
    /// Relations in the feature extraction join.
    pub relations: usize,
    /// Actual sorts during the first fit.
    pub first_fit_sorts: u64,
    /// Additional sorts during a second, identical fit (0 = fully cached).
    pub second_fit_sorts: u64,
    /// Leaves of the fitted tree — evidence the trainer actually ran many
    /// per-node batches over the cached views.
    pub leaves: usize,
}

/// View-cache accounting of one CART training pair on the LMFAO engine —
/// the `cart-retailer` arm: a **cold** fit (view cache cleared first) and
/// an identical **warm** fit. Within the cold fit, residual-filter reuse
/// must already serve every subtree a node's split filters do not touch
/// (`views_rescanned` strictly below `view_lookups`); the warm fit must
/// be served entirely from the cache.
#[derive(Debug, Clone, Default)]
pub struct CartViewReuse {
    /// Engine batches run by the cold fit (one per tree node + the
    /// candidate-statistics batch).
    pub batches_run: usize,
    /// Leaves of the fitted tree.
    pub leaves: usize,
    /// Total view lookups during the cold fit (`reused + rescanned`) —
    /// the "nodes × views-per-batch" bill a cache-less engine pays.
    pub view_lookups: u64,
    /// Views served from cache during the cold fit (cross-node residual
    /// reuse).
    pub views_reused: u64,
    /// Views actually materialized during the cold fit.
    pub views_rescanned: u64,
    /// Views rescanned by the identical warm fit (0 = fully cached).
    pub warm_views_rescanned: u64,
    /// Wall time of the cold fit, nanoseconds.
    pub cold_wall_ns: u128,
    /// Wall time of the warm fit, nanoseconds.
    pub warm_wall_ns: u128,
}

impl CartViewReuse {
    /// Fraction of cold-fit view lookups served from cache.
    pub fn reuse_ratio(&self) -> f64 {
        if self.view_lookups == 0 {
            0.0
        } else {
            self.views_reused as f64 / self.view_lookups as f64
        }
    }

    /// Cold wall time over warm wall time (the cached-vs-cold training
    /// speedup).
    pub fn warm_speedup(&self) -> f64 {
        self.cold_wall_ns as f64 / self.warm_wall_ns.max(1) as f64
    }
}

/// The fixed-seed retailer instance of the harness; `scale = 1.0` is the
/// test scale the CI step runs.
pub fn perf_dataset(scale: f64) -> Dataset {
    let base = RetailerConfig { locations: 14, dates: 20, items: 60, fill: 0.5, seed: 7 };
    retailer(RetailerConfig {
        locations: ((base.locations as f64) * scale.cbrt()).ceil() as usize,
        dates: ((base.dates as f64) * scale.cbrt()).ceil() as usize,
        items: ((base.items as f64) * scale.cbrt()).ceil() as usize,
        ..base
    })
}

/// The grouped-covariance batch of the harness (Figure 5 shape: continuous
/// moments, continuous–categorical interactions, categorical pairs).
pub fn covariance_query(ds: &Dataset) -> AggQuery {
    let rels: Vec<&str> = ds.relation_refs();
    let batch = covariance_batch(
        &["prize", "maxtemp", "population", "inventoryunits"],
        &["rain", "category", "categoryCluster"],
    );
    AggQuery::new(&rels, batch)
}

/// The join-cardinality query (a single `COUNT(*)` through the same IR).
pub fn join_count_query(ds: &Dataset) -> AggQuery {
    let rels: Vec<&str> = ds.relation_refs();
    AggQuery::new(&rels, {
        let mut b = fdb_core::AggBatch::new();
        b.push(fdb_core::Aggregate::count());
        b
    })
}

fn total_groups(res: &fdb_core::BatchResult) -> usize {
    (0..res.values.len()).map(|i| res.grouped(i).len()).sum()
}

/// Times `engine` on `q`, returning the best wall time and the checksum.
fn time_engine(ds: &Dataset, q: &AggQuery, engine: &dyn Engine, iters: usize) -> (u128, usize) {
    let mut best = u128::MAX;
    let mut groups = 0;
    for _ in 0..iters.max(1) {
        let t0 = std::time::Instant::now();
        let res = engine.run(&ds.db, q).expect("perf query is well-formed");
        best = best.min(t0.elapsed().as_nanos());
        groups = total_groups(&res);
    }
    (best, groups)
}

/// Runs every bench × engine combination with `shards` partitions in the
/// sharded arm.
///
/// Besides the per-engine rows this measures a **sharded vs
/// single-shard** pair: `ShardedEngine<LmfaoEngine>` (inner engine
/// single-threaded, so the pair isolates shard-level data parallelism)
/// over `shards` partitions vs the 1-partition configuration, which
/// short-circuits to the plain unwrapped engine. Their ratio is therefore
/// "sharding vs not sharding": cross-core scaling on a multi-core host;
/// pure partition+merge+redundant-dimension-scan overhead (< 1×) on a
/// single core. With the small-fact fallback
/// ([`fdb_core::DEFAULT_MIN_ROWS_PER_SHARD`]) the sharded arm declines
/// to shard facts whose per-shard row count is below the threshold — the
/// test-scale retailer lands there, so the pair records ≈ 1× (the
/// fallback fix) instead of the former < 1× overhead regression; larger
/// `--scale` values shard for real.
pub fn run_all(scale: f64, iters: usize, shards: usize) -> Vec<PerfRow> {
    let ds = perf_dataset(scale);
    let label = format!("retailer-x{scale}");
    let mut rows = Vec::new();
    // The cross-batch view cache is bypassed in every timed engine row:
    // with it on, iterations after the first would measure cached result
    // extraction instead of execution, washing out the signal the
    // sharded-vs-single-shard pair isolates.
    // The cache's own win is measured by the `cart-retailer` arm
    // ([`cart_view_reuse`]), where cold-vs-warm is the point.
    let lmfao_opt = LmfaoEngine::with_config(EngineConfig {
        threads: 1,
        view_cache_bytes: 0,
        ..Default::default()
    });
    let sharded = ShardedEngine::with_shards(lmfao_opt, shards.max(1));
    let single_shard = ShardedEngine::with_shards(lmfao_opt, 1);
    for (bench, q) in
        [("grouped-covariance", covariance_query(&ds)), ("join-count", join_count_query(&ds))]
    {
        let runs: [(&'static str, &'static str, usize, &dyn Engine); 5] = [
            ("lmfao", "optimized", 1, &lmfao_opt),
            ("factorized", "optimized", 1, &FactorizedEngine::new()),
            ("flat", "optimized", 1, &FlatEngine),
            ("sharded-lmfao", "sharded", shards.max(1), &sharded),
            ("sharded-lmfao", "single-shard", 1, &single_shard),
        ];
        for (engine, config, threads, e) in runs {
            let (wall_ns, groups) = time_engine(&ds, &q, e, iters);
            rows.push(PerfRow {
                bench,
                engine,
                config,
                dataset: label.clone(),
                wall_ns,
                groups,
                threads,
                morsel_rows: fdb_core::DEFAULT_MORSEL_ROWS,
                available_cores: fdb_core::parallel::default_threads(),
            });
        }
    }
    // Sharded-vs-single-shard on the *clustered* Zipf snowflake. The
    // retailer draws fact keys i.i.d., so equal-row shards get
    // statistically identical work; this dataset sorts the fact by its
    // power-law key, giving contiguous shards very different group
    // structure — the skew shape the morsel over-partitioning (work units
    // drained by the stealing loop) exists for.
    let zds = zipf_snowflake(ZipfConfig {
        fact_rows: ((40_000.0 * scale).ceil() as usize).max(1_000),
        ..Default::default()
    });
    let zq = {
        let rels: Vec<&str> = zds.relation_refs();
        AggQuery::new(&rels, covariance_batch(&["a", "b", "v"], &["grp"]))
    };
    let zlabel = format!("zipf-snowflake-x{scale}");
    for (config, engine, threads) in
        [("sharded", &sharded, shards.max(1)), ("single-shard", &single_shard, 1)]
    {
        let (wall_ns, groups) = time_engine(&zds, &zq, engine, iters);
        rows.push(PerfRow {
            bench: "grouped-covariance-zipf",
            engine: "sharded-lmfao",
            config,
            dataset: zlabel.clone(),
            wall_ns,
            groups,
            threads,
            morsel_rows: fdb_core::DEFAULT_MORSEL_ROWS,
            available_cores: fdb_core::parallel::default_threads(),
        });
    }
    rows
}

/// Trains the same small CART regression tree twice with the factorized
/// engine and reports the sort counts per fit via the global
/// [`SortCache`] statistics.
pub fn cart_sort_accounting(scale: f64) -> CartSorts {
    let ds = perf_dataset(scale);
    let rels: Vec<&str> = ds.relation_refs();
    let cache = SortCache::global();
    let misses =
        || -> u64 { rels.iter().map(|r| cache.stats_for(ds.db.get(r).expect("exists")).1).sum() };
    let fit = || {
        DecisionTree::fit_regression(
            &ds.db,
            &rels,
            &["prize", "maxtemp"],
            &["rain"],
            "inventoryunits",
            TreeConfig { max_depth: 3, min_samples: 8.0, thresholds: 4, min_gain: 1e-9 },
            &FactorizedEngine::new(),
        )
        .expect("tree fits")
    };
    let before = misses();
    let t1 = fit();
    let after_first = misses();
    let _t2 = fit();
    let after_second = misses();
    CartSorts {
        relations: rels.len(),
        first_fit_sorts: after_first - before,
        second_fit_sorts: after_second - after_first,
        leaves: t1.leaves(),
    }
}

/// The `cart-retailer` arm: trains the same CART regression tree twice
/// with the (single-threaded) LMFAO engine — cold (view cache cleared)
/// then warm — and reports per-fit view-cache accounting plus wall times.
pub fn cart_view_reuse(scale: f64) -> CartViewReuse {
    let ds = perf_dataset(scale);
    let rels: Vec<&str> = ds.relation_refs();
    let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let fit = || {
        DecisionTree::fit_regression(
            &ds.db,
            &rels,
            &["prize", "maxtemp"],
            &["rain"],
            "inventoryunits",
            TreeConfig { max_depth: 3, min_samples: 8.0, thresholds: 4, min_gain: 1e-9 },
            &engine,
        )
        .expect("tree fits")
    };
    // Attribution by relation content id rather than global counters, so
    // concurrent cache users (other tests in this binary) cannot skew the
    // recorded numbers.
    let cache = ViewCache::global();
    let ids: Vec<u64> = rels.iter().map(|r| ds.db.get(r).expect("exists").data_id()).collect();
    let counts = || -> (u64, u64) {
        ids.iter().map(|&i| cache.stats_for_id(i)).fold((0, 0), |(a, b), (h, m)| (a + h, b + m))
    };
    cache.clear();
    let t0 = std::time::Instant::now();
    let cold = fit();
    let cold_wall_ns = t0.elapsed().as_nanos();
    let (cold_reused, cold_scanned) = counts();
    let t1 = std::time::Instant::now();
    let warm = fit();
    let warm_wall_ns = t1.elapsed().as_nanos();
    let (_, total_scanned) = counts();
    // A warm fit that disagreed with the cold one would invalidate every
    // number below; a hard assert (this arm runs in release) beats
    // silently recording a speedup between non-equivalent trainings.
    assert_eq!(warm.leaves(), cold.leaves(), "warm fit must reproduce the cold tree");
    CartViewReuse {
        batches_run: cold.batches_run,
        leaves: cold.leaves(),
        view_lookups: cold_reused + cold_scanned,
        views_reused: cold_reused,
        views_rescanned: cold_scanned,
        warm_views_rescanned: total_scanned - cold_scanned,
        cold_wall_ns,
        warm_wall_ns,
    }
}

/// The IVM arm: maintained-vs-recompute cost of serving single-row fact
/// inserts on the retailer covariance workload through
/// [`fdb_core::MaintainableEngine`].
#[derive(Debug, Clone, Default)]
pub struct IvmPerf {
    /// Single-row fact-insert deltas applied per arm.
    pub updates: usize,
    /// One-shot `prepare` cost (materialize every view), nanoseconds.
    pub prepare_ns: u128,
    /// Total wall time of the **maintained** arm: each delta is folded
    /// into the view tree along the owner→root path.
    pub maintained_ns: u128,
    /// Total wall time of the **recompute** arm (a
    /// [`fdb_core::MaintState::recompute`] state): each delta re-runs the
    /// batch on the mutated database (the cross-batch view cache still
    /// serves what it can).
    pub recompute_ns: u128,
    /// Views kept warm in place by the maintained arm
    /// ([`fdb_core::ViewCacheStats::views_maintained`] delta).
    pub views_maintained: u64,
    /// Full-view rescans attributed to the dataset during the maintained
    /// arm (0 = nothing below or beside the owner→root path was scanned).
    pub maintained_rescans: u64,
}

impl IvmPerf {
    /// Maintained-arm throughput, updates per second.
    pub fn updates_per_sec(&self) -> f64 {
        self.updates as f64 / (self.maintained_ns.max(1) as f64 * 1e-9)
    }

    /// Recompute wall time over maintained wall time.
    pub fn speedup(&self) -> f64 {
        self.recompute_ns as f64 / self.maintained_ns.max(1) as f64
    }
}

/// Runs the IVM arm: prepares the grouped-covariance query on the LMFAO
/// engine, then serves `updates` single-row fact inserts twice — once
/// with in-place delta maintenance, once with per-delta recomputation —
/// and cross-checks that both arms end on the same result.
pub fn ivm_maintenance(scale: f64, updates: usize) -> IvmPerf {
    use fdb_core::MaintainableEngine;
    let ds = perf_dataset(scale);
    let q = covariance_query(&ds);
    let fact = "Inventory";
    let rel = ds.db.get(fact).expect("fact");
    let deltas: Vec<fdb_data::Delta> =
        (0..updates).map(|i| fdb_data::Delta::insert(fact, rel.row_vec(i % rel.len()))).collect();
    let cache = ViewCache::global();
    // Rescan attribution must follow the fact's *evolving* content ids
    // (each delta refreshes them): a fallback rebuild inside the
    // maintained arm would attribute its rescans to a post-delta id, so
    // summing only prepare-time ids would under-count and falsely report
    // pure delta propagation.
    let mut ids: Vec<u64> =
        ds.relation_refs().iter().map(|r| ds.db.get(r).expect("rel").data_id()).collect();
    // Maintained arm.
    let maintained_engine =
        LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let t0 = std::time::Instant::now();
    let mut st = maintained_engine.prepare(&ds.db, &q).expect("prepare");
    let prepare_ns = t0.elapsed().as_nanos();
    let before_maintained = cache.stats().views_maintained;
    let rescans = |ids: &[u64]| -> u64 { ids.iter().map(|&i| cache.stats_for_id(i).1).sum() };
    let before_rescans = rescans(&ids);
    let t1 = std::time::Instant::now();
    let mut last = None;
    for d in &deltas {
        last = Some(maintained_engine.apply_delta(&mut st, d).expect("delta"));
        ids.push(st.database().get(fact).expect("fact").data_id());
    }
    let maintained_ns = t1.elapsed().as_nanos();
    let views_maintained = cache.stats().views_maintained - before_maintained;
    let maintained_rescans = rescans(&ids) - before_rescans;
    // Recompute arm: the same deltas and engine over a state with no
    // maintained structure.
    let mut st2 = fdb_core::MaintState::recompute(ds.db.clone(), q.clone());
    let t2 = std::time::Instant::now();
    let mut last2 = None;
    for d in &deltas {
        last2 = Some(maintained_engine.apply_delta(&mut st2, d).expect("delta"));
    }
    let recompute_ns = t2.elapsed().as_nanos();
    // Agreement: both arms must end on identical aggregates.
    if let (Some(a), Some(b)) = (&last, &last2) {
        for i in 0..q.batch.len() {
            assert_eq!(
                a.grouped(i).len(),
                b.grouped(i).len(),
                "ivm arm diverged from recompute on agg {i}"
            );
            for (k, v) in a.grouped(i) {
                let e = b.grouped(i).get(k).copied().unwrap_or(f64::NAN);
                assert!(
                    (v - e).abs() <= 1e-6 * (1.0 + e.abs()),
                    "ivm arm diverged on agg {i} key {k:?}: {v} vs {e}"
                );
            }
        }
    }
    IvmPerf {
        updates,
        prepare_ns,
        maintained_ns,
        recompute_ns,
        views_maintained,
        maintained_rescans,
    }
}

/// Overhead accounting for the fault-injection instrumentation: the
/// `fdb_data::fault` sites threaded through delta validation, view
/// maintenance, morsel execution, and cache admission.
///
/// With the `fault-injection` feature **off** — the default, and the
/// configuration every other number in `BENCH_engines.json` is measured
/// under — each site is an `#[inline(always)]` no-op, and this record
/// documents that the instrumentation stays within the acceptance budget
/// (≤1% of one maintained delta apply). With the feature **on**
/// (`sites_compiled_in = true`) the same fields report the real cost of
/// the live checks instead.
#[derive(Debug, Clone, Default)]
pub struct FaultOverhead {
    /// Whether the fault sites were compiled in for this run
    /// ([`fdb_data::fault::injection_enabled`]).
    pub sites_compiled_in: bool,
    /// `fault::check` invocations timed per arm.
    pub calls: u64,
    /// Wall time of `calls` iterations of the bare reference loop,
    /// nanoseconds.
    pub baseline_ns: u128,
    /// Wall time of the same loop with one `fault::check` per iteration.
    pub checked_ns: u128,
    /// Mean wall time of one maintained single-row `apply_delta` on the
    /// reference retailer workload, nanoseconds — the denominator the
    /// per-site cost is judged against.
    pub apply_delta_ns: u128,
}

/// A generous bound on fault sites crossed by one maintained delta:
/// validate + commit + per-view walk + publish + cache admit/evict.
const SITES_PER_DELTA: f64 = 8.0;

impl FaultOverhead {
    /// Mean added cost of one `fault::check` site, nanoseconds. Clamped
    /// at zero: with the feature off both arms compile to the same loop
    /// and the difference is timer noise in either direction.
    pub fn ns_per_check(&self) -> f64 {
        ((self.checked_ns as f64 - self.baseline_ns as f64) / self.calls.max(1) as f64).max(0.0)
    }

    /// Whole-pipeline site cost as a fraction of one maintained
    /// `apply_delta` — the "≤1% overhead with fault-injection compiled
    /// out" acceptance number, using [`SITES_PER_DELTA`] sites per delta.
    pub fn overhead_fraction_per_delta(&self) -> f64 {
        SITES_PER_DELTA * self.ns_per_check() / self.apply_delta_ns.max(1) as f64
    }
}

/// Measures the fault-site overhead: a `calls`-iteration accumulation
/// loop with and without a `fault::check` per iteration, plus the mean
/// cost of one maintained single-row delta on the tiny retailer instance
/// to anchor the fraction the sites add.
pub fn fault_overhead(calls: u64) -> FaultOverhead {
    use std::hint::black_box;
    let timed_loop = |checked: bool| -> u128 {
        let t = std::time::Instant::now();
        let mut acc = 0u64;
        for i in 0..calls {
            if checked {
                fdb_data::fault::check("bench-overhead").expect("no fault plan installed");
            }
            acc = acc.wrapping_add(black_box(i));
        }
        black_box(acc);
        t.elapsed().as_nanos()
    };
    // Warm both arms once so neither pays first-touch costs in the
    // measured pass.
    timed_loop(false);
    timed_loop(true);
    let baseline_ns = timed_loop(false);
    let checked_ns = timed_loop(true);

    // Reference delta cost: maintained single-row fact inserts, the same
    // shape as the `ivm` arm but sized for a quick anchor measurement.
    use fdb_core::MaintainableEngine;
    let ds = perf_dataset(0.02);
    let q = covariance_query(&ds);
    let rel = ds.db.get("Inventory").expect("fact");
    let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let mut st = engine.prepare(&ds.db, &q).expect("prepare");
    let updates = 64u128;
    let t = std::time::Instant::now();
    for i in 0..updates as usize {
        let d = fdb_data::Delta::insert("Inventory", rel.row_vec(i % rel.len()));
        engine.apply_delta(&mut st, &d).expect("delta");
    }
    let apply_delta_ns = t.elapsed().as_nanos() / updates;

    FaultOverhead {
        sites_compiled_in: fdb_data::fault::injection_enabled(),
        calls,
        baseline_ns,
        checked_ns,
        apply_delta_ns,
    }
}

/// The serving arm: sustained query throughput of a
/// [`fdb_core::ServingEngine`] under a live delta stream — the
/// epoch/snapshot read path's headline number. Two phases on the same
/// workload, each over a fresh engine: **one reader**, then **`readers`
/// readers**, every reader issuing `queries_per_reader` full engine runs
/// against pinned snapshots while one writer streams `updates` single-row
/// fact inserts through the transactional maintenance path. The cache
/// columns record how the global striped sort/view caches behaved during
/// the multi-reader phase: hit deltas grow with the reader count, and the
/// `*_contended` counters — stripe-lock acquisitions that found the
/// stripe held and had to wait — are the number the striping exists to
/// keep near zero.
#[derive(Debug, Clone, Default)]
pub struct ServingPerf {
    /// Reader threads of the multi-reader phase.
    pub readers: usize,
    /// Queries each reader issues per phase.
    pub queries_per_reader: usize,
    /// Single-row fact-insert deltas streamed by the writer per phase.
    pub updates: usize,
    /// Queries served by the 1-reader phase.
    pub single_queries: u64,
    /// Wall time of the 1-reader phase, nanoseconds.
    pub single_ns: u128,
    /// Queries served by the `readers`-reader phase.
    pub multi_queries: u64,
    /// Wall time of the `readers`-reader phase, nanoseconds.
    pub multi_ns: u128,
    /// Deltas committed and published during the multi-reader phase.
    pub deltas_applied: u64,
    /// Sort-cache hits during the multi-reader phase.
    pub sort_hits: u64,
    /// Sort-cache stripe-lock waits during the multi-reader phase.
    pub sort_contended: u64,
    /// Lock stripes of the global sort cache.
    pub sort_stripes: usize,
    /// View-cache hits during the multi-reader phase.
    pub view_hits: u64,
    /// View-cache stripe-lock waits during the multi-reader phase.
    pub view_contended: u64,
    /// Lock stripes of the global view cache.
    pub view_stripes: usize,
}

impl ServingPerf {
    /// Queries per second sustained by the 1-reader phase.
    pub fn qps_single(&self) -> f64 {
        self.single_queries as f64 / (self.single_ns.max(1) as f64 * 1e-9)
    }

    /// Queries per second sustained by the multi-reader phase.
    pub fn qps_multi(&self) -> f64 {
        self.multi_queries as f64 / (self.multi_ns.max(1) as f64 * 1e-9)
    }

    /// Multi-reader over single-reader throughput — the concurrent-read
    /// scaling of the snapshot path (`readers`× is perfect).
    pub fn reader_scaling(&self) -> f64 {
        self.qps_multi() / self.qps_single().max(f64::MIN_POSITIVE)
    }
}

/// Runs the serving arm: grouped covariance on the retailer instance
/// through a `ServingEngine` over the single-threaded LMFAO backend (so
/// the phases isolate *reader* parallelism), 1 reader vs `readers`
/// readers racing one live writer.
pub fn serving_bench(
    scale: f64,
    readers: usize,
    queries_per_reader: usize,
    updates: usize,
) -> ServingPerf {
    let ds = perf_dataset(scale);
    let q = covariance_query(&ds);
    let rel = ds.db.get("Inventory").expect("fact");
    let deltas: Vec<fdb_data::Delta> = (0..updates)
        .map(|i| fdb_data::Delta::insert("Inventory", rel.row_vec(i % rel.len())))
        .collect();
    let phase = |nreaders: usize| -> (u64, u128, u64) {
        let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        let serving = fdb_core::ServingEngine::new(engine, &ds.db, &q).expect("serving prepare");
        let e0 = serving.epoch();
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            let (serving, deltas) = (&serving, &deltas);
            for _ in 0..nreaders {
                s.spawn(move || {
                    for _ in 0..queries_per_reader {
                        serving.query().expect("serving query");
                    }
                });
            }
            s.spawn(move || {
                for d in deltas {
                    serving.apply_delta(d).expect("serving delta");
                    std::thread::yield_now();
                }
            });
        });
        let ns = t0.elapsed().as_nanos();
        let st = serving.stats();
        // A qps number over a stream that silently dropped deltas (or
        // failed to publish) would measure the wrong system.
        assert_eq!(st.epoch, e0 + updates as u64, "every delta published");
        assert_eq!(st.deltas_rejected, 0, "no delta may fail in this stream");
        (st.queries, ns, st.deltas_applied)
    };
    let (single_queries, single_ns, _) = phase(1);
    let sc0 = SortCache::global().counters();
    let vc0 = ViewCache::global().stats();
    let (multi_queries, multi_ns, deltas_applied) = phase(readers.max(1));
    let sc1 = SortCache::global().counters();
    let vc1 = ViewCache::global().stats();
    ServingPerf {
        readers: readers.max(1),
        queries_per_reader,
        updates,
        single_queries,
        single_ns,
        multi_queries,
        multi_ns,
        deltas_applied,
        sort_hits: sc1.hits - sc0.hits,
        sort_contended: sc1.contended - sc0.contended,
        sort_stripes: sc1.stripes,
        view_hits: vc1.hits - vc0.hits,
        view_contended: vc1.contended - vc0.contended,
        view_stripes: vc1.stripes,
    }
}

/// The front-door arm: sustained overload through a
/// [`fdb_core::FrontDoor`] — `producers` threads racing single-row fact
/// inserts into a deliberately small bounded queue (Block backpressure)
/// while `readers` threads query pinned snapshots, the admission layer's
/// headline numbers. `submit_p99_ns` is the tail a producer waits at the
/// door when the queue is full, and `coalescing_factor` is how many
/// submits the writer's group commit folds into one transactional
/// maintenance pass (1.0 = no coalescing; higher = fewer epochs than
/// submits).
#[derive(Debug, Clone, Default)]
pub struct FrontDoorPerf {
    /// Producer threads racing submits.
    pub producers: usize,
    /// Reader threads querying snapshots for the duration.
    pub readers: usize,
    /// Deltas each producer submits.
    pub per_producer: usize,
    /// Bounded queue capacity (the overload knob).
    pub queue_capacity: usize,
    /// Deltas admitted (all of them — the Block policy is lossless).
    pub submitted: u64,
    /// Transactional batches committed and published.
    pub batches_committed: u64,
    /// Submits absorbed into an earlier batch by group commit.
    pub coalesced: u64,
    /// Snapshot queries served while the producers ran.
    pub queries: u64,
    /// Median admission latency of one submit, nanoseconds.
    pub submit_p50_ns: u64,
    /// 99th-percentile admission latency of one submit, nanoseconds.
    pub submit_p99_ns: u64,
    /// Wall time from first submit to fully drained queue, nanoseconds.
    pub wall_ns: u128,
}

impl FrontDoorPerf {
    /// Submits admitted per second across all producers.
    pub fn submit_qps(&self) -> f64 {
        self.submitted as f64 / (self.wall_ns.max(1) as f64 * 1e-9)
    }

    /// Snapshot queries per second sustained while the door was busy.
    pub fn read_qps(&self) -> f64 {
        self.queries as f64 / (self.wall_ns.max(1) as f64 * 1e-9)
    }

    /// Mean submits folded into one committed batch.
    pub fn coalescing_factor(&self) -> f64 {
        self.submitted as f64 / self.batches_committed.max(1) as f64
    }
}

/// Runs the front-door arm: grouped covariance on the retailer instance
/// behind a [`fdb_core::FrontDoor`] over single-threaded LMFAO, with a
/// queue far smaller than the producers' combined burst so every
/// producer genuinely hits backpressure and the writer's group commit
/// genuinely coalesces.
pub fn frontdoor_bench(
    scale: f64,
    producers: usize,
    readers: usize,
    per_producer: usize,
) -> FrontDoorPerf {
    use std::sync::atomic::{AtomicBool, Ordering};
    let producers = producers.max(1);
    let ds = perf_dataset(scale);
    let q = covariance_query(&ds);
    let rel = ds.db.get("Inventory").expect("fact");
    let streams: Vec<Vec<fdb_data::Delta>> = (0..producers)
        .map(|p| {
            (0..per_producer)
                .map(|i| {
                    fdb_data::Delta::insert(
                        "Inventory",
                        rel.row_vec((p * per_producer + i) % rel.len()),
                    )
                })
                .collect()
        })
        .collect();
    let cfg = fdb_core::FrontDoorConfig {
        // Small enough that a burst of `producers` submits overflows it:
        // the Block policy parks producers on the not-full condvar, and
        // the p99 below measures that wait.
        queue_capacity: 4,
        backpressure: fdb_core::Backpressure::Block,
        submit_timeout: std::time::Duration::from_secs(60),
        ..Default::default()
    };
    let queue_capacity = cfg.queue_capacity;
    let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let fd = fdb_core::FrontDoor::new(engine, &ds.db, &q, cfg).expect("front door prepare");
    let e0 = fd.epoch();
    let done = AtomicBool::new(false);
    let t0 = std::time::Instant::now();
    let (mut latencies, queries) = std::thread::scope(|s| {
        let (fd, done) = (&fd, &done);
        let reader_handles: Vec<_> = (0..readers)
            .map(|_| {
                s.spawn(move || {
                    let mut served = 0u64;
                    while !done.load(Ordering::Acquire) {
                        fd.query().expect("snapshot query");
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        let producer_handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(stream.len());
                    for d in stream {
                        let t = std::time::Instant::now();
                        fd.submit(d.clone()).expect("admit");
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        let mut latencies = Vec::with_capacity(producers * per_producer);
        for h in producer_handles {
            latencies.extend(h.join().expect("producer"));
        }
        // Every submit is in; wait for the writer to drain and publish
        // before stopping the clock (and the readers).
        fd.flush();
        done.store(true, Ordering::Release);
        let queries: u64 = reader_handles.into_iter().map(|h| h.join().expect("reader")).sum();
        (latencies, queries)
    });
    let wall_ns = t0.elapsed().as_nanos();
    latencies.sort_unstable();
    let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100];
    let st = fd.stats();
    // An overload number over a stream that lost or duplicated deltas
    // would measure the wrong system: Block is lossless, the queue must
    // be empty after flush, and each committed batch published exactly
    // one epoch.
    assert_eq!(st.submitted, (producers * per_producer) as u64, "every submit admitted");
    assert_eq!(st.rejected + st.timed_out + st.shed, 0, "Block loses nothing");
    assert_eq!(st.queued, 0, "flush drained the queue");
    assert_eq!(st.batches_failed, 0, "no batch may fail in this stream");
    assert_eq!(st.batches_committed + st.coalesced, st.submitted, "group-commit accounting");
    assert_eq!(fd.epoch(), e0 + st.batches_committed, "one epoch per committed batch");
    FrontDoorPerf {
        producers,
        readers,
        per_producer,
        queue_capacity,
        submitted: st.submitted,
        batches_committed: st.batches_committed,
        coalesced: st.coalesced,
        queries,
        submit_p50_ns: pct(50),
        submit_p99_ns: pct(99),
        wall_ns,
    }
}

/// Speedup table: per sharded `(bench, engine)`, `single-shard / sharded`
/// (cross-core scaling of the shard layer).
pub fn speedups(rows: &[PerfRow]) -> Vec<(&'static str, &'static str, f64)> {
    let mut out = Vec::new();
    for row in rows.iter().filter(|r| r.config == "sharded") {
        if let Some(base) = rows
            .iter()
            .find(|r| r.bench == row.bench && r.engine == row.engine && r.config == "single-shard")
        {
            out.push((row.bench, row.engine, base.wall_ns as f64 / row.wall_ns.max(1) as f64));
        }
    }
    out
}

/// The `caches` JSON object: a snapshot of the global sort- and
/// view-cache counters at serialization time — hit/miss/eviction
/// observability for the whole harness run.
fn caches_json() -> String {
    let s = SortCache::global().counters();
    let v = ViewCache::global().stats();
    format!(
        "{{\n    \"sort\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"entries\": {}, \"bytes\": {}, \"stripes\": {}, \"contended\": {}}},\n    \
         \"view\": {{\"hits\": {}, \"misses\": {}, \
         \"views_reused\": {}, \"views_rescanned\": {}, \"views_maintained\": {}, \
         \"evictions\": {}, \"entries\": {}, \"bytes\": {}, \"stripes\": {}, \
         \"contended\": {}}}\n  }}",
        s.hits,
        s.misses,
        s.evictions,
        s.entries,
        s.bytes,
        s.stripes,
        s.contended,
        v.hits,
        v.misses,
        v.views_reused,
        v.views_rescanned,
        v.views_maintained,
        v.evictions,
        v.entries,
        v.bytes,
        v.stripes,
        v.contended
    )
}

/// Serializes the rows and the per-arm accounting as the
/// `BENCH_engines.json` document.
pub fn to_json(
    rows: &[PerfRow],
    cart: &CartSorts,
    views: &CartViewReuse,
    ivm: &IvmPerf,
    fault: &FaultOverhead,
    serving: &ServingPerf,
    frontdoor: &FrontDoorPerf,
) -> String {
    let mut s = String::from("{\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"engine\": \"{}\", \"config\": \"{}\", \
             \"dataset\": \"{}\", \"wall_ns\": {}, \"groups\": {}, \
             \"threads\": {}, \"morsel_rows\": {}, \"available_cores\": {}}}{}\n",
            r.bench,
            r.engine,
            r.config,
            r.dataset,
            r.wall_ns,
            r.groups,
            r.threads,
            r.morsel_rows,
            r.available_cores,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"speedups\": {");
    let sp = speedups(rows);
    for (i, (bench, engine, x)) in sp.iter().enumerate() {
        s.push_str(&format!(
            "\"{bench}/{engine}\": {x:.3}{}",
            if i + 1 < sp.len() { ", " } else { "" }
        ));
    }
    s.push('}');
    s.push_str(&format!(
        ",\n  \"cart\": {{\"relations\": {}, \"first_fit_sorts\": {}, \
         \"second_fit_sorts\": {}, \"leaves\": {}}}",
        cart.relations, cart.first_fit_sorts, cart.second_fit_sorts, cart.leaves
    ));
    s.push_str(&format!(
        ",\n  \"cart_view_reuse\": {{\"bench\": \"cart-retailer\", \"batches_run\": {}, \
         \"leaves\": {}, \"view_lookups\": {}, \"views_reused\": {}, \
         \"views_rescanned\": {}, \"warm_views_rescanned\": {}, \"reuse_ratio\": {:.3}, \
         \"cold_wall_ns\": {}, \"warm_wall_ns\": {}, \"warm_speedup\": {:.3}}}",
        views.batches_run,
        views.leaves,
        views.view_lookups,
        views.views_reused,
        views.views_rescanned,
        views.warm_views_rescanned,
        views.reuse_ratio(),
        views.cold_wall_ns,
        views.warm_wall_ns,
        views.warm_speedup()
    ));
    s.push_str(&format!(
        ",\n  \"ivm\": {{\"bench\": \"ivm-retailer\", \"updates\": {}, \
         \"prepare_ns\": {}, \"maintained_ns\": {}, \"recompute_ns\": {}, \
         \"updates_per_sec\": {:.0}, \"delta_vs_recompute_speedup\": {:.3}, \
         \"views_maintained\": {}, \"maintained_rescans\": {}}}",
        ivm.updates,
        ivm.prepare_ns,
        ivm.maintained_ns,
        ivm.recompute_ns,
        ivm.updates_per_sec(),
        ivm.speedup(),
        ivm.views_maintained,
        ivm.maintained_rescans
    ));
    s.push_str(&format!(
        ",\n  \"fault_overhead\": {{\"sites_compiled_in\": {}, \"calls\": {}, \
         \"baseline_ns\": {}, \"checked_ns\": {}, \"ns_per_check\": {:.4}, \
         \"apply_delta_ns\": {}, \"overhead_fraction_per_delta\": {:.6}}}",
        fault.sites_compiled_in,
        fault.calls,
        fault.baseline_ns,
        fault.checked_ns,
        fault.ns_per_check(),
        fault.apply_delta_ns,
        fault.overhead_fraction_per_delta()
    ));
    s.push_str(&format!(
        ",\n  \"serving\": {{\"bench\": \"serving-retailer\", \"readers\": {}, \
         \"queries_per_reader\": {}, \"updates\": {}, \"qps_single_reader\": {:.1}, \
         \"qps_multi_reader\": {:.1}, \"reader_scaling\": {:.3}, \"deltas_applied\": {}, \
         \"sort_hits\": {}, \"sort_contended\": {}, \"sort_stripes\": {}, \
         \"view_hits\": {}, \"view_contended\": {}, \"view_stripes\": {}}}",
        serving.readers,
        serving.queries_per_reader,
        serving.updates,
        serving.qps_single(),
        serving.qps_multi(),
        serving.reader_scaling(),
        serving.deltas_applied,
        serving.sort_hits,
        serving.sort_contended,
        serving.sort_stripes,
        serving.view_hits,
        serving.view_contended,
        serving.view_stripes
    ));
    s.push_str(&format!(
        ",\n  \"frontdoor\": {{\"bench\": \"frontdoor-retailer\", \"producers\": {}, \
         \"readers\": {}, \"per_producer\": {}, \"queue_capacity\": {}, \
         \"submitted\": {}, \"batches_committed\": {}, \"coalesced\": {}, \
         \"coalescing_factor\": {:.3}, \"submit_qps\": {:.1}, \"submit_p50_ns\": {}, \
         \"submit_p99_ns\": {}, \"read_qps\": {:.1}, \"queries\": {}}}",
        frontdoor.producers,
        frontdoor.readers,
        frontdoor.per_producer,
        frontdoor.queue_capacity,
        frontdoor.submitted,
        frontdoor.batches_committed,
        frontdoor.coalesced,
        frontdoor.coalescing_factor(),
        frontdoor.submit_qps(),
        frontdoor.submit_p50_ns,
        frontdoor.submit_p99_ns,
        frontdoor.read_qps(),
        frontdoor.queries
    ));
    s.push_str(&format!(",\n  \"caches\": {}", caches_json()));
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_and_checksums_agree() {
        let _guard = crate::timing_lock();
        let rows = run_all(0.02, 1, 3);
        assert_eq!(rows.len(), 12, "2 benches × (3 engines + sharded pair) + zipf pair");
        assert!(rows.iter().all(|r| r.available_cores >= 1));
        assert!(rows.iter().all(|r| r.threads >= 1 && r.morsel_rows >= 1));
        // Every row of a bench must emit the same group count: the three
        // engines agree, and the shard merge reconstructs exactly the
        // unsharded key sets.
        for r in &rows {
            let first = rows.iter().find(|b| b.bench == r.bench).expect("own bench");
            assert_eq!(r.groups, first.groups, "{}/{}/{}", r.bench, r.engine, r.config);
            assert!(r.groups > 0, "{}/{} emitted no groups", r.bench, r.engine);
        }
        let json = to_json(
            &rows,
            &CartSorts::default(),
            &CartViewReuse::default(),
            &IvmPerf::default(),
            &FaultOverhead::default(),
            &ServingPerf::default(),
            &FrontDoorPerf::default(),
        );
        assert!(json.contains("\"speedups\""));
        assert!(json.contains("grouped-covariance/sharded-lmfao"));
        assert!(json.contains("\"cart\""));
        assert!(json.contains("\"cart_view_reuse\""));
        assert!(json.contains("\"ivm\""));
        assert!(json.contains("\"delta_vs_recompute_speedup\""));
        assert!(json.contains("\"caches\""));
        assert!(json.contains("\"sort\"") && json.contains("\"view\""));
        assert!(json.contains("\"stripes\"") && json.contains("\"contended\""));
        assert!(json.contains("\"views_maintained\""));
        assert!(json.contains("\"fault_overhead\""));
        assert!(json.contains("\"overhead_fraction_per_delta\""));
        assert!(json.contains("\"serving\""));
        assert!(json.contains("\"qps_multi_reader\"") && json.contains("\"reader_scaling\""));
        assert!(json.contains("\"frontdoor\""));
        assert!(json.contains("\"submit_p99_ns\"") && json.contains("\"coalescing_factor\""));
    }

    #[test]
    fn serving_arm_sustains_reads_under_a_live_delta_stream() {
        let _guard = crate::timing_lock();
        let p = serving_bench(0.02, 2, 6, 8);
        assert_eq!(p.readers, 2);
        assert_eq!(p.single_queries, 6, "1 reader × 6 queries");
        assert_eq!(p.multi_queries, 12, "2 readers × 6 queries");
        assert_eq!(p.deltas_applied, 8, "the writer's whole stream committed");
        assert!(p.qps_single() > 0.0 && p.qps_multi() > 0.0);
        assert!(p.reader_scaling() > 0.0);
        assert!(p.sort_stripes >= 1 && p.view_stripes >= 1);
    }

    #[test]
    fn frontdoor_arm_survives_overload_without_losing_a_submit() {
        let _guard = crate::timing_lock();
        let p = frontdoor_bench(0.02, 3, 2, 6);
        assert_eq!(p.producers, 3);
        assert_eq!(p.submitted, 18, "3 producers × 6 submits, all admitted");
        assert!(p.batches_committed >= 1 && p.batches_committed <= p.submitted);
        assert_eq!(p.batches_committed + p.coalesced, p.submitted);
        assert!(p.coalescing_factor() >= 1.0);
        assert!(p.submit_qps() > 0.0);
        assert!(p.submit_p99_ns >= p.submit_p50_ns);
    }

    #[test]
    fn fault_sites_cost_under_one_percent_of_a_delta_when_compiled_out() {
        let _guard = crate::timing_lock();
        let f = fault_overhead(200_000);
        assert_eq!(f.sites_compiled_in, fdb_data::fault::injection_enabled());
        assert!(f.apply_delta_ns > 0);
        // The acceptance bound only holds for the no-op build; with the
        // feature on the sites are real work and the number is reported,
        // not bounded.
        if !f.sites_compiled_in {
            let frac = f.overhead_fraction_per_delta();
            assert!(
                frac < 0.01,
                "compiled-out fault sites cost {:.4}% of a delta (≥1%)",
                frac * 100.0
            );
        }
    }

    #[test]
    fn cart_view_reuse_rescans_strictly_fewer_views_than_lookups() {
        let _guard = crate::timing_lock();
        let c = cart_view_reuse(0.05);
        assert!(c.batches_run >= 3, "one batch per tree node");
        assert!(c.view_lookups > 0);
        assert!(
            c.views_rescanned < c.view_lookups,
            "residual reuse must serve some subtrees within the cold fit: \
             {} rescans of {} lookups",
            c.views_rescanned,
            c.view_lookups
        );
        assert!(c.views_reused > 0);
        assert_eq!(c.warm_views_rescanned, 0, "identical warm fit is fully cached");
        assert!(c.reuse_ratio() > 0.0 && c.reuse_ratio() < 1.0);
        // No wall-clock assertion here (CI timing noise); the recorded
        // warm_speedup lands in BENCH_engines.json instead.
        assert!(c.cold_wall_ns > 0 && c.warm_wall_ns > 0);
    }

    #[test]
    fn ivm_arm_serves_fact_inserts_by_delta_propagation() {
        let _guard = crate::timing_lock();
        let p = ivm_maintenance(0.05, 12);
        assert_eq!(p.updates, 12);
        // The acceptance shape: every single-row fact insert is served by
        // in-place maintenance — the counter moves, and nothing below or
        // beside the owner→root path is rescanned (the agreement with the
        // recompute arm is asserted inside `ivm_maintenance`).
        assert!(p.views_maintained > 0, "fact inserts maintained in place");
        assert_eq!(p.maintained_rescans, 0, "no full-view rescans during maintenance");
        assert!(p.updates_per_sec() > 0.0);
        assert!(p.prepare_ns > 0 && p.recompute_ns > 0);
    }
}
