//! One query, every backend: build a single `AggQuery` and run it through
//! the flat, factorized, LMFAO, and F-IVM engines via the unified
//! `Engine` trait — the seam `DispatchEngine` chooses a backend behind.
//! Then the Figure 6 ablation: LMFAO on the covariance batch under the
//! four cumulative `EngineConfig` stages (baseline → +specialisation →
//! +sharing → +parallelisation), with the speedup of each over the
//! baseline.
//!
//! ```bash
//! cargo run --release --example engine_backends
//! ```

use fdb::datasets::{retailer, RetailerConfig};
use fdb::ivm::FivmEngine;
use fdb::lmfao::{covariance_batch, AggBatch, AggQuery, Aggregate, Engine, EngineConfig};
use fdb::lmfao::{parallel::default_threads, FactorizedEngine, FlatEngine, LmfaoEngine};
use std::time::Instant;

fn main() {
    let ds = retailer(RetailerConfig::tiny());
    let rels: Vec<&str> = ds.relation_refs();

    // A mixed batch: scalar moments plus grouped and filtered aggregates.
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::sum("inventoryunits"));
    batch.push(Aggregate::sum_prod("inventoryunits", "prize"));
    batch.push(Aggregate::sum("inventoryunits").by(&["rain"]));
    batch.push(Aggregate::count().by(&["category", "rain"]));
    let q = AggQuery::new(&rels, batch);

    let engines: Vec<Box<dyn Engine>> =
        vec![Box::new(FlatEngine), Box::new(FactorizedEngine::new()), Box::new(LmfaoEngine::new())];
    println!("{} aggregates over ⋈{:?}\n", q.batch.len(), q.relations);
    for engine in &engines {
        let t0 = Instant::now();
        let res = engine.run(&ds.db, &q).expect("valid query");
        println!(
            "{:>11}: COUNT(*)={:>8}  SUM(units)={:>12.1}  groups(category,rain)={:>3}  [{:?}]",
            engine.name(),
            res.scalar(0),
            res.scalar(1),
            res.grouped(4).len(),
            t0.elapsed(),
        );
    }

    // F-IVM answers the covariance-shaped fragment by streaming updates.
    let cov = AggQuery::new(&rels, covariance_batch(&["inventoryunits", "prize"], &[]));
    let t0 = Instant::now();
    let res = FivmEngine.run(&ds.db, &cov).expect("covariance fragment");
    println!(
        "{:>11}: COUNT(*)={:>8}  SUM(units)={:>12.1}  (streamed tuple-by-tuple)  [{:?}]",
        FivmEngine.name(),
        res.scalar(0),
        res.scalar(1),
        t0.elapsed(),
    );

    // Figure 6: the stages are cumulative. Every stage bypasses the
    // cross-batch view cache: `+sharing` and `+parallelisation` run the
    // same plan, so with the cache on the last stage would time served
    // views instead of the parallel scan. The baseline also runs without
    // dense group indexing, which is part of specialising to the data.
    let threads = default_threads();
    let cont: Vec<&str> = ds.features.continuous_with_response_refs();
    let cat: Vec<&str> = ds.features.categorical.iter().map(String::as_str).collect();
    let cov = AggQuery::new(&rels, covariance_batch(&cont, &cat));
    let stage = |specialize, share, threads| EngineConfig {
        specialize,
        share,
        threads,
        view_cache_bytes: 0,
        ..Default::default()
    };
    let stages = [
        ("baseline", EngineConfig { dense_limit: 0, ..stage(false, false, 1) }),
        ("+specialisation", stage(true, false, 1)),
        ("+sharing", stage(true, true, 1)),
        ("+parallelisation", stage(true, true, threads)),
    ];
    println!(
        "\nFigure 6: covariance batch ({} aggregates), +parallelisation on {threads} threads \
         (the available cores)",
        cov.batch.len()
    );
    let mut base = None;
    for (name, cfg) in stages {
        let engine = LmfaoEngine::with_config(cfg);
        let t0 = Instant::now();
        let res = engine.run(&ds.db, &cov).expect("covariance batch");
        let secs = t0.elapsed().as_secs_f64();
        let base = *base.get_or_insert(secs);
        println!(
            "{name:>16}: {:>8.2} ms  {:>5.1}x  COUNT(*)={}",
            secs * 1e3,
            base / secs,
            res.scalar(0)
        );
    }
}
