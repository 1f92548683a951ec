//! Epoch-based concurrent serving (§1.5 "keeping models fresh", read
//! side): many reader threads read a maintained aggregate batch from
//! pinned snapshots while one writer streams deltas through the
//! transactional maintenance path — readers never block on maintenance,
//! never re-run the engine, and every answer is tagged with the epoch it
//! reflects.
//!
//! A [`ServingEngine`] wraps any `MaintainableEngine`. The single writer
//! applies each delta under the engine's all-or-nothing contract and then
//! atomically publishes the new epoch's snapshot together with the answer
//! it maintained; readers grab the current `Arc` and copy that answer
//! out, so a reader pinned at epoch *e* reads epoch *e*'s answer no
//! matter how many publications happen meanwhile.
//!
//! ```bash
//! cargo run --release --example serving
//! ```

use fdb::datasets::{retailer, RetailerConfig};
use fdb::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

fn main() {
    let ds = retailer(RetailerConfig::scaled(0.2));
    let rels: Vec<&str> = ds.relation_refs();

    // A small grouped batch over the natural join of the whole schema.
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::sum("inventoryunits").by(&["category"]));
    let q = AggQuery::new(&rels, batch);

    let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let serving = ServingEngine::new(engine, &ds.db, &q).expect("prepare");
    println!("serving epoch {} ({} relations joined)", serving.epoch(), rels.len());

    // The writer's stream: single-row fact inserts (every committed delta
    // bumps the published epoch by exactly one).
    let fact = ds.db.get("Inventory").expect("fact relation");
    let updates: Vec<Delta> =
        (0..200).map(|i| Delta::insert("Inventory", fact.row_vec(i % fact.len()))).collect();

    let readers = 4;
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let (serving, done) = (&serving, &done);
        for r in 0..readers {
            s.spawn(move || {
                let mut answered = 0u64;
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                while !done.load(Ordering::Acquire) {
                    let (epoch, res) = serving.query().expect("read");
                    lo = lo.min(epoch);
                    hi = hi.max(epoch);
                    // The count at epoch e is exactly base + e: a torn or
                    // stale snapshot would break this equality.
                    assert_eq!(res.scalar(0), fact.len() as f64 + epoch as f64);
                    answered += 1;
                }
                println!("reader {r}: {answered} queries across epochs {lo}..={hi}");
            });
        }
        s.spawn(move || {
            for d in &updates {
                serving.apply_delta(d).expect("maintain + publish");
            }
            done.store(true, Ordering::Release);
        });
    });

    let stats = serving.stats();
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "published {} epochs while serving {} queries ({:.0} qps on {readers} readers)",
        stats.deltas_applied,
        stats.queries,
        stats.queries as f64 / secs
    );

    // A snapshot pinned now keeps answering at its epoch even after
    // further deltas land.
    let pinned = serving.snapshot();
    serving.apply_delta(&Delta::insert("Inventory", fact.row_vec(0))).expect("one more");
    let at_pin = serving.query_at(&pinned).expect("pinned read");
    println!(
        "pinned epoch {} still answers count {} while the live epoch is {}",
        pinned.epoch(),
        at_pin.scalar(0),
        serving.epoch()
    );
}
