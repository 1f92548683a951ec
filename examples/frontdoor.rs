//! The serving front door (§1.5 "keeping models fresh", write side): a
//! bounded admission queue in front of the epoch-based [`ServingEngine`],
//! a writer thread that group-commits what accumulated, and a bounded
//! retry of transient failures. Recovery from a failed attempt is the
//! maintenance wrapper's own rollback and re-prepare.
//!
//! Two acts:
//!
//! 1. **Fail-fast admission + group commit** — a burst of submits with a
//!    zero deadline against a paused 4-slot queue; overflow submits fail
//!    at once with `DataError::Timeout` instead of waiting, and the writer
//!    folds the admitted burst into one transactional batch (one
//!    published epoch).
//! 2. **A retried transient failure** — a flaky engine fails maintenance
//!    twice; the wrapper rolls each attempt back and re-prepares, the
//!    front door retries, and the batch commits on the third attempt. No
//!    admitted delta is lost and readers never see a torn epoch.
//!
//! ```bash
//! cargo run --release --example frontdoor
//! ```

use fdb::data::{DataError, Database, Delta};
use fdb::datasets::{retailer, RetailerConfig};
use fdb::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wraps [`LmfaoEngine`]: the first `n` maintenance calls fail
/// transiently, then it maintains normally.
struct FlakyEngine {
    inner: LmfaoEngine,
    failures: AtomicU32,
}

impl FlakyEngine {
    fn failing(n: u32) -> Self {
        Self {
            inner: LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() }),
            failures: AtomicU32::new(n),
        }
    }
}

impl Engine for FlakyEngine {
    fn name(&self) -> &'static str {
        "flaky-lmfao"
    }
    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        self.inner.run(db, q)
    }
}

impl MaintainableEngine for FlakyEngine {
    fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
        self.inner.prepare(db, q)
    }
    fn apply_delta_kind(
        &self,
        st: &mut MaintState,
        delta: &Delta,
    ) -> Result<Arc<BatchResult>, DataError> {
        if self
            .failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(DataError::Injected("flaky maintenance".into()));
        }
        self.inner.apply_delta_kind(st, delta)
    }
    fn eval(&self, st: &MaintState) -> Result<Arc<BatchResult>, DataError> {
        self.inner.eval(st)
    }
}

fn print_stats(tag: &str, s: &ServingStats) {
    println!(
        "  [{tag}] epoch {} | submitted {} timed_out {} | \
         batches {} (+{} coalesced, {} failed) | retries {}",
        s.epoch,
        s.submitted,
        s.timed_out,
        s.batches_committed,
        s.coalesced,
        s.batches_failed,
        s.retries,
    );
}

fn main() {
    let ds = retailer(RetailerConfig::scaled(0.1));
    let rels: Vec<&str> = ds.relation_refs();
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::sum("inventoryunits").by(&["category"]));
    let q = AggQuery::new(&rels, batch);
    let fact = ds.db.get("Inventory").expect("fact relation");

    // -- Act 1: zero-deadline submits vs a 4-slot queue -------------------
    println!("act 1: fail-fast admission (queue_capacity 4, zero deadline, writer paused)");
    let cfg = FrontDoorConfig { queue_capacity: 4, ..Default::default() };
    let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let fd = FrontDoor::new(engine, &ds.db, &q, cfg).expect("prepare");
    let e0 = fd.epoch();
    print_stats("before", &fd.stats());

    // Pausing the writer makes the overflow deterministic: the burst has
    // nowhere to drain, so exactly `queue_capacity` submits fit.
    fd.pause();
    let burst = 16usize;
    let mut admitted = 0u32;
    let mut refused = 0u32;
    for i in 0..burst {
        let d = Delta::insert("Inventory", fact.row_vec(i % fact.len()));
        match fd.submit_with_deadline(d, Duration::ZERO) {
            Ok(()) => admitted += 1,
            Err(e @ DataError::Timeout { .. }) => {
                if refused == 0 {
                    println!("  first refusal: {e}");
                }
                refused += 1;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    println!("  burst of {burst}: {admitted} admitted, {refused} refused (fail-fast)");
    fd.flush(); // unpauses; the writer folds the queue into one group commit
    let s = fd.stats();
    print_stats("after", &s);
    println!(
        "  group commit: {} submits -> {} batch(es) ({} coalesced), refused submits \
         published nothing",
        s.submitted, s.batches_committed, s.coalesced
    );
    assert_eq!(s.epoch, e0 + s.batches_committed, "one epoch per committed batch");
    drop(fd);

    // -- Act 2: a transient failure, retried ------------------------------
    println!("act 2: retry (2 injected maintenance failures, 3 retries allowed)");
    let fd = FrontDoor::new(FlakyEngine::failing(2), &ds.db, &q, FrontDoorConfig::default())
        .expect("prepare");
    let e0 = fd.epoch();
    print_stats("before", &fd.stats());
    for i in 0..3usize {
        fd.submit(Delta::insert("Inventory", fact.row_vec(i))).expect("admit");
        fd.flush();
        let (epoch, res) = fd.query().expect("read");
        println!(
            "  batch {}: epoch {epoch}, retries so far {}, count {}",
            i + 1,
            fd.stats().retries,
            res.scalar(0)
        );
    }
    let s = fd.stats();
    print_stats("after", &s);
    assert_eq!(s.retries, 2, "both failures were retried");
    assert_eq!(s.batches_committed, 3, "no admitted delta was lost to the failures");
    assert_eq!(fd.epoch(), e0 + 3);
    println!("  survived: {} retries, all 3 batches committed", s.retries);
}
