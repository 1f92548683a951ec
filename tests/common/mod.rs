//! Shared assertions for the integration-test binaries (not itself a test
//! target: files under `tests/<dir>/` are only compiled via `mod common;`).

use fdb::lmfao::{eval_agg, to_scan_query};
use fdb::prelude::{AggQuery, BatchResult, Database};

/// The differential oracle: `fdb_core::classical`, one full scan per
/// aggregate over the materialized natural join. Exact zeros are dropped,
/// per the [`BatchResult`] contract.
#[allow(dead_code)] // not every test binary including this module needs it
pub fn oracle(db: &Database, q: &AggQuery) -> BatchResult {
    let flat = fdb::query::natural_join_all(db, &q.relation_refs()).unwrap();
    let (mut groups, mut values) = (Vec::new(), Vec::new());
    for agg in &q.batch.aggs {
        let scan = to_scan_query(agg);
        let sums = eval_agg(&flat, &scan).unwrap();
        values.push(
            sums.into_iter()
                .filter(|&(_, v)| v != 0.0)
                .map(|(k, v)| (k.iter().map(|x| x.as_int()).collect(), v))
                .collect(),
        );
        groups.push(scan.group_by);
    }
    BatchResult { groups, values }
}

/// Asserts two batch results carry identical groups, identical
/// *represented key sets* (which is how the exactly-zero-dropped contract
/// is held across engines, morsel merges, and dense/hash representations),
/// and values equal within relative tolerance `tol` — the caller's float
/// round-off allowance for differing summation orders.
pub fn assert_results_match(
    base: &BatchResult,
    got: &BatchResult,
    tag: &str,
    naggs: usize,
    tol: f64,
) {
    for i in 0..naggs {
        assert_eq!(base.groups[i], got.groups[i], "{tag}: agg {i}: group attrs");
        assert_eq!(
            base.grouped(i).len(),
            got.grouped(i).len(),
            "{tag}: agg {i}: represented key count"
        );
        for (k, v) in base.grouped(i) {
            let g = got.grouped(i).get(k).copied().unwrap_or(f64::NAN);
            assert!((v - g).abs() <= tol * (1.0 + v.abs()), "{tag}: agg {i} key {k:?}: {v} vs {g}");
        }
    }
}
