//! Morsel-driven work scheduling.
//!
//! One-thread-per-partition parallelism serializes on skew: the worker that
//! drew the expensive partition finishes last while its peers idle. The fix
//! (Leis et al.'s morsel-driven model, adopted here for the root-scan
//! split, the root subtrees and the merge pairs) is to cut the work into
//! many more fixed-size row-range *morsels* than workers and let workers
//! pull the next unclaimed morsel from a shared counter. No unit is ever
//! pinned to a thread, so a heavy morsel delays only itself; everything
//! else is stolen by whoever is free.
//!
//! The scheduler itself, [`run_stealing`] with its panic containment
//! ([`contain`]), lives in [`fdb_data::sched`] — the CSV reader runs on it
//! too — and is re-exported here. It is the only place the workspace
//! spawns query or ingest workers. Results come back **in morsel order**,
//! so downstream merges (which sum f64 payloads) stay deterministic
//! regardless of which worker ran which morsel, and a panicking unit
//! surfaces as [`fdb_data::DataError::WorkerPanic`] instead of aborting
//! the process.

use fdb_data::DataError;
use std::ops::Range;

pub(crate) use fdb_data::sched::contain;
pub use fdb_data::sched::run_stealing;

/// Default rows per morsel (the [`crate::EngineConfig::morsel_rows`]
/// default): big enough to amortize per-morsel plan probes, small enough
/// that a skewed range splits across many work units.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Number of morsels for `rows` rows: enough units that every chunk stays
/// near `morsel_rows` rows, but at least `min_units` (typically the worker
/// count) so all workers engage, and never more units than rows.
pub fn morsel_count(rows: usize, morsel_rows: usize, min_units: usize) -> usize {
    if rows == 0 {
        return 1;
    }
    rows.div_ceil(morsel_rows.max(1)).max(min_units.max(1)).min(rows)
}

/// Splits `rows` into [`morsel_count`] contiguous, balanced row ranges.
pub fn plan_morsels(rows: usize, morsel_rows: usize, min_units: usize) -> Vec<Range<usize>> {
    let m = morsel_count(rows, morsel_rows, min_units);
    (0..m).map(|k| (rows * k / m)..(rows * (k + 1) / m)).collect()
}

/// Pairwise (tree) reduction of per-morsel partials: round by round,
/// partial `2i+1` merges into partial `2i` (an odd tail carries over), the
/// pairs of each round running on up to `workers` stolen-work threads via
/// [`run_stealing`]. Replaces the coordinator's serial left-fold, which
/// serialized the whole merge on one thread — with `k` partials the
/// critical path drops from `k − 1` sequential merges to `⌈log₂ k⌉`
/// rounds.
///
/// **Determinism.** The merge *tree* depends only on the partial count and
/// their unit order — never on `workers` or on which thread ran which pair
/// — so float summation is reproducible for a given morsel plan (the same
/// discipline as [`run_stealing`]'s unit-order results). The association
/// differs from the serial fold's, so sums can differ from it by rounding;
/// for exactly-representable (integer-valued) payloads the two are
/// identical — the property `tests` hold the engines to.
///
/// Panics inside `merge` are contained per [`run_stealing`]'s discipline
/// and surface as [`DataError::WorkerPanic`]. Returns `None` for an empty
/// input.
pub(crate) fn tree_merge<T: Send>(
    mut parts: Vec<T>,
    workers: usize,
    merge: impl Fn(&mut T, T) -> Result<(), DataError> + Sync,
) -> Result<Option<T>, DataError> {
    while parts.len() > 1 {
        let odd = if parts.len() % 2 == 1 { parts.pop() } else { None };
        let pairs: Vec<std::sync::Mutex<Option<(T, T)>>> = {
            let mut it = parts.drain(..);
            let mut ps = Vec::new();
            while let (Some(a), Some(b)) = (it.next(), it.next()) {
                ps.push(std::sync::Mutex::new(Some((a, b))));
            }
            ps
        };
        let merged = run_stealing(pairs.len(), workers, |i| -> Result<T, DataError> {
            let (mut a, b) = pairs[i]
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .expect("each pair merged once");
            merge(&mut a, b)?;
            Ok(a)
        })?;
        parts = merged.into_iter().collect::<Result<Vec<T>, DataError>>()?;
        parts.extend(odd);
    }
    Ok(parts.pop())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_plan_covers_rows_exactly() {
        for rows in [0usize, 1, 5, 100, 4096, 10_000] {
            for (mr, mu) in [(1, 1), (7, 3), (4096, 4), (100_000, 2)] {
                let plan = plan_morsels(rows, mr, mu);
                assert_eq!(plan.len(), morsel_count(rows, mr, mu));
                assert_eq!(plan[0].start, 0);
                assert_eq!(plan.last().unwrap().end, rows);
                for w in plan.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                if rows > 0 {
                    assert!(plan.len() >= mu.min(rows), "workers engaged");
                    assert!(plan.iter().all(|r| !r.is_empty()), "no empty morsels");
                }
            }
        }
        // Row-count cap: single-row inputs cannot split further.
        assert_eq!(plan_morsels(1, 1, 8), vec![0..1]);
        assert_eq!(plan_morsels(0, 4096, 4), vec![0..0]);
    }

    #[test]
    fn tree_merge_matches_serial_fold_and_is_worker_independent() {
        // Integer-valued payloads: f64 addition is exact, so the tree
        // association must reproduce the serial fold bit for bit.
        let parts = |k: usize| -> Vec<Vec<f64>> {
            (0..k).map(|i| vec![i as f64, (i * i % 7) as f64]).collect()
        };
        let add = |a: &mut Vec<f64>, b: Vec<f64>| -> Result<(), DataError> {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            Ok(())
        };
        for k in [1usize, 2, 3, 5, 8, 17] {
            let mut serial = parts(k).into_iter();
            let mut want = serial.next().unwrap();
            for p in serial {
                add(&mut want, p).unwrap();
            }
            for workers in [1usize, 2, 4] {
                let got = tree_merge(parts(k), workers, add).unwrap().unwrap();
                assert_eq!(got, want, "k={k} workers={workers}");
            }
        }
        assert!(tree_merge(Vec::<i32>::new(), 4, |_, _| Ok(())).unwrap().is_none());
    }

    #[test]
    fn tree_merge_contains_errors_and_panics() {
        let err =
            tree_merge(vec![1i32, 2, 3], 2, |_, _| Err(DataError::Invalid("merge refused".into())))
                .unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)));
        let err = tree_merge(vec![1i32, 2, 3, 4], 2, |a, _| {
            if *a == 3 {
                panic!("pair exploded");
            }
            Ok(())
        })
        .unwrap_err();
        let DataError::WorkerPanic(msg) = err else { panic!("expected WorkerPanic") };
        assert!(msg.contains("pair exploded"), "{msg}");
    }
}
