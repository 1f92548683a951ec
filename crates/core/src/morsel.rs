//! Morsel-driven work scheduling.
//!
//! One-thread-per-partition parallelism serializes on skew: the worker that
//! drew the expensive partition finishes last while its peers idle. The fix
//! (Leis et al.'s morsel-driven model, adopted here for the root-scan
//! split, the root subtrees and the merge pairs) is to cut the work into
//! many more fixed-size row-range *morsels* than workers and let workers
//! pull the next unclaimed morsel from a shared counter. No unit is ever
//! pinned to a thread, so a heavy morsel delays only itself; everything
//! else is stolen by whoever is free. [`run_stealing`] is the only place
//! `fdb-core` spawns query workers.
//!
//! Results are returned **in morsel order**, so downstream merges (which
//! sum f64 payloads) stay deterministic regardless of which worker ran
//! which morsel.

//! **Panic containment.** Worker closures run under `catch_unwind`: a
//! panicking unit poisons the queue (peers drain cleanly after their
//! current unit), the scoped threads all join, and the panic surfaces as
//! a structured [`fdb_data::DataError::WorkerPanic`] instead of aborting
//! the process. See [`contain`] for the single-closure form engines use
//! for degraded retries.

use fdb_data::DataError;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

/// Stringifies a caught panic payload (the common `&str` / `String`
/// payloads verbatim, anything else generically).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with panic containment: a panic becomes
/// [`DataError::WorkerPanic`] instead of unwinding into the caller. The
/// single-closure form of [`run_stealing`]'s discipline — the
/// maintenance wrapper uses it for the whole incremental-apply step.
pub(crate) fn contain<T>(f: impl FnOnce() -> T) -> Result<T, DataError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| DataError::WorkerPanic(panic_message(p)))
}

/// Runs `work(i)` for every `i < units` on up to `workers` scoped threads,
/// each pulling the next unit index from a shared atomic counter — the
/// degenerate (and contention-free) form of work stealing: there are no
/// per-worker queues to steal *from* because no unit is ever assigned ahead
/// of time. Returns results in unit order.
///
/// Panics inside `work` are contained: the first one poisons the queue
/// (every other worker finishes its current unit and stops pulling), all
/// threads join, and the call returns
/// `Err(`[`DataError::WorkerPanic`]`)` carrying the panic message.
pub fn run_stealing<T: Send>(
    units: usize,
    workers: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, DataError> {
    let w = workers.clamp(1, units.max(1));
    let mut slots: Vec<Option<T>> = (0..units).map(|_| None).collect();
    if w <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(contain(|| work(i))?);
        }
    } else {
        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let parts: Vec<Result<Vec<(usize, T)>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..w)
                .map(|_| {
                    let (next, work, poisoned) = (&next, &work, &poisoned);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            if poisoned.load(Ordering::Relaxed) {
                                // A peer panicked: drain cleanly — stop
                                // pulling, keep what we computed.
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= units {
                                break;
                            }
                            match catch_unwind(AssertUnwindSafe(|| work(i))) {
                                Ok(t) => mine.push((i, t)),
                                Err(p) => {
                                    poisoned.store(true, Ordering::Relaxed);
                                    return Err(panic_message(p));
                                }
                            }
                        }
                        Ok(mine)
                    })
                })
                .collect();
            // The worker closures contain every `work` panic, so joins
            // only fail on unwinds the runtime itself raised (OOM aborts
            // never unwind) — nothing recoverable to translate.
            handles.into_iter().map(|h| h.join().expect("worker harness panicked")).collect()
        });
        let mut first_panic = None;
        for part in parts {
            match part {
                Ok(part) => {
                    for (i, t) in part {
                        slots[i] = Some(t);
                    }
                }
                Err(msg) => first_panic = first_panic.or(Some(msg)),
            }
        }
        if let Some(msg) = first_panic {
            return Err(DataError::WorkerPanic(msg));
        }
    }
    Ok(slots.into_iter().map(|s| s.expect("every unit dispatched")).collect())
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
    fn stealing_returns_unit_order_and_accounts_all_work() {
        for workers in [1usize, 2, 3, 8] {
            let out = run_stealing(37, workers, |i| i * i).unwrap();
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        // More workers than units: every unit still runs exactly once.
        assert_eq!(run_stealing(2, 16, |i| i).unwrap(), vec![0, 1]);
        // Zero units still terminates.
        assert!(run_stealing(0, 4, |i| i).unwrap().is_empty());
    }

    #[test]
    fn a_panicking_unit_surfaces_as_err_not_abort() {
        // Parallel: the panic is contained, peers drain, the scope joins.
        for workers in [1usize, 2, 4] {
            let err = run_stealing(16, workers, |i| {
                if i == 3 {
                    panic!("unit {i} exploded");
                }
                i
            })
            .unwrap_err();
            let DataError::WorkerPanic(msg) = err else { panic!("expected WorkerPanic") };
            assert!(msg.contains("unit 3 exploded"), "payload preserved: {msg}");
        }
        // `contain` gives the same translation for a single closure.
        assert!(
            matches!(contain(|| panic!("boom")), Err(DataError::WorkerPanic(m)) if m == "boom")
        );
        assert_eq!(contain(|| 7).unwrap(), 7);
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

    #[test]
    fn a_heavy_unit_does_not_serialize_its_peers() {
        // With 2 workers, unit 0 holds its thread until the 7 light units
        // are done (or a generous deadline passes): only pulling lets the
        // other worker drain them all, so none may share unit 0's thread.
        let light_done = AtomicUsize::new(0);
        let ran = run_stealing(8, 2, |i| {
            if i == 0 {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while light_done.load(Ordering::SeqCst) < 7 && std::time::Instant::now() < deadline
                {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            } else {
                light_done.fetch_add(1, Ordering::SeqCst);
            }
            std::thread::current().id()
        })
        .unwrap();
        assert_eq!(ran.len(), 8, "every unit accounted for");
        assert!(ran[1..].iter().all(|&t| t != ran[0]), "the peer drained the queue");
    }
}
