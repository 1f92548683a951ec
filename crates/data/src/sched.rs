//! The one work scheduler: pull-based work stealing with panic
//! containment.
//!
//! One-thread-per-partition parallelism serializes on skew: the worker that
//! drew the expensive partition finishes last while its peers idle. The fix
//! (Leis et al.'s morsel-driven model) is to cut the work into many more
//! units than workers and let workers pull the next unclaimed unit from a
//! shared counter. No unit is ever pinned to a thread, so a heavy unit
//! delays only itself; everything else is stolen by whoever is free.
//!
//! [`run_stealing`] is the only place the workspace spawns query or ingest
//! workers: the engine's root morsels, subtrees and merge pairs
//! (`fdb_core::morsel`, which re-exports it) and the CSV reader's byte
//! units ([`crate::csv`]). It lives in the data layer because the reader
//! does, and the data layer cannot depend on the engine.
//!
//! Results are returned **in unit order**, so downstream merges (which sum
//! f64 payloads, or concatenate parsed columns) stay deterministic
//! regardless of which worker ran which unit.
//!
//! **Panic containment.** Worker closures run under `catch_unwind`: a
//! panicking unit poisons the queue (peers drain cleanly after their
//! current unit), the scoped threads all join, and the panic surfaces as a
//! structured [`DataError::WorkerPanic`] instead of aborting the process.
//! See [`contain`] for the single-closure form engines use for degraded
//! retries.

use crate::error::DataError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
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
pub fn contain<T>(f: impl FnOnce() -> T) -> Result<T, DataError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| DataError::WorkerPanic(panic_message(p)))
}

/// Runs `work(i)` for every `i < units` on up to `workers` scoped threads,
/// each pulling the next unit index from a shared atomic counter — the
/// degenerate (and contention-free) form of work stealing: there are no
/// per-worker queues to steal *from* because no unit is ever assigned ahead
/// of time. Returns results in unit order. With one worker (or one unit)
/// every unit runs inline on the caller's thread and no thread is spawned.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // One unit runs on the caller's thread, whatever the worker count.
        let caller = std::thread::current().id();
        assert_eq!(run_stealing(1, 8, |_| std::thread::current().id()).unwrap(), vec![caller]);
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
