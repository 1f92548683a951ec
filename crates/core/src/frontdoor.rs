//! Serving front door: a bounded write queue, group commit, and a
//! bounded retry of transient failures.
//!
//! [`ServingEngine`](crate::serve::ServingEngine) (§2.10 of DESIGN.md)
//! gives many readers and one writer an epoch-transactional core, but it
//! is a *library*: every producer calls `apply_delta` itself and
//! serializes on the writer mutex with no bound and no deadline.
//! [`FrontDoor`] is the admission layer in front of it:
//!
//! * **Bounded queue.** Producers [`FrontDoor::submit`] deltas into a
//!   queue of `queue_capacity`. A full queue parks the producer until
//!   space frees or its deadline passes ([`DataError::Timeout`]); a zero
//!   deadline ([`FrontDoor::submit_with_deadline`]) fails fast. Refused
//!   submits are never enqueued and never publish an epoch.
//! * **Group commit.** A dedicated writer thread drains whatever has
//!   accumulated per wake and merges consecutive same-relation deltas
//!   ([`Delta::merge_from`]) into one transactional maintenance pass each:
//!   one published epoch per merged batch, so a burst of `k` single-row
//!   updates costs one maintenance pass, not `k`. A merged batch that
//!   fails permanently is re-applied delta by delta, so one poison pill
//!   cannot sink its neighbours.
//! * **Bounded retry.** A transient failure ([`DataError::Injected`],
//!   [`DataError::WorkerPanic`], `Io`) is retried up to `RETRY_MAX` (3)
//!   times, sleeping `BACKOFF_BASE` (200 µs) before the first retry and twice as
//!   long before each next one. Recovery itself is not the front door's
//!   job: the [`MaintainableEngine::apply_delta`] wrapper already rolled
//!   the failed attempt back and re-prepared the maintained state (or
//!   fell back to recompute), so each retry starts from the last good
//!   epoch.
//!
//! Readers keep serving the answer the writer maintained for the last
//! *published* epoch, because nothing here weakens the serving core's
//! publish-only-on-success invariant: the front door only decides *when*
//! the writer runs, never what it publishes.
//!
//! Fault sites (live with the `fault-injection` feature): `queue-admit`
//! (a submit refused at admission) and `writer-drain` (a batch drain
//! failing before touching the engine; transient, so it exercises the
//! retry).

use crate::ir::{AggQuery, BatchResult};
use crate::maintain::MaintainableEngine;
use crate::serve::{EpochDb, ServingEngine, ServingStats};
use fdb_data::{fault, DataError, Database, Delta};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retries of a batch after a transient failure, before it is dropped.
const RETRY_MAX: u32 = 3;

/// Sleep before the first retry; it doubles before each next one.
const BACKOFF_BASE: Duration = Duration::from_micros(200);

/// Settings of a [`FrontDoor`]. `Default` is a 64-deep queue whose
/// producers wait at most 5 s for space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontDoorConfig {
    /// Queue capacity in deltas; a submit past it waits for space.
    pub queue_capacity: usize,
    /// Default deadline of a submit waiting on a full queue
    /// ([`FrontDoor::submit_with_deadline`] overrides it per call).
    pub submit_timeout: Duration,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        Self { queue_capacity: 64, submit_timeout: Duration::from_secs(5) }
    }
}

/// Queue state under the shared mutex; condvars do the rest.
struct QueueState {
    deltas: VecDeque<Delta>,
    /// The writer is between a drain and its publishes — the queue may be
    /// empty while batches are still in flight, so `flush` waits on both.
    draining: bool,
    /// Test hook: a paused writer leaves the queue accumulating, making
    /// group commit deterministic.
    paused: bool,
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when the writer drains: wakes producers waiting for space.
    not_full: Condvar,
    /// Signalled on submit/resume/close: wakes the writer.
    work: Condvar,
    /// Signalled when the writer goes idle with an empty queue: wakes
    /// [`FrontDoor::flush`] callers.
    idle: Condvar,
}

/// Monotonic activity counters shared with the writer thread.
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    coalesced: AtomicU64,
    batches_committed: AtomicU64,
    batches_failed: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    retries: AtomicU64,
}

impl Counters {
    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// The admission layer around a [`ServingEngine`]: a bounded delta queue
/// drained by a dedicated group-committing writer thread that retries
/// transient failures a bounded number of times.
///
/// Readers go straight to the serving core ([`FrontDoor::query`] /
/// [`FrontDoor::snapshot`] delegate) and never block on the queue.
/// Dropping the front door closes the queue, drains what was admitted,
/// and joins the writer thread.
pub struct FrontDoor<E: MaintainableEngine + Send + Sync + 'static> {
    serving: Arc<ServingEngine<E>>,
    shared: Arc<Shared>,
    counters: Arc<Counters>,
    cfg: FrontDoorConfig,
    writer: Option<JoinHandle<()>>,
}

impl<E: MaintainableEngine + Send + Sync + 'static> FrontDoor<E> {
    /// Prepares `q` over `db` through `engine` (the one-shot cost of
    /// [`ServingEngine::new`]), publishes the initial epoch, and spawns
    /// the writer thread.
    pub fn new(
        engine: E,
        db: &Database,
        q: &AggQuery,
        cfg: FrontDoorConfig,
    ) -> Result<Self, DataError> {
        let serving = Arc::new(ServingEngine::new(engine, db, q)?);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                deltas: VecDeque::new(),
                draining: false,
                paused: false,
                closed: false,
            }),
            not_full: Condvar::new(),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let counters = Arc::new(Counters::default());
        let writer = {
            let (serving, shared, counters) =
                (Arc::clone(&serving), Arc::clone(&shared), Arc::clone(&counters));
            std::thread::Builder::new()
                .name("fdb-frontdoor-writer".into())
                .spawn(move || writer_loop(&serving, &shared, &counters))
                .map_err(|e| DataError::Io(e.to_string()))?
        };
        Ok(Self { serving, shared, counters, cfg, writer: Some(writer) })
    }

    /// Submits one delta with the configured deadline. `Ok` means
    /// *admitted to the queue* — commitment and publication happen
    /// asynchronously on the writer thread (observe via
    /// [`FrontDoor::flush`] + [`FrontDoor::epoch`], or
    /// [`FrontDoor::stats`]). `Err` means the delta was **not** admitted
    /// and will never publish an epoch.
    pub fn submit(&self, delta: Delta) -> Result<(), DataError> {
        self.submit_with_deadline(delta, self.cfg.submit_timeout)
    }

    /// [`FrontDoor::submit`] with an explicit deadline for waiting on a
    /// full queue; `Duration::ZERO` fails fast with
    /// [`DataError::Timeout`] instead of waiting.
    pub fn submit_with_deadline(&self, delta: Delta, timeout: Duration) -> Result<(), DataError> {
        if let Err(e) = fault::check_err("queue-admit") {
            self.counters.bump(&self.counters.rejected);
            return Err(e);
        }
        let start = Instant::now();
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if st.closed {
                return Err(DataError::Invalid("front door is closed".into()));
            }
            if st.deltas.len() < self.cfg.queue_capacity {
                break;
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                self.counters.bump(&self.counters.timed_out);
                return Err(DataError::Timeout { waited_ms: elapsed.as_millis() as u64 });
            }
            let (guard, _) = self
                .shared
                .not_full
                .wait_timeout(st, timeout - elapsed)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
        st.deltas.push_back(delta);
        self.counters.bump(&self.counters.submitted);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Blocks until every currently admitted delta has been drained *and*
    /// resolved (committed or dropped) — the quiescence point tests and
    /// graceful shutdown key on. Implicitly resumes a paused writer.
    pub fn flush(&self) {
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        st.paused = false;
        self.shared.work.notify_one();
        while !st.deltas.is_empty() || st.draining {
            st = self.shared.idle.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Test hook: stop the writer from draining so submits accumulate
    /// (deterministic group commit). [`FrontDoor::resume`] or
    /// [`FrontDoor::flush`] restarts it; closing overrides it.
    pub fn pause(&self) {
        self.shared.state.lock().unwrap_or_else(|p| p.into_inner()).paused = true;
    }

    /// Restarts a paused writer.
    pub fn resume(&self) {
        self.shared.state.lock().unwrap_or_else(|p| p.into_inner()).paused = false;
        self.shared.work.notify_one();
    }

    /// The wrapped serving core, for direct reader access (sharing it
    /// across reader threads is exactly [`ServingEngine`]'s contract).
    pub fn serving(&self) -> &Arc<ServingEngine<E>> {
        &self.serving
    }

    /// Delegates to [`ServingEngine::query`]: the maintained answer at
    /// the last *published* epoch, with no engine run — unaffected by
    /// queued, retrying, or failed batches.
    pub fn query(&self) -> Result<(u64, BatchResult), DataError> {
        self.serving.query()
    }

    /// Delegates to [`ServingEngine::snapshot`].
    pub fn snapshot(&self) -> Arc<EpochDb> {
        self.serving.snapshot()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.serving.epoch()
    }

    /// Serving counters plus the front door's queue and retry fields.
    pub fn stats(&self) -> ServingStats {
        let queued =
            self.shared.state.lock().unwrap_or_else(|p| p.into_inner()).deltas.len() as u64;
        let c = &self.counters;
        ServingStats {
            queued,
            submitted: c.submitted.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            batches_committed: c.batches_committed.load(Ordering::Relaxed),
            batches_failed: c.batches_failed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            ..self.serving.stats()
        }
    }

    /// Closes the queue (subsequent submits fail), drains everything
    /// already admitted, joins the writer thread, and returns the final
    /// stats plus the serving core — which keeps answering reads at the
    /// last published epoch for as long as the caller holds it.
    pub fn close(mut self) -> (ServingStats, Arc<ServingEngine<E>>) {
        self.shutdown();
        (self.stats(), Arc::clone(&self.serving))
    }

    fn shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.closed = true;
            st.paused = false;
        }
        self.shared.work.notify_all();
        self.shared.not_full.notify_all();
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

impl<E: MaintainableEngine + Send + Sync + 'static> Drop for FrontDoor<E> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The writer thread: wait for admitted work, drain the whole queue, and
/// commit one epoch per merged same-relation run.
fn writer_loop<E: MaintainableEngine + Send + Sync>(
    serving: &ServingEngine<E>,
    shared: &Shared,
    counters: &Counters,
) {
    loop {
        let drained: Vec<Delta> = {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            while !st.closed && (st.paused || st.deltas.is_empty()) {
                st = shared.work.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            if st.deltas.is_empty() {
                // Closed with nothing left: graceful exit.
                st.draining = false;
                shared.idle.notify_all();
                return;
            }
            st.draining = true;
            let drained = st.deltas.drain(..).collect();
            shared.not_full.notify_all();
            drained
        };

        for group in coalesce(drained) {
            apply_group(serving, counters, group);
        }

        let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
        st.draining = false;
        if st.deltas.is_empty() {
            shared.idle.notify_all();
        }
    }
}

/// Groups consecutive same-relation deltas (the group-commit batches).
/// Order across groups — and therefore across relations — is preserved.
fn coalesce(drained: Vec<Delta>) -> Vec<Vec<Delta>> {
    let mut groups: Vec<Vec<Delta>> = Vec::new();
    for d in drained {
        match groups.last_mut() {
            Some(g) if g[0].relation == d.relation => g.push(d),
            _ => groups.push(vec![d]),
        }
    }
    groups
}

/// Merges one group and commits it as a single batch. A *permanent*
/// failure of a multi-delta batch (validation-class errors: the rollback
/// already happened, retrying cannot help) re-applies the constituents
/// individually so one poison-pill delta cannot take its coalesced
/// neighbors down with it.
fn apply_group<E: MaintainableEngine + Send + Sync>(
    serving: &ServingEngine<E>,
    counters: &Counters,
    group: Vec<Delta>,
) {
    let mut merged = group[0].clone();
    for d in &group[1..] {
        merged.merge_from(d).expect("coalesce only groups same-relation deltas");
    }
    match apply_one(serving, counters, &merged) {
        Ok(()) => {
            counters.bump(&counters.batches_committed);
            counters.coalesced.fetch_add(group.len() as u64 - 1, Ordering::Relaxed);
        }
        Err(e) if group.len() > 1 && !is_transient(&e) => {
            for d in &group {
                match apply_one(serving, counters, d) {
                    Ok(()) => counters.bump(&counters.batches_committed),
                    Err(_) => counters.bump(&counters.batches_failed),
                }
            }
        }
        Err(_) => counters.bump(&counters.batches_failed),
    }
}

/// One batch, retried on transient failure. `Ok` means committed and
/// published (exactly one epoch); `Err` means rolled back and dropped.
fn apply_one<E: MaintainableEngine + Send + Sync>(
    serving: &ServingEngine<E>,
    counters: &Counters,
    delta: &Delta,
) -> Result<(), DataError> {
    let attempt =
        || fault::check_err("writer-drain").and_then(|()| serving.apply_delta(delta).map(drop));
    let mut backoff = BACKOFF_BASE;
    for _ in 0..RETRY_MAX {
        match attempt() {
            Err(e) if is_transient(&e) => {
                counters.bump(&counters.retries);
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            applied => return applied,
        }
    }
    attempt()
}

/// Transient failures are worth retrying: injected faults, contained
/// worker panics, and I/O hiccups. Validation-class errors are permanent.
fn is_transient(e: &DataError) -> bool {
    matches!(e, DataError::Injected(_) | DataError::WorkerPanic(_) | DataError::Io(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FlatEngine;
    use crate::batch::{AggBatch, Aggregate};
    use fdb_data::{AttrType, Relation, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)]));
        for (k, x) in [(1, 1.0), (2, 2.0), (3, 3.0)] {
            r.push_row(&[Value::Int(k), Value::F64(x)]).unwrap();
        }
        db.add("R", r);
        db
    }

    fn sum_query() -> AggQuery {
        let mut batch = AggBatch::new();
        batch.push(Aggregate::sum("x"));
        batch.push(Aggregate::count());
        AggQuery::new(&["R"], batch)
    }

    fn row(k: i64, x: f64) -> Vec<Value> {
        vec![Value::Int(k), Value::F64(x)]
    }

    #[test]
    fn coalesces_a_paused_burst_into_one_epoch() {
        let fd = FrontDoor::new(FlatEngine, &db(), &sum_query(), FrontDoorConfig::default())
            .expect("front door");
        let e0 = fd.epoch();
        fd.pause();
        for k in 0..5 {
            fd.submit(Delta::insert("R", row(10 + k, 1.0))).unwrap();
        }
        fd.flush();
        let s = fd.stats();
        assert_eq!(fd.epoch(), e0 + 1, "five same-relation deltas, one group commit");
        assert_eq!((s.submitted, s.batches_committed, s.coalesced), (5, 1, 4));
        assert_eq!(fd.query().unwrap().1.scalar(1), 8.0);
    }

    /// Destructures exhaustively (no `..`): a new `FrontDoorConfig` field
    /// is a compile error here, so adding one has to be justified.
    #[test]
    fn default_config_has_two_settings() {
        let FrontDoorConfig { queue_capacity, submit_timeout } = FrontDoorConfig::default();
        assert_eq!(queue_capacity, 64);
        assert_eq!(submit_timeout, Duration::from_secs(5));
    }

    #[test]
    fn zero_deadline_fails_fast_and_never_publishes_refused_deltas() {
        let cfg = FrontDoorConfig { queue_capacity: 2, ..Default::default() };
        let fd = FrontDoor::new(FlatEngine, &db(), &sum_query(), cfg).unwrap();
        let e0 = fd.epoch();
        fd.pause();
        fd.submit(Delta::insert("R", row(10, 1.0))).unwrap();
        fd.submit(Delta::insert("R", row(11, 1.0))).unwrap();
        let start = Instant::now();
        let err =
            fd.submit_with_deadline(Delta::insert("R", row(12, 1.0)), Duration::ZERO).unwrap_err();
        assert!(matches!(err, DataError::Timeout { .. }), "got {err:?}");
        assert!(start.elapsed() < Duration::from_secs(1), "a zero deadline does not wait");
        fd.flush();
        assert_eq!(fd.epoch(), e0 + 1, "the refused delta never became an epoch");
        assert_eq!(fd.query().unwrap().1.scalar(1), 5.0, "only the two admitted rows landed");
        let s = fd.stats();
        assert_eq!((s.timed_out, s.submitted), (1, 2));
    }

    #[test]
    fn full_queue_times_out_at_the_deadline() {
        let cfg = FrontDoorConfig { queue_capacity: 1, submit_timeout: Duration::from_millis(40) };
        let fd = FrontDoor::new(FlatEngine, &db(), &sum_query(), cfg).unwrap();
        fd.pause();
        fd.submit(Delta::insert("R", row(10, 1.0))).unwrap();
        let err = fd.submit(Delta::insert("R", row(11, 1.0))).unwrap_err();
        assert!(matches!(err, DataError::Timeout { .. }));
        assert_eq!(fd.stats().timed_out, 1);
        fd.flush();
        assert_eq!(fd.query().unwrap().1.scalar(1), 4.0);
    }

    #[test]
    fn blocked_producers_progress_as_the_writer_drains() {
        let cfg = FrontDoorConfig { queue_capacity: 1, submit_timeout: Duration::from_secs(30) };
        let fd = FrontDoor::new(FlatEngine, &db(), &sum_query(), cfg).unwrap();
        std::thread::scope(|s| {
            let fd = &fd;
            for t in 0..3 {
                s.spawn(move || {
                    for k in 0..10 {
                        fd.submit(Delta::insert("R", row(100 * t + k, 1.0))).unwrap();
                    }
                });
            }
        });
        fd.flush();
        let s = fd.stats();
        assert_eq!(s.submitted, 30);
        assert_eq!(s.batches_committed + s.coalesced, 30, "every admitted delta resolved");
        assert_eq!(fd.query().unwrap().1.scalar(1), 33.0);
        assert_eq!(s.queued, 0);
    }

    #[test]
    fn poison_pill_in_a_merged_batch_does_not_sink_its_neighbors() {
        let fd =
            FrontDoor::new(FlatEngine, &db(), &sum_query(), FrontDoorConfig::default()).unwrap();
        let e0 = fd.epoch();
        fd.pause();
        fd.submit(Delta::insert("R", row(10, 1.0))).unwrap();
        // Deleting a row that does not exist: permanent validation error.
        fd.submit(Delta::delete("R", row(99, 99.0))).unwrap();
        fd.submit(Delta::insert("R", row(11, 1.0))).unwrap();
        fd.flush();
        let s = fd.stats();
        assert_eq!(s.batches_failed, 1, "only the poison pill dropped");
        assert_eq!(s.batches_committed, 2, "its neighbors re-applied individually");
        assert_eq!(fd.epoch(), e0 + 2);
        assert_eq!(fd.query().unwrap().1.scalar(1), 5.0);
    }

    #[test]
    fn close_drains_admitted_deltas_and_keeps_serving_reads() {
        let fd =
            FrontDoor::new(FlatEngine, &db(), &sum_query(), FrontDoorConfig::default()).unwrap();
        fd.pause();
        for k in 0..3 {
            fd.submit(Delta::insert("R", row(50 + k, 1.0))).unwrap();
        }
        let (stats, serving) = fd.close();
        assert_eq!(stats.queued, 0, "close drains before returning");
        assert_eq!(stats.batches_committed, 1);
        assert_eq!(serving.query().unwrap().1.scalar(1), 6.0);
    }

    #[test]
    fn closed_front_door_refuses_submits() {
        let fd =
            FrontDoor::new(FlatEngine, &db(), &sum_query(), FrontDoorConfig::default()).unwrap();
        let serving = Arc::clone(fd.serving());
        drop(fd);
        assert_eq!(serving.epoch(), 0);
        // A second front door over the same core also closes cleanly —
        // and while one is closed, submitting through it errors.
        let fd =
            FrontDoor::new(FlatEngine, &db(), &sum_query(), FrontDoorConfig::default()).unwrap();
        {
            let mut st = fd.shared.state.lock().unwrap();
            st.closed = true;
        }
        let err = fd.submit(Delta::insert("R", row(1, 1.0))).unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)));
    }

    #[test]
    fn coalesce_groups_only_consecutive_same_relation_runs() {
        let d = |rel: &str| Delta::insert(rel, row(1, 1.0));
        let groups = coalesce(vec![d("R"), d("R"), d("S"), d("R")]);
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 1, 1], "S breaks the run; order is preserved");
    }
}
