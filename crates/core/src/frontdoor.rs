//! Resilient serving front door: bounded write queue, backpressure,
//! retry/backoff, and circuit-breaking degradation.
//!
//! [`ServingEngine`](crate::serve::ServingEngine) (§2.10 of DESIGN.md)
//! gives many readers and one writer an epoch-transactional core, but it
//! is a *library*: a slow or failing writer simply blocks callers or
//! surfaces raw errors. The dynamic story of the paper — F-IVM
//! maintenance under a continuous update stream (Kara, Nikolic, Olteanu,
//! Zhang) — needs the system to stay correct **and available** when the
//! stream outruns maintenance or maintenance itself fails. [`FrontDoor`]
//! is that admission layer:
//!
//! * **Bounded queue + group commit.** Producers [`FrontDoor::submit`]
//!   deltas into a bounded queue; a dedicated writer thread drains
//!   whatever has accumulated per wake and **coalesces** consecutive
//!   same-relation deltas ([`Delta::merge_from`]) into one transactional
//!   maintenance pass each — one published epoch per merged batch, so a
//!   burst of `k` single-row updates costs one maintenance pass, not `k`.
//! * **Backpressure, never unbounded waits.** A full queue applies the
//!   configured [`Backpressure`] policy: block (up to a per-submit
//!   deadline — [`DataError::Timeout`]), reject
//!   ([`DataError::Overloaded`]), or shed the oldest queued delta.
//!   Refused submits are never enqueued and never publish an epoch.
//! * **Retry, then degrade, then recover.** Transient batch failures
//!   ([`DataError::Injected`], [`DataError::WorkerPanic`], `Io`) retry
//!   with seeded, deterministic exponential backoff. After
//!   `breaker_threshold` consecutive exhausted batches the circuit
//!   breaker trips: the maintained state degrades to recompute-per-delta
//!   ([`ServingEngine::degrade_to_recompute`] — the same re-prepare path
//!   the transactional wrapper uses), which skips the failing incremental
//!   machinery while staying transactional. After
//!   `breaker_probe_after` successful degraded batches the breaker
//!   half-opens and probes recovery ([`ServingEngine::promote`]); a
//!   successful probe plus one incremental commit closes it again.
//!
//! Throughout all of this, readers keep serving the answer the writer
//! maintained for the last *published* epoch — equal to a cold recompute
//! at that epoch (bit for bit on integer and dyadic measures, within the
//! float bound of DESIGN.md §2.7 otherwise), because nothing here weakens
//! the serving core's publish-only-on-success invariant: the front door
//! only decides *when* and *how often* the writer runs, never what it
//! publishes.
//!
//! Fault sites (live with the `fault-injection` feature): `queue-admit`
//! (a submit refused at admission), `writer-drain` (a batch drain failing
//! before touching the engine — transient, so it exercises the retry
//! path), and `breaker-trip` (forces a trip regardless of failure
//! history).

use crate::ir::{AggQuery, BatchResult};
use crate::maintain::MaintainableEngine;
use crate::serve::{EpochDb, ServingEngine, ServingStats};
use fdb_data::{fault, DataError, Database, Delta};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a [`FrontDoor::submit`] does when the bounded queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Wait for the writer to free space, up to the submit's deadline
    /// ([`DataError::Timeout`] past it). Lossless under overload.
    #[default]
    Block,
    /// Fail fast with [`DataError::Overloaded`]; the caller owns the
    /// retry policy. Lossless for admitted deltas, lossy for refused ones.
    Reject,
    /// Drop the *oldest* queued (not yet drained) delta to admit the
    /// newest — freshness over completeness, for streams where the latest
    /// update supersedes older ones. Shed deltas never publish.
    ShedOldest,
}

/// Tuning knobs for a [`FrontDoor`]. `Default` is a sensible serving
/// setup: a 64-deep queue, blocking producers with a 5 s deadline,
/// 3 retries from a 200 µs backoff, and a breaker that trips after 3
/// consecutive failed batches and probes after 2 degraded successes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontDoorConfig {
    /// Queue capacity in deltas; `submit` applies backpressure past it.
    pub queue_capacity: usize,
    /// Policy on a full queue.
    pub backpressure: Backpressure,
    /// Default deadline for `Block`-policy submits
    /// ([`FrontDoor::submit_with_deadline`] overrides per call).
    pub submit_timeout: Duration,
    /// Retries per batch after transient failures before the failure
    /// counts against the breaker.
    pub retry_max: u32,
    /// First-retry backoff; doubles per retry (plus deterministic jitter).
    pub backoff_base: Duration,
    /// Seed for the jitter stream — same seed, same fault schedule, same
    /// retry delays: chaos runs reproduce from their seeds alone.
    pub backoff_seed: u64,
    /// Consecutive exhausted batches that trip the breaker.
    pub breaker_threshold: u32,
    /// Successful degraded batches before the breaker half-opens and
    /// probes recovery.
    pub breaker_probe_after: u32,
    /// Group-commit coalescing of consecutive same-relation deltas
    /// (disable to publish one epoch per submitted delta).
    pub coalesce: bool,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            backpressure: Backpressure::Block,
            submit_timeout: Duration::from_secs(5),
            retry_max: 3,
            backoff_base: Duration::from_micros(200),
            backoff_seed: 0xF1D0_F1D0,
            breaker_threshold: 3,
            breaker_probe_after: 2,
            coalesce: true,
        }
    }
}

/// The circuit breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: batches apply through the incremental maintained state.
    Closed,
    /// Tripped: the maintained state is degraded to recompute-per-delta;
    /// batches still commit transactionally, just without the (failing)
    /// incremental machinery.
    Open,
    /// Enough degraded successes accumulated; the next batch probes
    /// recovery by re-preparing the incremental state.
    HalfOpen,
}

/// Queue state under the shared mutex; condvars do the rest.
struct QueueState {
    deltas: VecDeque<Delta>,
    /// The writer is between a drain and its publishes — the queue may be
    /// empty while batches are still in flight, so `flush` waits on both.
    draining: bool,
    /// Test hook: a paused writer leaves the queue accumulating, making
    /// coalescing deterministic.
    paused: bool,
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when the writer drains: wakes `Block`-policy producers.
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
    shed: AtomicU64,
    retries: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_probes: AtomicU64,
    breaker_recoveries: AtomicU64,
    /// 0 = Closed, 1 = Open, 2 = HalfOpen.
    breaker_state: AtomicU64,
}

impl Counters {
    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// The resilient admission layer around a [`ServingEngine`]: a bounded
/// delta queue drained by a dedicated coalescing writer thread, with
/// backpressure, deterministic retry/backoff, and a circuit breaker that
/// degrades to recompute mode rather than failing the stream.
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
                .spawn(move || writer_loop(&serving, &shared, &counters, cfg))
                .map_err(|e| DataError::Io(e.to_string()))?
        };
        Ok(Self { serving, shared, counters, cfg, writer: Some(writer) })
    }

    /// Submits one delta under the configured policy and default
    /// deadline. `Ok` means *admitted to the queue* — commitment and
    /// publication happen asynchronously on the writer thread (observe
    /// via [`FrontDoor::flush`] + [`FrontDoor::epoch`], or
    /// [`FrontDoor::stats`]). `Err` means the delta was **not** admitted
    /// and will never publish an epoch.
    pub fn submit(&self, delta: Delta) -> Result<(), DataError> {
        self.submit_with_deadline(delta, self.cfg.submit_timeout)
    }

    /// [`FrontDoor::submit`] with an explicit per-submit deadline (only
    /// meaningful under the `Block` policy).
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
            match self.cfg.backpressure {
                Backpressure::Reject => {
                    self.counters.bump(&self.counters.rejected);
                    return Err(DataError::Overloaded { capacity: self.cfg.queue_capacity });
                }
                Backpressure::ShedOldest => {
                    st.deltas.pop_front();
                    self.counters.bump(&self.counters.shed);
                    break;
                }
                Backpressure::Block => {
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
            }
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
    /// (deterministic coalescing). [`FrontDoor::resume`] or
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

    /// The breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        match self.counters.breaker_state.load(Ordering::Relaxed) {
            0 => BreakerState::Closed,
            1 => BreakerState::Open,
            _ => BreakerState::HalfOpen,
        }
    }

    /// Serving counters plus the front door's queue/retry/breaker fields.
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
            shed: c.shed.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            breaker_trips: c.breaker_trips.load(Ordering::Relaxed),
            breaker_probes: c.breaker_probes.load(Ordering::Relaxed),
            breaker_recoveries: c.breaker_recoveries.load(Ordering::Relaxed),
            ..self.serving.stats()
        }
    }

    /// Closes the queue (subsequent submits fail), drains everything
    /// already admitted, joins the writer thread, and returns the final
    /// stats plus the serving core — which keeps answering reads at the
    /// last published epoch for as long as the caller holds it.
    pub fn close(mut self) -> (ServingStats, Arc<ServingEngine<E>>) {
        self.shutdown();
        let queued =
            self.shared.state.lock().unwrap_or_else(|p| p.into_inner()).deltas.len() as u64;
        let mut stats = self.stats();
        stats.queued = queued;
        (stats, Arc::clone(&self.serving))
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

/// The writer thread: wait for admitted work, drain the whole queue,
/// coalesce, and commit one epoch per merged batch — retrying, tripping,
/// degrading, and probing as configured.
fn writer_loop<E: MaintainableEngine + Send + Sync>(
    serving: &ServingEngine<E>,
    shared: &Shared,
    counters: &Counters,
    cfg: FrontDoorConfig,
) {
    let mut breaker = Breaker::new();
    // Monotone sequence over backoff draws: deterministic jitter without
    // ambient randomness.
    let mut backoff_seq = 0u64;
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

        for group in coalesce(drained, cfg.coalesce) {
            apply_group(serving, counters, &cfg, &mut breaker, group, &mut backoff_seq);
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
fn coalesce(drained: Vec<Delta>, on: bool) -> Vec<Vec<Delta>> {
    let mut groups: Vec<Vec<Delta>> = Vec::new();
    for d in drained {
        match groups.last_mut() {
            Some(g) if on && g[0].relation == d.relation => g.push(d),
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
    cfg: &FrontDoorConfig,
    breaker: &mut Breaker,
    group: Vec<Delta>,
    backoff_seq: &mut u64,
) {
    let mut merged = group[0].clone();
    for d in &group[1..] {
        merged.merge_from(d).expect("coalesce only groups same-relation deltas");
    }
    match apply_one(serving, counters, cfg, breaker, &merged, backoff_seq) {
        Ok(()) => {
            counters.bump(&counters.batches_committed);
            counters.coalesced.fetch_add(group.len() as u64 - 1, Ordering::Relaxed);
        }
        Err(e) if group.len() > 1 && !is_transient(&e) => {
            for d in &group {
                match apply_one(serving, counters, cfg, breaker, d, backoff_seq) {
                    Ok(()) => counters.bump(&counters.batches_committed),
                    Err(_) => counters.bump(&counters.batches_failed),
                }
            }
        }
        Err(_) => counters.bump(&counters.batches_failed),
    }
}

/// One batch through retry + breaker. `Ok` means committed and published
/// (exactly one epoch); `Err` means rolled back and dropped.
fn apply_one<E: MaintainableEngine + Send + Sync>(
    serving: &ServingEngine<E>,
    counters: &Counters,
    cfg: &FrontDoorConfig,
    breaker: &mut Breaker,
    delta: &Delta,
    backoff_seq: &mut u64,
) -> Result<(), DataError> {
    // Chaos lever: force a trip regardless of failure history.
    if breaker.state == BreakerState::Closed && fault::trip("breaker-trip") {
        breaker.trip(serving, counters);
    }
    let probing = breaker.state == BreakerState::HalfOpen;
    if probing {
        counters.bump(&counters.breaker_probes);
        if serving.promote().is_ok() {
            // Tentatively closed; only this batch committing incrementally
            // confirms the recovery.
            breaker.set(BreakerState::Closed, counters);
        } else {
            // Still broken: stay degraded, start the probe count over.
            breaker.degraded_successes = 0;
            breaker.set(BreakerState::Open, counters);
        }
    }
    let mut attempt = 0u32;
    loop {
        let applied =
            fault::check_err("writer-drain").and_then(|()| serving.apply_delta(delta).map(drop));
        match applied {
            Ok(()) => {
                breaker.on_success(cfg, counters, probing);
                return Ok(());
            }
            Err(e) if is_transient(&e) => {
                if attempt < cfg.retry_max {
                    attempt += 1;
                    counters.bump(&counters.retries);
                    *backoff_seq += 1;
                    std::thread::sleep(backoff_delay(cfg, attempt, *backoff_seq));
                    continue;
                }
                // Retries exhausted: count against the breaker; if that
                // (or a half-open relapse) just degraded us, give the
                // batch one degraded attempt so it is not lost.
                let was_closed = breaker.state == BreakerState::Closed;
                breaker.on_exhausted(serving, cfg, counters, probing);
                if was_closed && breaker.state == BreakerState::Open {
                    return fault::check_err("writer-drain")
                        .and_then(|()| serving.apply_delta(delta).map(drop))
                        .inspect(|()| breaker.on_success(cfg, counters, false));
                }
                return Err(e);
            }
            // Permanent (validation-class): rolled back, never published;
            // retrying cannot change the outcome and the breaker is about
            // *maintenance* health, so it does not count.
            Err(e) => return Err(e),
        }
    }
}

/// Transient failures are worth retrying: injected faults, contained
/// worker panics, and I/O hiccups. Validation-class errors are permanent.
fn is_transient(e: &DataError) -> bool {
    matches!(e, DataError::Injected(_) | DataError::WorkerPanic(_) | DataError::Io(_))
}

/// Exponential backoff with deterministic jitter: `base * 2^(attempt-1)`
/// plus up to 50% drawn from a splitmix64 stream keyed by the configured
/// seed and the draw sequence number.
fn backoff_delay(cfg: &FrontDoorConfig, attempt: u32, seq: u64) -> Duration {
    let exp = cfg.backoff_base.saturating_mul(1u32 << (attempt - 1).min(16));
    let nanos = exp.as_nanos().min(u128::from(u64::MAX)) as u64;
    let jitter = splitmix64(cfg.backoff_seed.wrapping_add(seq)) % (nanos / 2 + 1);
    exp + Duration::from_nanos(jitter)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The breaker state machine, owned by the writer thread. Transitions
/// are driven by batch outcomes (not wall-clock), so chaos schedules
/// replay deterministically:
///
/// ```text
///            threshold consecutive exhausted batches
///   Closed ────────────────────────────────────────────▶ Open (degraded)
///      ▲                                                   │
///      │ probe re-prepares AND the                         │ probe_after
///      │ next batch commits incrementally                  │ degraded
///      │                                                   ▼ successes
///      └─────────────────────────────────────────────── HalfOpen
///                 (a failed probe or relapse falls back to Open)
/// ```
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    degraded_successes: u32,
}

impl Breaker {
    fn new() -> Self {
        Self { state: BreakerState::Closed, consecutive_failures: 0, degraded_successes: 0 }
    }

    fn set(&mut self, state: BreakerState, counters: &Counters) {
        self.state = state;
        let code = match state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        };
        counters.breaker_state.store(code, Ordering::Relaxed);
    }

    fn trip<E: MaintainableEngine + Send + Sync>(
        &mut self,
        serving: &ServingEngine<E>,
        counters: &Counters,
    ) {
        serving.degrade_to_recompute();
        self.consecutive_failures = 0;
        self.degraded_successes = 0;
        counters.bump(&counters.breaker_trips);
        self.set(BreakerState::Open, counters);
    }

    fn on_success(&mut self, cfg: &FrontDoorConfig, counters: &Counters, probing: bool) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                if probing {
                    // The probe re-prepared and this batch committed
                    // incrementally: recovery confirmed.
                    counters.bump(&counters.breaker_recoveries);
                }
            }
            BreakerState::Open => {
                self.degraded_successes += 1;
                if self.degraded_successes >= cfg.breaker_probe_after {
                    self.set(BreakerState::HalfOpen, counters);
                }
            }
            BreakerState::HalfOpen => {}
        }
    }

    fn on_exhausted<E: MaintainableEngine + Send + Sync>(
        &mut self,
        serving: &ServingEngine<E>,
        cfg: &FrontDoorConfig,
        counters: &Counters,
        probing: bool,
    ) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if probing || self.consecutive_failures >= cfg.breaker_threshold {
                    self.trip(serving, counters);
                }
            }
            // A degraded batch failing anyway (e.g. injected right at the
            // delta layer): stay open, restart the probe count.
            BreakerState::Open => self.degraded_successes = 0,
            BreakerState::HalfOpen => {}
        }
    }
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

    #[test]
    fn coalescing_off_publishes_one_epoch_per_delta() {
        let cfg = FrontDoorConfig { coalesce: false, ..Default::default() };
        let fd = FrontDoor::new(FlatEngine, &db(), &sum_query(), cfg).unwrap();
        let e0 = fd.epoch();
        fd.pause();
        for k in 0..4 {
            fd.submit(Delta::insert("R", row(20 + k, 1.0))).unwrap();
        }
        fd.flush();
        assert_eq!(fd.epoch(), e0 + 4);
        assert_eq!(fd.stats().coalesced, 0);
    }

    #[test]
    fn reject_policy_fails_fast_and_never_publishes_refused_deltas() {
        let cfg = FrontDoorConfig {
            queue_capacity: 2,
            backpressure: Backpressure::Reject,
            ..Default::default()
        };
        let fd = FrontDoor::new(FlatEngine, &db(), &sum_query(), cfg).unwrap();
        let e0 = fd.epoch();
        fd.pause();
        fd.submit(Delta::insert("R", row(10, 1.0))).unwrap();
        fd.submit(Delta::insert("R", row(11, 1.0))).unwrap();
        let err = fd.submit(Delta::insert("R", row(12, 1.0))).unwrap_err();
        assert!(matches!(err, DataError::Overloaded { capacity: 2 }));
        fd.flush();
        assert_eq!(fd.epoch(), e0 + 1, "the refused delta never became an epoch");
        assert_eq!(fd.query().unwrap().1.scalar(1), 5.0, "only the two admitted rows landed");
        let s = fd.stats();
        assert_eq!((s.rejected, s.submitted), (1, 2));
    }

    #[test]
    fn shed_oldest_drops_the_stalest_queued_delta() {
        let cfg = FrontDoorConfig {
            queue_capacity: 2,
            backpressure: Backpressure::ShedOldest,
            ..Default::default()
        };
        let fd = FrontDoor::new(FlatEngine, &db(), &sum_query(), cfg).unwrap();
        fd.pause();
        fd.submit(Delta::insert("R", row(10, 10.0))).unwrap();
        fd.submit(Delta::insert("R", row(11, 11.0))).unwrap();
        fd.submit(Delta::insert("R", row(12, 12.0))).unwrap();
        fd.flush();
        let (_, r) = fd.query().unwrap();
        assert_eq!(r.scalar(0), 6.0 + 11.0 + 12.0, "k=10 was shed, never applied");
        assert_eq!(fd.stats().shed, 1);
    }

    #[test]
    fn block_policy_times_out_at_the_deadline() {
        let cfg = FrontDoorConfig {
            queue_capacity: 1,
            submit_timeout: Duration::from_millis(40),
            ..Default::default()
        };
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
        let cfg = FrontDoorConfig {
            queue_capacity: 1,
            submit_timeout: Duration::from_secs(30),
            ..Default::default()
        };
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
    fn backoff_is_deterministic_in_the_seed_and_bounded() {
        let cfg = FrontDoorConfig::default();
        for (attempt, seq) in [(1u32, 1u64), (2, 2), (3, 3), (8, 9)] {
            let a = backoff_delay(&cfg, attempt, seq);
            let b = backoff_delay(&cfg, attempt, seq);
            assert_eq!(a, b, "same seed+sequence, same delay");
            let exp = cfg.backoff_base.saturating_mul(1 << (attempt - 1).min(16));
            assert!(a >= exp && a <= exp + exp / 2 + Duration::from_nanos(1));
        }
        let other = FrontDoorConfig { backoff_seed: 99, ..cfg };
        assert_ne!(
            backoff_delay(&cfg, 3, 7),
            backoff_delay(&other, 3, 7),
            "different seeds draw different jitter"
        );
    }

    #[test]
    fn coalesce_groups_only_consecutive_same_relation_runs() {
        let d = |rel: &str| Delta::insert(rel, row(1, 1.0));
        let groups = coalesce(vec![d("R"), d("R"), d("S"), d("R")], true);
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 1, 1], "S breaks the run; order is preserved");
        assert_eq!(coalesce(vec![d("R"), d("R")], false).len(), 2);
    }
}
