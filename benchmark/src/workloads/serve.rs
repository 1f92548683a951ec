//! `serve_mixed`: reads beside writes.
//!
//! A covariance query is served behind a `FrontDoor` with its default
//! configuration. One producer submits single-row fact inserts open loop
//! at a fixed rate, each timed from the instant it was due; one reader
//! calls `query()` closed loop and logs when it asked, when it was
//! answered, and the `SUM(1)` it saw. Every insert adds exactly one join
//! row, so delta *i* is visible in the first read whose count reaches
//! `c0 + i`: publish lag and read latency both come off the reader's own
//! log, with no statistics API involved.

use super::train::covariance_query;
use super::{ms_since, peak_rss_mb, Cfg, Report, Workload, ORACLE_SCALE};
use crate::engine::oracle_check;
use crate::gen::{delta_stream, retailer_at, Features, INSERT_ONLY};
use crate::stats::{median, percentile};
use crate::trace::{self, Trace};
use fdb::data::{DataError, Delta};
use fdb::datasets::Dataset;
use fdb::lmfao::{AggQuery, DispatchEngine, FrontDoor, FrontDoorConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SERVE_SCALE: f64 = 0.5;
/// Offered write rate, inserts per second.
const RATE: f64 = 200.0;
/// Reads before the writer starts: the idle baseline.
const IDLE_READS: usize = 30;
/// Submit-and-flush pairs with no reader beside them (traced runs).
const WRITES_ALONE: usize = 100;
/// Each delta is a lag sample, well over a thousand per run.
const FRESH_TAIL_PCT: f64 = 90.0;
/// How long the reader waits for the last delta after the producer ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

pub struct ServeMixed {
    rows: usize,
    door: FrontDoor<DispatchEngine>,
    deltas: Vec<Delta>,
    oracle: (u64, u64),
}

fn front_door(ds: &Dataset, q: &AggQuery) -> Result<FrontDoor<DispatchEngine>, DataError> {
    FrontDoor::new(DispatchEngine::new(), &ds.db, q, FrontDoorConfig::default())
}

fn inserts(ds: &Dataset, seed: u64, n: usize) -> Result<Vec<Delta>, DataError> {
    Ok(delta_stream(ds, seed, n, INSERT_ONLY)?.into_iter().map(|op| op.delta).collect())
}

/// One read, as the reader logged it.
struct Read {
    asked: Instant,
    answered: Instant,
    count: f64,
    epoch: u64,
}

/// What the producer thread hands back.
struct Produced {
    /// When each admitted delta was due.
    due: Vec<Instant>,
    late_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    refused: u64,
    ended: Instant,
    trace: Trace,
}

impl Workload for ServeMixed {
    fn setup(cfg: &Cfg) -> Result<Self, DataError> {
        // Small instance: serve, write, flush, read, and hold what the read
        // returns to the oracle over a database the same deltas went into.
        let small = retailer_at(SERVE_SCALE * ORACLE_SCALE, cfg.seed);
        let q = covariance_query(&Features::of(&small));
        let door = front_door(&small, &q)?;
        let mut after = small.db.clone();
        for delta in inserts(&small, cfg.seed, 25)? {
            after.apply_delta(&delta)?;
            door.submit(delta)?;
        }
        door.flush();
        let oracle = oracle_check(&after, &q, &door.query()?.1)?;
        drop(door);

        let ds = retailer_at(SERVE_SCALE * cfg.scale, cfg.seed);
        let q = covariance_query(&Features::of(&ds));
        let n = (cfg.seconds * RATE) as usize + WRITES_ALONE;
        Ok(Self {
            rows: ds.db.get("Inventory")?.len(),
            door: front_door(&ds, &q)?,
            deltas: inserts(&ds, cfg.seed, n)?,
            oracle,
        })
    }

    fn oracle(&self) -> (u64, u64) {
        self.oracle
    }

    fn measure(self, cfg: &Cfg, report: &mut Report) -> Result<(), DataError> {
        let door = &self.door;
        let mut idle_ms = Vec::new();
        let mut c0 = 0.0;
        for _ in 0..IDLE_READS {
            let t = Instant::now();
            c0 = door.query()?.1.scalar(0);
            idle_ms.push(ms_since(t));
        }
        report.check(c0 == self.rows as f64, || {
            format!("SUM(1) = {c0} before any write, but the fact table has {} rows", self.rows)
        });

        // Leave the tail of the run for the queue to drain (and, traced, for
        // the writes-alone phase).
        let live_s =
            if cfg.traced { 0.6 * cfg.seconds } else { (cfg.seconds - 1.0).max(0.5 * cfg.seconds) };
        let n = ((live_s * RATE) as usize).min(self.deltas.len() - WRITES_ALONE);
        let (live, alone) = self.deltas.split_at(n);
        let done = AtomicBool::new(false);
        let admitted = AtomicU64::new(0);
        let start = Instant::now();
        let traced = cfg.traced;
        let (reads, produced) = std::thread::scope(|s| {
            let producer = s.spawn(|| {
                trace::enable(traced);
                let mut p = Produced {
                    due: Vec::with_capacity(n),
                    late_ms: Vec::with_capacity(n),
                    submit_ms: Vec::with_capacity(n),
                    refused: 0,
                    ended: start,
                    trace: Trace::default(),
                };
                for (i, delta) in live.iter().enumerate() {
                    let due = start + Duration::from_secs_f64(i as f64 / RATE);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let ok =
                        trace::op("core.frontdoor.submit", || door.submit(delta.clone())).is_ok();
                    p.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
                    p.submit_ms.push(ms_since(sent));
                    if ok {
                        p.due.push(due);
                        admitted.fetch_add(1, Ordering::SeqCst);
                    } else {
                        p.refused += 1;
                    }
                }
                p.ended = Instant::now();
                // SeqCst: the reader must see the final `admitted` once it
                // sees `done`.
                done.store(true, Ordering::SeqCst);
                trace::enable(false);
                p.trace = trace::take();
                p
            });
            trace::enable(traced);
            let mut reads: Vec<Read> = Vec::new();
            let mut drain_from: Option<Instant> = None;
            loop {
                let asked = Instant::now();
                match trace::op("core.serve.read", || door.query()) {
                    Ok((epoch, res)) => {
                        reads.push(Read {
                            asked,
                            answered: Instant::now(),
                            count: res.scalar(0),
                            epoch,
                        });
                    }
                    Err(e) => report.check(false, || format!("read: {e}")),
                }
                if done.load(Ordering::SeqCst) {
                    let all = c0 + admitted.load(Ordering::SeqCst) as f64;
                    let since = *drain_from.get_or_insert_with(Instant::now);
                    if reads.last().is_some_and(|r| r.count >= all) || since.elapsed() > DRAIN_LIMIT
                    {
                        break;
                    }
                }
            }
            trace::enable(false);
            (reads, producer.join().expect("the producer does not panic"))
        });
        door.flush();
        let reader_trace = trace::take();

        // Correctness, all from the log: counts never go back, and the
        // last one is every admitted insert on top of the start.
        let admitted = produced.due.len();
        report.attempted += (live.len() + reads.len()) as u64;
        report.failed += produced.refused;
        report.check(reads.windows(2).all(|w| w[0].count <= w[1].count), || {
            "a later read saw a smaller SUM(1)".into()
        });
        let last = door.query()?.1.scalar(0);
        report.check(last == c0 + admitted as f64, || {
            format!("final SUM(1) = {last}, expected {c0} + {admitted} admitted inserts")
        });

        // Publish lag of delta i: from its due time to the answer of the
        // first read that counted it.
        let mut lag_ms = Vec::with_capacity(admitted);
        let mut r = 0;
        for (i, due) in produced.due.iter().enumerate() {
            while r < reads.len() && reads[r].count < c0 + (i + 1) as f64 {
                r += 1;
            }
            match reads.get(r) {
                Some(read) => lag_ms.push(read.answered.duration_since(*due).as_secs_f64() * 1e3),
                None => report.check(false, || format!("insert {i} never became visible")),
            }
        }
        // Reads beside writes: those asked while the producer was live.
        let beside: Vec<f64> = reads
            .iter()
            .filter(|r| r.asked >= start && r.asked <= produced.ended)
            .map(|r| r.answered.duration_since(r.asked).as_secs_f64() * 1e3)
            .collect();
        let live_window_s = produced.ended.duration_since(start).as_secs_f64();
        report.note(format!(
            "{} fact rows; {admitted} inserts at {RATE}/s over {live_window_s:.2} s beside {} reads",
            self.rows,
            beside.len()
        ));
        if !cfg.traced {
            report.set("fresh_p50_ms", median(&lag_ms));
            report.set("fresh_tail_ms", percentile(&lag_ms, FRESH_TAIL_PCT));
            report.set("ask_p50_ms", median(&beside));
            report.set("work_per_s", beside.len() as f64 / live_window_s);
            return Ok(());
        }

        report.set("proc.peak_rss_mb", peak_rss_mb());
        // Writes with no reader beside them.
        let mut alone_ms = Vec::new();
        for delta in alone {
            let t = Instant::now();
            let ok = door.submit(delta.clone()).is_ok();
            door.flush();
            alone_ms.push(ms_since(t));
            report.check(ok, || "a write with no reader beside it was refused".into());
        }
        let epochs = reads.last().map_or(0, |r| r.epoch) - reads.first().map_or(0, |r| r.epoch);
        report.set("core.serve.read_idle_ms", median(&idle_ms));
        report.set("core.serve.read_p90_ms", percentile(&beside, 90.0));
        report.set("core.serve.write_alone_ms", median(&alone_ms));
        report.set("core.frontdoor.submit_ms", median(&produced.submit_ms));
        report.set("core.frontdoor.epochs_per_submit", epochs as f64 / admitted.max(1) as f64);
        report.set("core.frontdoor.refused", produced.refused as f64);
        report.set("loadgen.late_p99_ms", percentile(&produced.late_ms, 99.0));
        report.set("bench.fresh_samples", lag_ms.len() as f64);
        report.set("bench.ask_samples", beside.len() as f64);
        report.threads.push(("reader", reader_trace));
        report.threads.push(("producer", produced.trace));
        Ok(())
    }
}
