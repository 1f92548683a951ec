//! `refresh_stream`: delta in, fresh model out.
//!
//! An [`OnlineRidge`] over a boxed `DispatchEngine` takes a seeded stream
//! of deltas, one at a time, closed loop. The fresh operation is
//! `apply_delta` followed by `model()`; the ask operation is the `model()`
//! part alone, the refit from statistics already maintained. No fact scan
//! happens anywhere in the measured loop.

use super::{ms_since, peak_rss_mb, Cfg, Report, Workload, ORACLE_SCALE};
use crate::engine::{close, OracleEngine};
use crate::gen::{
    delta_stream, retailer_at, DeltaKind, DeltaOp, Features, DELTA_KINDS, REFRESH_MIX,
};
use crate::stats::{mean, median, percentile};
use crate::trace;
use fdb::data::DataError;
use fdb::datasets::Dataset;
use fdb::lmfao::{sufficient_stats, DispatchEngine, Engine, SufficientStats};
use fdb::ml::linreg::RidgeConfig;
use fdb::ml::{LinearRegression, OnlineRidge};
use std::time::Instant;

/// Deltas generated per second of run; the loop stops on time, not on
/// count, and an operation takes well over a millisecond.
const OPS_PER_SECOND: f64 = 1500.0;
/// The maintained statistics are held to a cold recompute this often.
const CHECK_EVERY: usize = 1000;
/// The slowest class of operation, the dimension updates, is 5 % of the
/// stream, so p97.5 is that class's median, with a hundred samples beyond
/// it. Over six runs it moved 4 %; p95 (the boundary between classes) and
/// p99 (the class's thin upper end) moved 17 % and 15 %.
const FRESH_TAIL_PCT: f64 = 97.5;

pub struct RefreshStream {
    ds: Dataset,
    features: Features,
    stream: Vec<DeltaOp>,
    online: OnlineRidge,
    prepare_s: f64,
    oracle: (u64, u64),
}

fn online_ridge(ds: &Dataset, f: &Features) -> Result<OnlineRidge, DataError> {
    OnlineRidge::new(
        &ds.db,
        &f.rels(),
        &f.cont_with_response(),
        &f.cat(),
        Box::new(DispatchEngine::new()),
        RidgeConfig::default(),
    )
}

/// Span and per-layer metric of one kind of delta.
fn names(kind: DeltaKind) -> (&'static str, &'static str) {
    match kind {
        DeltaKind::Fact1 => ("ml.online.apply.fact1", "ml.online.apply_s.fact1"),
        DeltaKind::Fact64 => ("ml.online.apply.fact64", "ml.online.apply_s.fact64"),
        DeltaKind::Delete => ("ml.online.apply.delete", "ml.online.apply_s.delete"),
        DeltaKind::Dim => ("ml.online.apply.dim", "ml.online.apply_s.dim"),
    }
}

/// Maintained statistics against recomputed ones, number by number.
fn same_stats(a: &SufficientStats, b: &SufficientStats) -> bool {
    let nums = |s: &SufficientStats| -> Vec<f64> {
        [s.count].into_iter().chain(s.sum.iter().copied()).chain(s.q.iter().copied()).collect()
    };
    let maps_agree = a.cat_counts.iter().zip(&b.cat_counts).all(|(x, y)| {
        x.len() == y.len() && x.iter().all(|(k, v)| y.get(k).is_some_and(|w| close(*v, *w)))
    });
    maps_agree && nums(a).iter().zip(nums(b)).all(|(x, y)| close(*x, y))
}

/// Recomputes statistics and model from `online`'s own database with a
/// cold engine run and compares. Returns the seconds the recompute took.
fn check_against_recompute(
    online: &OnlineRidge,
    f: &Features,
    engine: &dyn Engine,
    report: &mut Report,
) -> Result<f64, DataError> {
    let t = Instant::now();
    let cold =
        sufficient_stats(online.database(), &f.rels(), &f.cont_with_response(), &f.cat(), engine)?;
    let cold_model = LinearRegression::fit_closed(&cold, &RidgeConfig::default())?;
    let took = t.elapsed().as_secs_f64();
    report.check(same_stats(&online.stats()?, &cold), || {
        "maintained statistics differ from a cold recompute".into()
    });
    let kept = online.model()?;
    report.check(
        kept.weights
            .iter()
            .zip(&cold_model.weights)
            .all(|(a, b)| (a - b).abs() <= 1e-6 * (1.0 + b.abs())),
        || "the maintained model differs from a cold retrain".into(),
    );
    Ok(took)
}

impl Workload for RefreshStream {
    fn setup(cfg: &Cfg) -> Result<Self, DataError> {
        // Small instance: a short stream through maintenance, then the cold
        // engine over the maintained database held to the oracle, and the
        // maintained statistics held to that.
        let small = retailer_at(ORACLE_SCALE, cfg.seed);
        let sf = Features::of(&small);
        let mut online = online_ridge(&small, &sf)?;
        for op in delta_stream(&small, cfg.seed, 60, REFRESH_MIX)? {
            online.apply_delta(&op.delta)?;
        }
        let dispatch = DispatchEngine::new();
        let oracle_engine = OracleEngine::new(&dispatch);
        let mut scratch = Report::default();
        check_against_recompute(&online, &sf, &oracle_engine, &mut scratch)?;
        let (checked, bad) = oracle_engine.tally();
        let oracle = (checked + scratch.attempted, bad + scratch.failed);

        let ds = retailer_at(cfg.scale, cfg.seed);
        let features = Features::of(&ds);
        let n = (cfg.seconds * OPS_PER_SECOND).ceil() as usize + CHECK_EVERY;
        let stream = delta_stream(&ds, cfg.seed, n, REFRESH_MIX)?;
        let t = Instant::now();
        let online = online_ridge(&ds, &features)?;
        let prepare_s = t.elapsed().as_secs_f64();
        Ok(Self { ds, features, stream, online, prepare_s, oracle })
    }

    fn oracle(&self) -> (u64, u64) {
        self.oracle
    }

    fn measure(mut self, cfg: &Cfg, report: &mut Report) -> Result<(), DataError> {
        let f = &self.features;
        let cold_engine = DispatchEngine::new();
        let (mut fresh_ms, mut ask_ms, mut recompute_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut rows = 0usize;
        let budget = if cfg.traced { 0.7 * cfg.seconds } else { cfg.seconds };
        let run = Instant::now();
        trace::enable(cfg.traced);
        for (i, op) in self.stream.iter().enumerate() {
            if run.elapsed().as_secs_f64() > budget {
                break;
            }
            let online = &mut self.online;
            let start = Instant::now();
            let (applied, asked) = trace::op("op.refresh", || {
                let applied = trace::span(names(op.kind).0, || online.apply_delta(&op.delta));
                let ask = Instant::now();
                let model = trace::span("ml.online.model", || online.model());
                (applied.and(model), ms_since(ask))
            });
            let took = ms_since(start);
            match applied {
                // The first operation warms the process up.
                Ok(model) if i > 0 => {
                    std::hint::black_box(model);
                    fresh_ms.push(took);
                    ask_ms.push(asked);
                    rows += op.delta.len();
                    report.attempted += 1;
                }
                Ok(_) => {}
                Err(e) => report.check(false, || format!("delta {i} ({:?}): {e}", op.kind)),
            }
            if (i + 1) % CHECK_EVERY == 0 {
                trace::enable(false);
                recompute_s.push(check_against_recompute(&self.online, f, &cold_engine, report)?);
                trace::enable(cfg.traced);
            }
        }
        trace::enable(false);
        recompute_s.push(check_against_recompute(&self.online, f, &cold_engine, report)?);
        let main = trace::take();

        let fresh_s = fresh_ms.iter().sum::<f64>() / 1e3;
        report.note(format!(
            "{} fact rows; {} deltas carrying {} rows in {:.2} s of operations; {} recompute checks",
            self.ds.db.get("Inventory")?.len(),
            fresh_ms.len(),
            rows,
            fresh_s,
            recompute_s.len()
        ));
        if !cfg.traced {
            report.set("fresh_p50_ms", median(&fresh_ms));
            report.set("fresh_tail_ms", percentile(&fresh_ms, FRESH_TAIL_PCT));
            report.set("ask_p50_ms", median(&ask_ms));
            report.set("work_per_s", rows as f64 / fresh_s);
            return Ok(());
        }

        let layers = trace::layers(&main.spans, "op.refresh");
        for kind in DELTA_KINDS {
            let (span, metric) = names(kind);
            // Mean per delta of that kind, not per operation of any kind.
            let per_call = layers.get(span).map_or(0.0, |l| l.total_s / l.calls);
            report.set(metric, per_call);
        }
        let model = layers.get("ml.online.model").copied().unwrap_or_default();
        report.set("ml.online.model_s", model.total_s);
        report.set("ml.online.prepare_s", self.prepare_s);
        let root = layers.get("op.refresh").copied().unwrap_or_default();
        report.set("trace.unattributed_frac", root.self_s / root.total_s);
        let recompute = median(&recompute_s);
        report.set("core.maintain.recompute_s", recompute);
        report.set("core.maintain.delta_vs_recompute", mean(&fresh_ms) / 1e3 / recompute);
        report.set("proc.peak_rss_mb", peak_rss_mb());
        report.set("bench.fresh_samples", fresh_ms.len() as f64);
        report.set("bench.ask_samples", ask_ms.len() as f64);

        // The catalog's share: the head of the same stream on a bare
        // database, no maintained state beside it.
        let mut bare = self.ds.db.clone();
        let head = &self.stream[..self.stream.len().min(500)];
        let t = Instant::now();
        for op in head {
            bare.apply_delta(&op.delta)?;
        }
        report.set("data.delta.apply_s", t.elapsed().as_secs_f64() / head.len().max(1) as f64);
        report.threads.push(("main", main));
        Ok(())
    }
}
