//! The training workloads: relations in, trained model and predictions
//! out. Four trainers share one measuring loop.
//!
//! * fresh (cold) operation: CSV bytes -> database -> train -> predict the
//!   held-out rows. Re-ingesting mints fresh content ids, so no cache
//!   entry of an earlier operation can be served.
//! * ask (warm) operation: train again on the database (or matrix) the
//!   last cold operation left behind.

use super::{ms_since, peak_rss_mb, Cfg, Report, Workload, ORACLE_SCALE};
use crate::engine::{close, OracleEngine, TimedEngine};
use crate::gen::{ingest, retailer_at, train_input, zipf_at, Features, HeldOut, TrainInput};
use crate::stats::{median, percentile};
use crate::trace::{self, LayerTime};
use fdb::data::{DataError, Database, Value};
use fdb::datasets::Dataset;
use fdb::lmfao::{
    classical, covariance_batch, sufficient_stats, to_scan_query, AggQuery, Aggregate,
    DispatchEngine, Engine, EngineChoice, EngineConfig, FactorizedEngine, FlatEngine, LmfaoEngine,
    SufficientStats,
};
use fdb::ml::linreg::RidgeConfig;
use fdb::ml::sgd::{shuffled, train_linear_sgd, SgdConfig};
use fdb::ml::tree::{Node, TreeConfig};
use fdb::ml::{DataMatrix, DecisionTree, LinearRegression};
use fdb::query::natural_join_all;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// What one training operation produced, reduced to what the checks need.
pub struct Answer {
    /// `SUM(1)` as the trainer saw it: rows of the training join.
    rows: f64,
    /// The model as numbers; equal inputs must give equal fingerprints.
    fingerprint: Vec<f64>,
    /// Predictions for the held-out rows.
    preds: Vec<f64>,
    /// Per-layer values the operation itself knows (payload sizes, reuse).
    facts: Vec<(&'static str, f64)>,
}

/// One way of getting from relations to predictions.
pub trait Trainer {
    /// What a cold operation leaves behind for warm ones.
    type Loaded;
    /// Warm operations repeat the cold answer exactly (same data, same
    /// hyper-parameters); otherwise they vary a hyper-parameter per rep.
    const WARM_REPEATS_ANSWER: bool;
    /// The model is expected to beat the held-out mean.
    const HAS_SIGNAL: bool;

    fn input(&self) -> &TrainInput;
    fn cold(&self) -> Result<(Self::Loaded, Answer), DataError>;
    fn warm(&self, loaded: &Self::Loaded, rep: usize) -> Result<Answer, DataError>;

    /// Extra per-layer measurements of a traced run. `cold_run_s` is the
    /// cold `core.engine.run_s` just measured.
    fn extras(&self, _cold_run_s: f64, _report: &mut Report) -> Result<(), DataError> {
        Ok(())
    }
}

/// The fresh tail is p75: a run sees 5 to 30 cold operations, and p75 is
/// the highest percentile that still has a few samples beyond it.
const FRESH_TAIL_PCT: f64 = 75.0;

/// Cold operations that run before sampling starts: the first touches code
/// and heap for the first time, the second the other of the two heap regions
/// operations alternate between.
const WARM_UP_REPS: usize = 2;

/// Span name -> per-layer metric, and whether the metric is the span's
/// total or its self time.
const LAYER_OF_SPAN: &[(&str, &str, bool)] = &[
    ("data.csv.parse", "data.csv.parse_s", false),
    ("core.engine.run", "core.engine.run_s", false),
    ("core.stats", "core.stats.extract_s", true),
    ("ml.linreg.solve", "ml.linreg.solve_s", false),
    ("ml.tree.fit", "ml.tree.fit_s", false),
    ("ml.tree.fit", "ml.tree.self_s", true),
    ("ml.predict", "ml.predict_s", false),
    ("query.join", "query.join_s", false),
    ("ml.matrix.build", "ml.matrix.build_s", false),
    ("ml.sgd.shuffle", "ml.sgd.shuffle_s", false),
    ("ml.sgd.train", "ml.sgd.train_s", false),
];

fn same_answer(a: &Answer, b: &Answer) -> bool {
    a.fingerprint.len() == b.fingerprint.len()
        && a.fingerprint.iter().zip(&b.fingerprint).all(|(x, y)| close(*x, *y))
}

/// Runs cold operations for `cold_s` seconds and warm ones for `warm_s`,
/// checks every answer, and fills in the report.
fn measure_training<T: Trainer>(t: &T, cfg: &Cfg, report: &mut Report) -> Result<(), DataError> {
    let input = t.input();
    let held = &input.held_out;
    let (cold_s, warm_s) = if cfg.traced {
        (0.5 * cfg.seconds, 0.1 * cfg.seconds)
    } else {
        (0.85 * cfg.seconds, 0.15 * cfg.seconds)
    };
    let check = |report: &mut Report, a: &Answer, reference: Option<&Answer>, what: &str| {
        report.check(a.rows == input.train_rows as f64, || {
            format!(
                "{what}: SUM(1) = {} but the training join has {} rows",
                a.rows, input.train_rows
            )
        });
        report
            .check(a.preds.len() == held.y.len() && a.preds.iter().all(|p| p.is_finite()), || {
                format!("{what}: predictions are missing or not finite")
            });
        if let Some(r) = reference {
            report.check(same_answer(a, r), || {
                format!("{what}: the model differs from the first rep's")
            });
        }
        if T::HAS_SIGNAL {
            let (rmse, base) = (held.rmse(&a.preds), held.rmse_of_mean());
            report.check(rmse < base, || {
                format!("{what}: held-out RMSE {rmse} does not beat the mean's {base}")
            });
        }
    };

    // Cold phase. The first reps warm the process up and are not samples;
    // the first answer is the reference the others must repeat. A traced run
    // records half of the reps, so the same phase yields the tracing overhead.
    let mut reference: Option<Answer> = None;
    let mut facts = Vec::new();
    let mut loaded: Option<T::Loaded> = None;
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let phase = Instant::now();
    let mut last = 0.0;
    for rep in 0.. {
        let enough = if cfg.traced {
            plain_ms.len() >= 2 && traced_ms.len() >= 2
        } else {
            plain_ms.len() >= 3
        };
        if enough && phase.elapsed().as_secs_f64() + last > cold_s {
            break;
        }
        // After warm-up, recorded reps come in pairs (1 1 0 0 1 1 ...):
        // operations alternate between two heap regions (see below), and
        // pairs give each side of the overhead comparison both of them.
        let record = cfg.traced && rep >= WARM_UP_REPS && (rep - WARM_UP_REPS) % 4 < 2;
        trace::enable(record);
        let start = Instant::now();
        let out = trace::op("op.cold", || t.cold());
        let took = ms_since(start);
        trace::enable(false);
        last = took / 1e3;
        // What the previous operation loaded is freed only now, after this
        // one ran beside it: freeing it first hands the heap back to the
        // kernel, and every operation then pays (unevenly, as the allocator
        // adapts) for faulting it in again. Two live copies settle into a
        // steady alternation after WARM_UP_REPS; peak_rss_mb counts both.
        loaded = None;
        match out {
            Ok((l, answer)) => {
                check(report, &answer, reference.as_ref(), "cold op");
                loaded = Some(l);
                if rep >= WARM_UP_REPS {
                    if record { &mut traced_ms } else { &mut plain_ms }.push(took);
                }
                facts.clone_from(&answer.facts);
                reference.get_or_insert(answer);
            }
            Err(e) => report.check(false, || format!("cold op: {e}")),
        }
    }
    let cold_trace = trace::take();
    let (Some(reference), Some(loaded)) = (reference, loaded) else {
        return Err(DataError::Invalid("no cold operation succeeded".into()));
    };

    // Warm phase, on what the last cold operation loaded.
    let mut warm_ms = Vec::new();
    let phase = Instant::now();
    for rep in 0.. {
        if warm_ms.len() >= 5 && phase.elapsed().as_secs_f64() > warm_s {
            break;
        }
        trace::enable(cfg.traced && rep > 0);
        let start = Instant::now();
        let out = trace::op("op.warm", || t.warm(&loaded, rep));
        let took = ms_since(start);
        trace::enable(false);
        match out {
            Ok(answer) => {
                let same = T::WARM_REPEATS_ANSWER.then_some(&reference);
                check(report, &answer, same, "warm op");
                if rep > 0 {
                    warm_ms.push(took);
                }
            }
            Err(e) => report.check(false, || format!("warm op: {e}")),
        }
    }
    let warm_trace = trace::take();
    let peak_rss = peak_rss_mb();

    report.note(format!(
        "{} training rows, {} held out, {} CSV bytes; {} cold and {} warm samples",
        input.train_rows,
        held.y.len(),
        input.csv_bytes(),
        plain_ms.len() + traced_ms.len(),
        warm_ms.len()
    ));
    let listed =
        |ms: &[f64]| ms.iter().take(40).map(|m| format!("{m:.1}")).collect::<Vec<_>>().join(" ");
    report.note(format!("cold samples, ms, in order: {}", listed(&plain_ms)));
    if !cfg.traced {
        report.set("fresh_p50_ms", median(&plain_ms));
        report.set("fresh_tail_ms", percentile(&plain_ms, FRESH_TAIL_PCT));
        report.set("ask_p50_ms", median(&warm_ms));
        // Rows per second at the median cold operation: the mean of a
        // dozen samples moves with a single slow one.
        report.set("work_per_s", input.train_rows as f64 / (median(&plain_ms) / 1e3));
        return Ok(());
    }

    let cold = trace::layers(&cold_trace.spans, "op.cold");
    let warm = trace::layers(&warm_trace.spans, "op.warm");
    let get = |m: &BTreeMap<&str, LayerTime>, name: &str| m.get(name).copied().unwrap_or_default();
    for (span, metric, own) in LAYER_OF_SPAN {
        let l = get(&cold, span);
        report.set(metric, if *own { l.self_s } else { l.total_s });
    }
    let cold_ops = cold_trace.spans.iter().filter(|s| s.name == "op.cold").count().max(1) as f64;
    let run = get(&cold, "core.engine.run");
    let counter = |name: &str| cold_trace.counters.get(name).copied().unwrap_or(0.0) / cold_ops;
    report.set("data.csv.bytes", input.csv_bytes() as f64);
    report.set("core.engine.run_calls", run.calls);
    report.set("core.engine.aggs", counter("core.engine.aggs"));
    report.set("core.engine.result_groups", counter("core.engine.result_groups"));
    if run.total_s > 0.0 {
        report.set("core.engine.rows_per_s", counter("core.engine.rows") / run.total_s);
        let warm_run = get(&warm, "core.engine.run").total_s;
        report.set("core.engine.warm_run_s", warm_run);
        report.set("core.engine.warm_over_cold", warm_run / run.total_s);
    }
    for (name, value) in facts {
        report.set(name, value);
    }
    let root = get(&cold, "op.cold");
    report.set("trace.unattributed_frac", root.self_s / root.total_s);
    report.set("trace.overhead_frac", median(&traced_ms) / median(&plain_ms) - 1.0);
    report.set("proc.peak_rss_mb", peak_rss);
    report.set("bench.fresh_samples", (plain_ms.len() + traced_ms.len()) as f64);
    report.set("bench.ask_samples", warm_ms.len() as f64);
    t.extras(run.total_s, report)?;
    report.threads.push(("cold", cold_trace));
    report.threads.push(("warm", warm_trace));
    Ok(())
}

/// Predicts the held-out rows with a linear model, laying each row out in
/// the model's own column order (continuous features, then one `cat=code`
/// indicator per category the training data held).
fn predict_linear(
    model: &LinearRegression,
    f: &Features,
    held: &HeldOut,
) -> Result<Vec<f64>, DataError> {
    let schema = held.flat.schema();
    let cont: Vec<usize> =
        f.continuous.iter().map(|a| schema.require(a)).collect::<Result<_, _>>()?;
    let cat: Vec<&[i64]> = f
        .categorical
        .iter()
        .map(|a| held.flat.try_int_col(schema.require(a)?))
        .collect::<Result<_, _>>()?;
    let mut column: HashMap<(usize, i64), usize> = HashMap::new();
    for (i, label) in model.labels.iter().enumerate().skip(cont.len()) {
        let parsed = label.rsplit_once('=').and_then(|(name, code)| {
            Some((f.categorical.iter().position(|c| c == name)?, code.parse().ok()?))
        });
        let key = parsed
            .ok_or_else(|| DataError::Invalid(format!("unexpected model label `{label}`")))?;
        column.insert(key, i);
    }
    let mut x = vec![0.0; model.weights.len()];
    let mut preds = Vec::with_capacity(held.y.len());
    for r in 0..held.flat.len() {
        x.fill(0.0);
        for (i, c) in cont.iter().enumerate() {
            x[i] = held.flat.value_f64(r, *c);
        }
        for (k, codes) in cat.iter().enumerate() {
            // A category the training data never held has no column.
            if let Some(i) = column.get(&(k, codes[r])) {
                x[*i] = 1.0;
            }
        }
        preds.push(model.predict(&x));
    }
    Ok(preds)
}

fn linear_fingerprint(model: &LinearRegression) -> Vec<f64> {
    model.weights.iter().copied().chain([model.intercept]).collect()
}

/// Bytes of the sufficient statistics as a payload: every number and key
/// they hold, eight bytes each.
fn stats_bytes(s: &SufficientStats) -> f64 {
    let maps: usize = s.cat_counts.iter().map(|m| 2 * m.len()).sum::<usize>()
        + s.cat_cont_sums.iter().flatten().map(|m| 2 * m.len()).sum::<usize>()
        + s.cat_pair_counts.values().map(|m| 3 * m.len()).sum::<usize>();
    (8 * (1 + s.sum.len() + s.q.len() + maps)) as f64
}

/// The covariance query of a feature set.
pub(crate) fn covariance_query(f: &Features) -> AggQuery {
    AggQuery::new(&f.rels(), covariance_batch(&f.cont_with_response(), &f.cat()))
}

/// Holds the covariance batch over the small instance `small` to the
/// oracle, through the engine the workload uses.
pub(crate) fn oracle_covariance(small: &Dataset) -> Result<(u64, u64), DataError> {
    let f = Features::of(small);
    let dispatch = DispatchEngine::new();
    let oracle = OracleEngine::new(&dispatch);
    sufficient_stats(&small.db, &f.rels(), &f.cont_with_response(), &f.cat(), &oracle)?;
    Ok(oracle.tally())
}

// ---------------------------------------------------------------------------
// Ridge over sufficient statistics
// ---------------------------------------------------------------------------

/// The backend panel and the one-thread run use 1/8 of the rows: the
/// factorized backend takes seconds on the full input.
const PANEL_SHARE: f64 = 0.125;

/// Covariance batch -> closed-form ridge, on any dataset.
pub struct Ridge {
    input: TrainInput,
    /// The same generator at [`PANEL_SHARE`] of the rows (traced runs).
    panel: Option<TrainInput>,
    oracle: (u64, u64),
}

impl Ridge {
    fn new(cfg: &Cfg, dataset: impl Fn(f64) -> Dataset) -> Result<Self, DataError> {
        Ok(Self {
            input: train_input(&dataset(cfg.scale))?,
            panel: cfg
                .traced
                .then(|| train_input(&dataset(cfg.scale * PANEL_SHARE)))
                .transpose()?,
            oracle: oracle_covariance(&dataset(ORACLE_SCALE))?,
        })
    }

    fn train(&self, db: &Database, ridge: RidgeConfig) -> Result<Answer, DataError> {
        let f = &self.input.features;
        let engine = TimedEngine(DispatchEngine::new());
        let stats = trace::span("core.stats", || {
            sufficient_stats(db, &f.rels(), &f.cont_with_response(), &f.cat(), &engine)
        })?;
        let model =
            trace::span("ml.linreg.solve", || LinearRegression::fit_closed(&stats, &ridge))?;
        let preds = trace::span("ml.predict", || predict_linear(&model, f, &self.input.held_out))?;
        Ok(Answer {
            rows: stats.count,
            fingerprint: linear_fingerprint(&model),
            preds,
            facts: vec![("core.stats.bytes", stats_bytes(&stats))],
        })
    }
}

impl Trainer for Ridge {
    type Loaded = Database;
    const WARM_REPEATS_ANSWER: bool = false;
    const HAS_SIGNAL: bool = true;

    fn input(&self) -> &TrainInput {
        &self.input
    }

    fn cold(&self) -> Result<(Database, Answer), DataError> {
        let db = trace::span("data.csv.parse", || ingest(&self.input.tables))?;
        let answer = self.train(&db, RidgeConfig::default())?;
        Ok((db, answer))
    }

    /// A retrain with a new regularisation strength on the same database.
    fn warm(&self, db: &Database, rep: usize) -> Result<Answer, DataError> {
        let l2 = RidgeConfig::default().l2 * (1.0 + rep as f64 / 64.0);
        self.train(db, RidgeConfig { l2, ..RidgeConfig::default() })
    }

    fn extras(&self, cold_run_s: f64, report: &mut Report) -> Result<(), DataError> {
        let panel = self.panel.as_ref().expect("traced set-up builds the panel");
        let q = covariance_query(&panel.features);
        // Median of up to three cold runs, fewer once a backend has used
        // its 1.5 s: every run re-ingests, so none is served from a cache.
        let cold_run = |tables, engine: &dyn Engine| -> Result<f64, DataError> {
            let mut secs = Vec::new();
            while secs.len() < 3 && secs.iter().sum::<f64>() < 1.5 {
                let db = ingest(tables)?;
                let t = Instant::now();
                std::hint::black_box(engine.run(&db, &q)?);
                secs.push(t.elapsed().as_secs_f64());
            }
            Ok(median(&secs))
        };
        let backends: [(&'static str, EngineChoice, &dyn Engine); 3] = [
            ("core.backend.flat.run_s", EngineChoice::Flat, &FlatEngine),
            ("core.backend.factorized.run_s", EngineChoice::Factorized, &FactorizedEngine::new()),
            ("core.backend.lmfao.run_s", EngineChoice::Lmfao, &LmfaoEngine::new()),
        ];
        let choice = DispatchEngine::new().choose(&ingest(&panel.tables)?, &q)?;
        let (mut best, mut chosen) = (f64::INFINITY, f64::NAN);
        for (metric, which, engine) in backends {
            let s = cold_run(&panel.tables, engine)?;
            report.set(metric, s);
            best = best.min(s);
            if which == choice {
                chosen = s;
            }
        }
        // What dispatch's choice costs over the best backend of the panel:
        // 1 when it picked the best, and never below.
        report.set("core.dispatch.regret", chosen / best);
        report.note(format!(
            "backend panel on {} rows: dispatch chose {choice:?} ({chosen:.4} s, best backend {best:.4} s)",
            panel.train_rows
        ));

        // One thread against the default, on the full input.
        let one = DispatchEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        let t1 = cold_run(&self.input.tables, &one)?;
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        report.set("core.parallel.t1_run_s", t1);
        // With one core there is no parallel speed-up to state: 0 = refused.
        report.set("core.parallel.speedup", if cores >= 2 { t1 / cold_run_s } else { 0.0 });
        report.note(format!("{cores} cores available"));
        Ok(())
    }
}

pub struct RidgeWide(Ridge);
pub struct RidgeNarrowSkew(Ridge);

/// Retailer scale of the wide ridge and the materialise workloads.
const WIDE_SCALE: f64 = 2.0;
/// Fact rows and dimension keys of the skewed snowflake.
const SKEW_FACT_ROWS: f64 = 1e6;
const SKEW_DIM_ROWS: f64 = 4096.0;

fn skewed(scale: f64, seed: u64) -> Dataset {
    zipf_at(
        (SKEW_FACT_ROWS * scale) as usize,
        (SKEW_DIM_ROWS * scale).ceil().max(16.0) as usize,
        seed,
    )
}

macro_rules! training_workload {
    ($name:ident, $inner:ty, $setup:expr) => {
        impl Workload for $name {
            fn setup(cfg: &Cfg) -> Result<Self, DataError> {
                let build: fn(&Cfg) -> Result<$inner, DataError> = $setup;
                build(cfg).map($name)
            }

            fn oracle(&self) -> (u64, u64) {
                self.0.oracle
            }

            fn measure(self, cfg: &Cfg, report: &mut Report) -> Result<(), DataError> {
                measure_training(&self.0, cfg, report)
            }
        }
    };
}

training_workload!(RidgeWide, Ridge, |cfg| {
    Ridge::new(cfg, |scale| retailer_at(WIDE_SCALE * scale, cfg.seed))
});
training_workload!(RidgeNarrowSkew, Ridge, |cfg| Ridge::new(cfg, |scale| skewed(scale, cfg.seed)));

// ---------------------------------------------------------------------------
// CART
// ---------------------------------------------------------------------------

const CART_SCALE: f64 = 0.25;

/// A depth-4 regression tree, one aggregate batch per node.
pub struct Cart {
    input: TrainInput,
    oracle: (u64, u64),
}

pub struct CartNodes(Cart);

fn fit_tree(f: &Features, db: &Database, engine: &dyn Engine) -> Result<DecisionTree, DataError> {
    DecisionTree::fit_regression(
        db,
        &f.rels(),
        &f.cont(),
        &f.cat(),
        &f.response,
        TreeConfig::default(),
        engine,
    )
}

/// Leaf `(count, prediction)` pairs, left to right.
fn leaves(node: &Node, out: &mut Vec<(f64, f64)>) {
    match node {
        Node::Leaf { prediction, count } => out.push((*count, *prediction)),
        Node::Split { left, right, .. } => {
            leaves(left, out);
            leaves(right, out);
        }
    }
}

impl Cart {
    fn train(&self, db: &Database) -> Result<Answer, DataError> {
        let (f, held) = (&self.input.features, &self.input.held_out);
        let engine = TimedEngine(DispatchEngine::new());
        let tree = trace::span("ml.tree.fit", || fit_tree(f, db, &engine))?;
        let preds = trace::span("ml.predict", || {
            (0..held.flat.len())
                .map(|r| tree.predict_row(&held.flat, r))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let mut leaf = Vec::new();
        leaves(&tree.root, &mut leaf);
        Ok(Answer {
            // Leaves partition the training join.
            rows: leaf.iter().map(|(count, _)| count).sum(),
            fingerprint: leaf.iter().map(|(_, p)| *p).chain([tree.batches_run as f64]).collect(),
            preds,
            facts: vec![("ml.tree.view_reuse_ratio", tree.view_reuse.ratio())],
        })
    }
}

impl Trainer for Cart {
    type Loaded = Database;
    const WARM_REPEATS_ANSWER: bool = true;
    const HAS_SIGNAL: bool = true;

    fn input(&self) -> &TrainInput {
        &self.input
    }

    fn cold(&self) -> Result<(Database, Answer), DataError> {
        let db = trace::span("data.csv.parse", || ingest(&self.input.tables))?;
        let answer = self.train(&db)?;
        Ok((db, answer))
    }

    /// A refit on the same database: every view is already cached.
    fn warm(&self, db: &Database, _rep: usize) -> Result<Answer, DataError> {
        self.train(db)
    }
}

training_workload!(CartNodes, Cart, |cfg| {
    let small = retailer_at(CART_SCALE * ORACLE_SCALE, cfg.seed);
    let dispatch = DispatchEngine::new();
    let oracle = OracleEngine::new(&dispatch);
    fit_tree(&Features::of(&small), &small.db, &oracle)?;
    Ok(Cart {
        input: train_input(&retailer_at(CART_SCALE * cfg.scale, cfg.seed))?,
        oracle: oracle.tally(),
    })
});

// ---------------------------------------------------------------------------
// Materialise, then learn
// ---------------------------------------------------------------------------

/// The structure-agnostic arm: join, one-hot matrix, shuffle, one epoch of
/// mini-batch SGD.
pub struct Materialize {
    input: TrainInput,
    oracle: (u64, u64),
}

pub struct MaterializeWide(Materialize);

impl Materialize {
    fn learn(
        &self,
        matrix: &DataMatrix,
        shuffle_seed: u64,
        join_bytes: f64,
    ) -> Result<Answer, DataError> {
        let order = trace::span("ml.sgd.shuffle", || shuffled(matrix, shuffle_seed));
        let model = trace::span("ml.sgd.train", || train_linear_sgd(&order, &SgdConfig::default()));
        let preds = trace::span("ml.predict", || {
            predict_linear(&model, &self.input.features, &self.input.held_out)
        })?;
        Ok(Answer {
            rows: matrix.rows() as f64,
            fingerprint: linear_fingerprint(&model),
            preds,
            facts: vec![("query.join_bytes", join_bytes)],
        })
    }
}

impl Trainer for Materialize {
    /// The data matrix and the byte size of the join it came from.
    type Loaded = (DataMatrix, f64);
    const WARM_REPEATS_ANSWER: bool = false;
    /// One epoch of SGD need not beat the mean; only finiteness is held.
    const HAS_SIGNAL: bool = false;

    fn input(&self) -> &TrainInput {
        &self.input
    }

    fn cold(&self) -> Result<(Self::Loaded, Answer), DataError> {
        let f = &self.input.features;
        let db = trace::span("data.csv.parse", || ingest(&self.input.tables))?;
        let join = trace::span("query.join", || natural_join_all(&db, &f.rels()))?;
        let matrix = trace::span("ml.matrix.build", || {
            DataMatrix::from_relation(&join, &f.cont(), &f.cat(), &f.response)
        })?;
        let join_bytes = join.byte_size() as f64;
        let answer = self.learn(&matrix, 0, join_bytes)?;
        Ok(((matrix, join_bytes), answer))
    }

    /// Another epoch over the matrix already built, in a new order.
    fn warm(&self, (matrix, join_bytes): &Self::Loaded, rep: usize) -> Result<Answer, DataError> {
        self.learn(matrix, 1 + rep as u64, *join_bytes)
    }
}

/// Holds the one-hot matrix of the small instance to the oracle, column by
/// column: every column sum is an aggregate the classical evaluator can
/// compute over the same join (`SUM(x)`, or `SUM(1) GROUP BY cat` at one
/// code).
fn oracle_matrix(small: &Dataset) -> Result<(u64, u64), DataError> {
    let f = Features::of(small);
    let flat = natural_join_all(&small.db, &f.rels())?;
    let matrix = DataMatrix::from_relation(&flat, &f.cont(), &f.cat(), &f.response)?;
    let eval = |agg: Aggregate| classical::eval_agg(&flat, &to_scan_query(&agg));
    let scalar = |agg: Aggregate| -> Result<f64, DataError> { Ok(eval(agg)?.values().sum()) };
    let mut wants = Vec::with_capacity(matrix.labels.len() + 2);
    for label in &matrix.labels {
        wants.push(match label.rsplit_once('=') {
            None => scalar(Aggregate::sum(label))?,
            Some((cat, code)) => {
                let code =
                    code.parse().map_err(|_| DataError::Invalid(format!("label `{label}`")))?;
                let key: Box<[Value]> = Box::new([Value::Int(code)]);
                eval(Aggregate::count().by(&[cat]))?.get(&key).copied().unwrap_or(0.0)
            }
        });
    }
    let mut bad = 0;
    for (c, want) in wants.iter().enumerate() {
        let got: f64 = (0..matrix.rows()).map(|r| matrix.row(r)[c]).sum();
        bad += u64::from(!close(got, *want));
    }
    bad += u64::from(!close(matrix.y.iter().sum(), scalar(Aggregate::sum(&f.response))?));
    bad += u64::from(matrix.rows() as f64 != scalar(Aggregate::count())?);
    Ok((wants.len() as u64 + 2, bad))
}

training_workload!(MaterializeWide, Materialize, |cfg| {
    Ok(Materialize {
        input: train_input(&retailer_at(WIDE_SCALE * cfg.scale, cfg.seed))?,
        oracle: oracle_matrix(&retailer_at(WIDE_SCALE * ORACLE_SCALE, cfg.seed))?,
    })
});
