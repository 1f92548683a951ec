//! Engine wrappers: one times every `Engine::run` from outside, the other
//! checks every result against the classical evaluator.

use crate::trace;
use fdb::data::{DataError, Database, Value};
use fdb::lmfao::{classical, to_scan_query, AggQuery, BatchResult, Engine};
use fdb::query::natural_join_all;
use std::cell::Cell;

/// Wraps any engine in a `core.engine.run` span and counts the work that
/// crossed the boundary: calls, aggregates asked for, fact rows offered,
/// groups returned.
pub struct TimedEngine<E>(pub E);

impl<E: Engine> Engine for TimedEngine<E> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        let out = trace::span("core.engine.run", || self.0.run(db, q));
        if trace::enabled() {
            if let Ok(res) = &out {
                let fact_rows =
                    q.relations.iter().filter_map(|r| db.get(r).ok()).map(|r| r.len()).max();
                trace::count("core.engine.aggs", q.batch.len() as f64);
                trace::count("core.engine.rows", fact_rows.unwrap_or(0) as f64);
                trace::count(
                    "core.engine.result_groups",
                    res.values.iter().map(|m| m.len()).sum::<usize>() as f64,
                );
            }
        }
        out
    }
}

/// Most aggregates of one batch the oracle re-evaluates; wider batches
/// (CART nodes ask for ~870) are sampled at a fixed stride.
const ORACLE_AGGS_PER_BATCH: usize = 256;

/// Relative tolerance between an engine and the oracle.
pub const REL_TOL: f64 = 1e-9;

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()) + 1e-12
}

/// Compares `res` aggregate by aggregate with `fdb::lmfao::classical` over
/// the materialised join and returns `(aggregates checked, aggregates that
/// disagree)`. Meant for small inputs: the oracle scans once per aggregate.
pub fn oracle_check(
    db: &Database,
    q: &AggQuery,
    res: &BatchResult,
) -> Result<(u64, u64), DataError> {
    let flat = natural_join_all(db, &q.relation_refs())?;
    let stride = q.batch.len().div_ceil(ORACLE_AGGS_PER_BATCH).max(1);
    let (mut checked, mut bad) = (0, 0);
    for (i, agg) in q.batch.aggs.iter().enumerate().step_by(stride) {
        let want = classical::eval_agg(&flat, &to_scan_query(agg))?;
        let got = res.grouped(i);
        // `BatchResult` drops exact zeros, so only the oracle's non-zero
        // groups must appear, and nothing else may.
        let expected = want.values().filter(|v| **v != 0.0).count();
        let agree = got.len() == expected
            && want.iter().filter(|(_, v)| **v != 0.0).all(|(key, v)| {
                let codes: Box<[i64]> = key.iter().map(|k: &Value| k.as_int()).collect();
                got.get(&codes).is_some_and(|g| close(*g, *v))
            });
        checked += 1;
        bad += u64::from(!agree);
    }
    Ok((checked, bad))
}

/// Runs the inner engine and holds every result to the oracle.
pub struct OracleEngine<'a> {
    inner: &'a dyn Engine,
    checked: Cell<u64>,
    bad: Cell<u64>,
}

impl<'a> OracleEngine<'a> {
    pub fn new(inner: &'a dyn Engine) -> Self {
        Self { inner, checked: Cell::new(0), bad: Cell::new(0) }
    }

    /// `(aggregates checked, aggregates that disagreed)` so far.
    pub fn tally(&self) -> (u64, u64) {
        (self.checked.get(), self.bad.get())
    }
}

impl Engine for OracleEngine<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        let res = self.inner.run(db, q)?;
        let (checked, bad) = oracle_check(db, q, &res)?;
        self.checked.set(self.checked.get() + checked);
        self.bad.set(self.bad.get() + bad);
        Ok(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{retailer_at, Features};
    use fdb::lmfao::{covariance_batch, DispatchEngine, FlatEngine};

    #[test]
    fn oracle_accepts_the_engines_and_rejects_a_wrong_sum() {
        let ds = retailer_at(0.02, 9);
        let f = Features::of(&ds);
        let q = AggQuery::new(&f.rels(), covariance_batch(&f.cont_with_response(), &f.cat()));
        for engine in [&DispatchEngine::new() as &dyn Engine, &FlatEngine] {
            let oracle = OracleEngine::new(engine);
            let mut res = oracle.run(&ds.db, &q).unwrap();
            assert_eq!(oracle.tally(), (203, 0), "{}", engine.name());
            let first = res.values[0].values_mut().next().unwrap();
            *first *= 1.0 + 1e-6;
            assert_eq!(oracle_check(&ds.db, &q, &res).unwrap(), (203, 1));
        }
    }

    #[test]
    fn timed_engine_counts_only_while_tracing() {
        let ds = retailer_at(0.02, 9);
        let f = Features::of(&ds);
        let q = AggQuery::new(&f.rels(), covariance_batch(&f.cont_with_response(), &f.cat()));
        let engine = TimedEngine(DispatchEngine::new());
        engine.run(&ds.db, &q).unwrap();
        assert!(trace::take().spans.is_empty());
        trace::enable(true);
        engine.run(&ds.db, &q).unwrap();
        trace::enable(false);
        let t = trace::take();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.counters["core.engine.aggs"], q.batch.len() as f64);
        assert_eq!(t.counters["core.engine.rows"], ds.db.get("Inventory").unwrap().len() as f64);
        assert!(t.counters["core.engine.result_groups"] >= q.batch.len() as f64);
    }
}
