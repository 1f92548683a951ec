//! Continuous learning over dynamic relational data: a ridge model kept
//! fresh under [`Delta`] streams ("Machine Learning over Static and
//! Dynamic Relational Data", Kara et al.; paper §1.5 "keeping models
//! fresh").
//!
//! [`OnlineRidge`] pairs a [`MaintainableEngine`] with the covariance
//! aggregate batch of its feature set: `new` pays the one-shot
//! `prepare` cost and reads the [`SufficientStats`] out of the first
//! answer; every [`OnlineRidge::apply_delta`] folds an update batch into
//! the engine's maintained state (cheap delta propagation — for the
//! LMFAO backend, only the owner→root path of the view tree; for F-IVM,
//! pure ring maintenance) and patches the statistics at exactly the
//! answer entries the delta rewrote ([`MaintState::changed`]), so a
//! 1-row insert touches a few hundred numbers, not every map. When the
//! state replaced its answer wholesale instead — a rebuild, a recompute
//! state, F-IVM, or the rollback after a failed delta — the statistics
//! are re-read from the whole answer. [`OnlineRidge::model`] refits from
//! them alone — a `d×d` Cholesky solve, no data access — so training
//! cost after an update is independent of both the database size and the
//! delta history.

use crate::linreg::{LinearRegression, RidgeConfig};
use fdb_core::{
    covariance_batch, patch_stats, stats_from_result, AggQuery, BatchResult, MaintState,
    MaintainableEngine, SufficientStats,
};
use fdb_data::{DataError, Database, Delta};
use std::sync::Arc;

/// A ridge regression kept fresh under deltas via a maintained
/// covariance batch.
pub struct OnlineRidge {
    engine: Box<dyn MaintainableEngine>,
    state: MaintState,
    cfg: RidgeConfig,
    /// Equal to [`stats_from_result`] of the state's answer after every
    /// [`OnlineRidge::apply_delta`], `Ok` or `Err`.
    stats: SufficientStats,
}

impl OnlineRidge {
    /// Prepares the maintained covariance batch over the natural join of
    /// `relations`. `continuous` must list the response last;
    /// `categorical` features become sparse-tensor statistics. The
    /// catalog may be empty (streaming from zero) — [`OnlineRidge::model`]
    /// errors until the join is non-empty, then succeeds.
    pub fn new(
        db: &Database,
        relations: &[&str],
        continuous: &[&str],
        categorical: &[&str],
        engine: Box<dyn MaintainableEngine>,
        cfg: RidgeConfig,
    ) -> Result<Self, DataError> {
        let q = AggQuery::new(relations, covariance_batch(continuous, categorical));
        let state = engine.prepare(db, &q)?;
        let stats = stats_from_result(&*engine.eval(&state)?, continuous, categorical)?;
        Ok(Self { engine, state, stats, cfg })
    }

    /// Folds one delta batch into the maintained aggregates and the
    /// statistics. On `Err` the engine has rolled its state back — and,
    /// if maintenance had started, rebuilt it, so its answer may differ
    /// from the maintained one in the last bits of a real-valued sum: the
    /// statistics are re-read from that answer before the error returns.
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<(), DataError> {
        match self.engine.apply_delta(&mut self.state, delta) {
            Ok(res) => match self.state.changed() {
                Some(changed) => patch_stats(&mut self.stats, &res, changed),
                None => self.resync(&res),
            },
            Err(e) => {
                // A recompute state whose rerun fails here recomputes on
                // the next delta too, and that delta reports no change
                // list, so nothing is ever patched on stale statistics.
                if let Ok(res) = self.engine.eval(&self.state) {
                    self.resync(&res)?;
                }
                Err(e)
            }
        }
    }

    /// Re-reads the statistics from the whole answer `res`.
    fn resync(&mut self, res: &BatchResult) -> Result<(), DataError> {
        let cont: Vec<&str> = self.stats.cont.iter().map(String::as_str).collect();
        let cat: Vec<&str> = self.stats.cat.iter().map(String::as_str).collect();
        self.stats = stats_from_result(res, &cont, &cat)?;
        Ok(())
    }

    /// `SUM(1)` over the maintained join — the training-set size.
    pub fn count(&self) -> f64 {
        self.stats.count
    }

    /// The maintained sufficient statistics (no data access).
    pub fn stats(&self) -> Result<SufficientStats, DataError> {
        Ok(self.stats.clone())
    }

    /// The maintained covariance batch result the statistics are read
    /// from (no data access on a maintained state).
    pub fn answer(&self) -> Result<Arc<BatchResult>, DataError> {
        self.engine.eval(&self.state)
    }

    /// Refits the ridge model from the maintained statistics — the
    /// closed-form `d×d` solve, independent of data size and delta count.
    pub fn model(&self) -> Result<LinearRegression, DataError> {
        LinearRegression::fit_closed(&self.stats, &self.cfg)
    }

    /// The maintained database copy (reflects every applied delta).
    pub fn database(&self) -> &Database {
        self.state.database()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_core::{sufficient_stats, EngineConfig, LmfaoEngine};
    use fdb_datasets::{retailer, RetailerConfig};

    fn fact_insert(db: &Database) -> Delta {
        // Duplicate an existing Inventory row — stays within every
        // prepare-time range, so the LMFAO path maintains in place.
        Delta::insert("Inventory", db.get("Inventory").unwrap().row_vec(0))
    }

    #[test]
    fn maintained_model_equals_full_retrain_after_each_delta() {
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let cont = ["prize", "maxtemp", "inventoryunits"];
        let cat = ["rain"];
        let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        let mut online =
            OnlineRidge::new(&ds.db, &rels, &cont, &cat, Box::new(engine), RidgeConfig::default())
                .unwrap();
        let mut shadow = ds.db.clone();
        for step in 0..3 {
            let d = fact_insert(&shadow);
            online.apply_delta(&d).unwrap();
            shadow.apply_delta(&d).unwrap();
            let fresh = online.model().unwrap();
            // Ground truth: full retrain over the mutated database.
            let stats = sufficient_stats(&shadow, &rels, &cont, &cat, &engine).unwrap();
            let full = LinearRegression::fit_closed(&stats, &RidgeConfig::default()).unwrap();
            assert_eq!(fresh.labels, full.labels, "step {step}");
            for (a, b) in fresh.weights.iter().zip(&full.weights) {
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "step {step}: {a} vs {b}");
            }
            assert!(
                (fresh.intercept - full.intercept).abs() <= 1e-9 * (1.0 + full.intercept.abs()),
                "step {step}"
            );
        }
        assert_eq!(
            online.database().get("Inventory").unwrap().len(),
            shadow.get("Inventory").unwrap().len()
        );
    }

    /// `a` and `b` hold the same numbers, bit for bit, in the same places.
    fn assert_stats_bits(tag: &str, a: &SufficientStats, b: &SufficientStats) {
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        fn map_bits<K: Ord + Copy>(m: &std::collections::HashMap<K, f64>) -> Vec<(K, u64)> {
            let mut v: Vec<(K, u64)> = m.iter().map(|(k, x)| (*k, x.to_bits())).collect();
            v.sort_unstable();
            v
        }
        assert_eq!((&a.cont, &a.cat), (&b.cont, &b.cat), "{tag}: features");
        assert_eq!(a.count.to_bits(), b.count.to_bits(), "{tag}: count");
        assert_eq!(bits(&a.sum), bits(&b.sum), "{tag}: sums");
        assert_eq!(bits(&a.q), bits(&b.q), "{tag}: moments");
        for k in 0..a.cat.len() {
            assert_eq!(map_bits(&a.cat_counts[k]), map_bits(&b.cat_counts[k]), "{tag}: count {k}");
            for i in 0..a.cont.len() {
                let (x, y) = (&a.cat_cont_sums[k][i], &b.cat_cont_sums[k][i]);
                assert_eq!(map_bits(x), map_bits(y), "{tag}: sum {i} by {k}");
            }
        }
        let mut pairs: Vec<_> = a.cat_pair_counts.keys().copied().collect();
        pairs.sort_unstable();
        let mut other: Vec<_> = b.cat_pair_counts.keys().copied().collect();
        other.sort_unstable();
        assert_eq!(pairs, other, "{tag}: pairs");
        for p in pairs {
            let (x, y) = (&a.cat_pair_counts[&p], &b.cat_pair_counts[&p]);
            assert_eq!(map_bits(x), map_bits(y), "{tag}: pair {p:?}");
        }
    }

    /// Over Retailer's full covariance batch, the patched statistics equal
    /// a full re-read of the maintained answer field by field after every
    /// kind of delta the refresh workload streams (a 1-row and a 64-row
    /// fact insert with real-valued measures, a fact delete, an `Item`
    /// price update), and the refit weights are bit-equal.
    #[test]
    fn patched_stats_equal_a_full_reread_bit_for_bit() {
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let f = &ds.features;
        let mut cont: Vec<&str> = f.continuous.iter().map(String::as_str).collect();
        cont.push(&f.response);
        let cat: Vec<&str> = f.categorical.iter().map(String::as_str).collect();
        let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        let mut online =
            OnlineRidge::new(&ds.db, &rels, &cont, &cat, Box::new(engine), RidgeConfig::default())
                .unwrap();
        let fact = ds.db.get("Inventory").unwrap();
        let units = fact.schema().require("inventoryunits").unwrap();
        let row = |r: usize, x: f64| {
            let mut row = fact.row_vec(r % fact.len());
            row[units] = fdb_data::Value::F64(x);
            row
        };
        let mut wide = Delta::new("Inventory");
        for r in 0..64 {
            wide.push_insert(row(7 * r, 0.1 * r as f64 + 1e-3));
        }
        let item = ds.db.get("Item").unwrap();
        let prize = item.schema().require("prize").unwrap();
        let old = item.row_vec(1);
        let mut new = old.clone();
        new[prize] = fdb_data::Value::F64(old[prize].as_f64() * 1.1 + 0.3);
        let deltas = [
            Delta::insert("Inventory", row(3, 2.7)),
            wide,
            Delta::delete("Inventory", row(3, 2.7)),
            Delta::delete("Item", old).with_insert(new),
            Delta::insert("Inventory", row(11, 0.3)),
        ];
        for (i, d) in deltas.iter().enumerate() {
            online.apply_delta(d).unwrap();
            assert!(online.state.changed().is_some(), "delta {i} was patched, not rebuilt");
            let full = stats_from_result(&online.answer().unwrap(), &cont, &cat).unwrap();
            let patched = online.stats().unwrap();
            assert_stats_bits(&format!("delta {i}"), &patched, &full);
            let (a, b) = (
                online.model().unwrap(),
                LinearRegression::fit_closed(&full, &RidgeConfig::default()).unwrap(),
            );
            let bits = |m: &LinearRegression| {
                m.weights.iter().chain([&m.intercept]).map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&a), bits(&b), "delta {i}: weights");
        }
    }

    #[test]
    fn empty_join_has_no_model_until_data_arrives() {
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        // Start from an empty fact: the join is empty, so no model.
        let mut empty = ds.db.clone();
        let schema = empty.get("Inventory").unwrap().schema().clone();
        empty.add("Inventory", fdb_data::Relation::new(schema));
        let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        let mut online = OnlineRidge::new(
            &empty,
            &rels,
            &["prize", "inventoryunits"],
            &[],
            Box::new(engine),
            RidgeConfig::default(),
        )
        .unwrap();
        assert_eq!(online.count(), 0.0);
        assert!(online.model().is_err(), "no training data yet");
        // Stream the real fact rows back in; the model appears.
        let fact = ds.db.get("Inventory").unwrap();
        let mut d = Delta::new("Inventory");
        for r in 0..fact.len() {
            d.push_insert(fact.row_vec(r));
        }
        online.apply_delta(&d).unwrap();
        assert!(online.count() > 0.0);
        online.model().unwrap();
    }
}
