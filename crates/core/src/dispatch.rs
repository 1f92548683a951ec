//! Adaptive backend dispatch: one decision per query, flat or LMFAO.
//!
//! All backends return identical results for a valid [`AggQuery`] (the
//! [`Engine`] contract), so *which* backend runs is purely a cost call.
//! The one input that decides it is the **fact cardinality** — the
//! largest relation of the join, a catalog lookup with no data scan.
//! Tiny joins are dominated by planning overhead, so they materialize
//! flat and scan; everything else goes to LMFAO.
//!
//! The factorized engine is a comparator, not a lane: it is never chosen
//! (DESIGN.md §2.4 has the measurement). A caller who wants one specific
//! backend constructs that engine.
//!
//! Dispatch is a decision, not a layer. [`DispatchEngine::run`] runs the
//! chosen engine, and [`MaintainableEngine::prepare`] returns the chosen
//! engine's own [`MaintState`](crate::MaintState) — there is no wrapper
//! state, so a delta is applied to exactly one maintained database.

use crate::backend::{Engine, FlatEngine, LmfaoEngine};
use crate::ir::{AggQuery, BatchResult};
use crate::maintain::{MaintState, MaintainableEngine};
use crate::parallel::EngineConfig;
use fdb_data::{DataError, Database};

/// Fact cardinality at or below which the flat baseline wins: the
/// materialized join is a few hundred tuples, so join + scan costs less
/// than LMFAO's planning.
pub const FLAT_FACT_LIMIT: usize = 256;

/// A backend [`DispatchEngine::choose`] can name. The dispatcher picks
/// only [`Flat`](EngineChoice::Flat) or [`Lmfao`](EngineChoice::Lmfao);
/// [`Factorized`](EngineChoice::Factorized) labels the comparator in
/// backend panels that compare every engine against the dispatcher's
/// choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The flat (materialized-join) baseline.
    Flat,
    /// The fused factorized evaluator (never chosen by dispatch).
    Factorized,
    /// The layered LMFAO engine.
    Lmfao,
}

/// The per-query dispatching engine: resolves to one concrete backend via
/// [`DispatchEngine::choose`] and runs it.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchEngine {
    /// Toggles handed to LMFAO when it is chosen.
    pub cfg: EngineConfig,
}

impl DispatchEngine {
    /// Dispatch with default toggles.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dispatch with explicit LMFAO toggles.
    pub fn with_config(cfg: EngineConfig) -> Self {
        Self { cfg }
    }

    /// The backend `run` and `prepare` use for `q` over `db`: flat when
    /// the largest relation has at most [`FLAT_FACT_LIMIT`] rows, LMFAO
    /// otherwise. Exposed so tests and benchmarks can assert on the
    /// decision.
    pub fn choose(&self, db: &Database, q: &AggQuery) -> Result<EngineChoice, DataError> {
        let mut fact_rows = 0;
        for name in &q.relations {
            fact_rows = fact_rows.max(db.get(name)?.len());
        }
        Ok(if fact_rows <= FLAT_FACT_LIMIT { EngineChoice::Flat } else { EngineChoice::Lmfao })
    }
}

impl Engine for DispatchEngine {
    fn name(&self) -> &'static str {
        "dispatch"
    }

    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        q.validate(db)?;
        match self.choose(db, q)? {
            EngineChoice::Flat => FlatEngine.run(db, q),
            _ => LmfaoEngine::with_config(self.cfg).run(db, q),
        }
    }
}

/// Prepares through the backend chosen for the prepare-time database and
/// hands back that backend's own state: LMFAO's maintained view tree, or
/// flat's recompute-per-delta state (whose recomputes go through
/// [`DispatchEngine::run`] and so re-decide as the join grows).
impl MaintainableEngine for DispatchEngine {
    fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
        q.validate(db)?;
        match self.choose(db, q)? {
            EngineChoice::Flat => FlatEngine.prepare(db, q),
            _ => LmfaoEngine::with_config(self.cfg).prepare(db, q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{AggBatch, Aggregate};

    fn count_query(rels: &[&str]) -> AggQuery {
        let mut batch = AggBatch::new();
        batch.push(Aggregate::count());
        AggQuery::new(rels, batch)
    }

    #[test]
    fn tiny_joins_go_flat_and_everything_else_to_lmfao() {
        // The dish example: the largest relation has 6 rows.
        let db = fdb_datasets::dish::dish_database();
        let q = count_query(&["Orders", "Dish", "Items"]);
        let auto = DispatchEngine::new();
        assert_eq!(auto.choose(&db, &q).unwrap(), EngineChoice::Flat);
        assert_eq!(auto.run(&db, &q).unwrap().scalar(0), 12.0);
        // Retailer's fact is past the flat limit, whatever the batch.
        let ds = fdb_datasets::retailer(fdb_datasets::RetailerConfig::tiny());
        let fact = ds.db.get("Inventory").unwrap().len();
        assert!(fact > FLAT_FACT_LIMIT, "tiny retailer has {fact} fact rows");
        let narrow = count_query(&ds.relation_refs());
        assert_eq!(auto.choose(&ds.db, &narrow).unwrap(), EngineChoice::Lmfao);
        // Unknown relations are an error, not a choice.
        assert!(auto.choose(&db, &count_query(&["Nope"])).is_err());
    }

    /// The prepared state is the chosen backend's own: flat's recompute
    /// state on a tiny join, LMFAO's maintained view tree past the limit.
    #[test]
    fn prepare_returns_the_chosen_backends_state() {
        let dispatch = DispatchEngine::with_config(EngineConfig::sequential());
        let db = fdb_datasets::dish::dish_database();
        let st = dispatch.prepare(&db, &count_query(&["Orders", "Dish", "Items"])).unwrap();
        assert!(st.is_recompute());
        let ds = fdb_datasets::retailer(fdb_datasets::RetailerConfig::tiny());
        let q = count_query(&ds.relation_refs());
        let mut st = dispatch.prepare(&ds.db, &q).unwrap();
        assert!(!st.is_recompute());
        let delta =
            fdb_data::Delta::insert("Inventory", ds.db.get("Inventory").unwrap().row_vec(0));
        let got = dispatch.apply_delta(&mut st, &delta).unwrap();
        let mut shadow = ds.db.clone();
        shadow.apply_delta(&delta).unwrap();
        assert_eq!(got.scalar(0), FlatEngine.run(&shadow, &q).unwrap().scalar(0));
        assert!(!st.is_recompute(), "the delta was folded into LMFAO's view tree");
    }
}
