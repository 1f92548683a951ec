//! Adaptive backend dispatch: pick Flat / Factorized / LMFAO per query.
//!
//! All backends return identical results for a valid [`AggQuery`] (the
//! [`Engine`] contract), so *which* backend runs is purely a cost call —
//! and the inputs that decide it are cheap catalog statistics, no data
//! scans beyond the per-column min/max the engines compute anyway:
//!
//! * **fact cardinality** — the largest relation of the join. Tiny joins
//!   are dominated by planning overhead: materialize flat and scan.
//! * **aggregate-batch width** — many aggregates over one join (covariance
//!   matrices, decision-tree nodes) amortize LMFAO's view sharing; a
//!   narrow batch cannot.
//! * **group-by domain size vs [`EngineConfig::dense_limit`]** — when the
//!   composite group domain fits the dense budget, the factorized engine's
//!   dense keyed ring plus sort-cache reuse wins on narrow batches; when
//!   the domain is unknown or over budget (hash groups), LMFAO's shared
//!   scans bound the number of passes instead.
//!
//! [`EngineConfig::backend`] overrides the choice ([`EngineChoice::Auto`]
//! dispatches; anything else pins one backend), so a caller can always
//! reproduce the Figure 6 style per-engine runs through the same object.

use crate::backend::{Engine, FactorizedEngine, FlatEngine, LmfaoEngine};
use crate::ir::{sorted_groups, AggQuery, BatchResult};
use crate::parallel::{EngineChoice, EngineConfig};
use fdb_data::{DataError, Database};

/// Fact cardinality at or below which the flat baseline wins: the
/// materialized join is a few hundred tuples, so join + scan costs less
/// than either planner's setup.
pub const FLAT_FACT_LIMIT: usize = 256;

/// Batch width from which LMFAO's cross-aggregate sharing is assumed to
/// pay for its planning (a covariance batch over d features has ~d²/2
/// aggregates; 8 is already "several shared views per node").
pub const WIDE_BATCH: usize = 8;

/// Cheap per-query statistics the dispatcher decides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// Rows of the largest participating relation.
    pub fact_rows: usize,
    /// Number of aggregates in the batch.
    pub batch_width: usize,
    /// Largest composite group-by domain (product of per-attribute code
    /// ranges) across the batch; `None` when some domain is unknown (an
    /// empty owning column) or the product overflows `u64`.
    pub max_group_domain: Option<u64>,
}

/// Collects [`QueryStats`] for `q` over `db` (schema + min/max only).
pub fn query_stats(db: &Database, q: &AggQuery) -> Result<QueryStats, DataError> {
    let mut fact_rows = 0;
    for name in &q.relations {
        fact_rows = fact_rows.max(db.get(name)?.len());
    }
    // Owner lookup per group attribute: the non-join attribute lives in
    // exactly one relation (validated), so the first schema hit is it.
    let owner_range = |attr: &str| -> Result<Option<(i64, i64)>, DataError> {
        for name in &q.relations {
            let rel = db.get(name)?;
            if let Ok(c) = rel.schema().require(attr) {
                return Ok(rel.int_min_max(c));
            }
        }
        Err(DataError::UnknownAttribute(attr.to_string()))
    };
    let mut max_domain: Option<u64> = Some(1);
    for agg in &q.batch.aggs {
        let mut domain: Option<u64> = Some(1);
        for g in sorted_groups(&agg.group_by) {
            domain = match (domain, owner_range(&g)?) {
                (Some(d), Some((lo, hi))) => hi
                    .checked_sub(lo)
                    .and_then(|w| w.checked_add(1))
                    .and_then(|w| d.checked_mul(w as u64)),
                _ => None,
            };
        }
        max_domain = match (max_domain, domain) {
            (Some(m), Some(d)) => Some(m.max(d)),
            _ => None,
        };
    }
    Ok(QueryStats { fact_rows, batch_width: q.batch.len(), max_group_domain: max_domain })
}

/// The per-query dispatching engine: resolves to one concrete backend via
/// [`DispatchEngine::choose`] and runs it.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchEngine {
    /// Toggles handed to the chosen backend; `cfg.backend` is the
    /// dispatch override.
    pub cfg: EngineConfig,
}

impl DispatchEngine {
    /// Auto dispatch with default toggles.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dispatch with explicit toggles (including the override knob).
    pub fn with_config(cfg: EngineConfig) -> Self {
        Self { cfg }
    }

    /// The backend `run` would execute for `q` — never
    /// [`EngineChoice::Auto`]. Exposed so tests and benchmarks can assert
    /// on (and exhaustively cross-check) the decision.
    pub fn choose(&self, db: &Database, q: &AggQuery) -> Result<EngineChoice, DataError> {
        if self.cfg.backend != EngineChoice::Auto {
            return Ok(self.cfg.backend);
        }
        let stats = query_stats(db, q)?;
        Ok(Self::choose_from_stats(&stats, self.cfg.dense_limit))
    }

    /// The pure decision function (statistics in, backend out) — the
    /// heuristic documented in the module header, kept side-effect-free so
    /// it is exhaustively testable.
    pub fn choose_from_stats(stats: &QueryStats, dense_limit: u64) -> EngineChoice {
        if stats.fact_rows <= FLAT_FACT_LIMIT {
            return EngineChoice::Flat;
        }
        if stats.batch_width >= WIDE_BATCH {
            return EngineChoice::Lmfao;
        }
        match stats.max_group_domain {
            Some(d) if d <= dense_limit.max(1) => EngineChoice::Factorized,
            _ => EngineChoice::Lmfao,
        }
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
            EngineChoice::Factorized => FactorizedEngine::new().run(db, q),
            EngineChoice::Lmfao | EngineChoice::Auto => {
                LmfaoEngine::with_config(self.cfg).run(db, q)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(fact_rows: usize, batch_width: usize, domain: Option<u64>) -> QueryStats {
        QueryStats { fact_rows, batch_width, max_group_domain: domain }
    }

    #[test]
    fn heuristic_branches() {
        let limit = 1024;
        // Tiny fact → flat, regardless of anything else.
        assert_eq!(
            DispatchEngine::choose_from_stats(&stats(10, 100, None), limit),
            EngineChoice::Flat
        );
        assert_eq!(
            DispatchEngine::choose_from_stats(&stats(FLAT_FACT_LIMIT, 1, Some(1)), limit),
            EngineChoice::Flat
        );
        // Wide batch → LMFAO sharing.
        assert_eq!(
            DispatchEngine::choose_from_stats(&stats(10_000, WIDE_BATCH, Some(4)), limit),
            EngineChoice::Lmfao
        );
        // Narrow batch, dense-fitting groups → factorized.
        assert_eq!(
            DispatchEngine::choose_from_stats(&stats(10_000, 2, Some(12)), limit),
            EngineChoice::Factorized
        );
        // Scalar (domain 1) narrow batch stays factorized even with the
        // dense budget disabled (the `max(1)` floor: a scalar needs no
        // group index at all).
        assert_eq!(
            DispatchEngine::choose_from_stats(&stats(10_000, 2, Some(1)), 0),
            EngineChoice::Factorized
        );
        // Unknown or over-budget domains → LMFAO shared scans.
        assert_eq!(
            DispatchEngine::choose_from_stats(&stats(10_000, 2, None), limit),
            EngineChoice::Lmfao
        );
        assert_eq!(
            DispatchEngine::choose_from_stats(&stats(10_000, 2, Some(4096)), limit),
            EngineChoice::Lmfao
        );
    }

    #[test]
    fn override_pins_the_backend() {
        let db = fdb_datasets::dish::dish_database();
        let mut batch = crate::batch::AggBatch::new();
        batch.push(crate::batch::Aggregate::count());
        let q = AggQuery::new(&["Orders", "Dish", "Items"], batch);
        for choice in [EngineChoice::Flat, EngineChoice::Factorized, EngineChoice::Lmfao] {
            let e =
                DispatchEngine::with_config(EngineConfig { backend: choice, ..Default::default() });
            assert_eq!(e.choose(&db, &q).unwrap(), choice);
        }
        // Auto on the dish example: 8-row fact → flat.
        let auto = DispatchEngine::new();
        assert_eq!(auto.choose(&db, &q).unwrap(), EngineChoice::Flat);
        assert_eq!(auto.run(&db, &q).unwrap().scalar(0), 12.0);
    }

    #[test]
    fn stats_reflect_catalog() {
        let db = fdb_datasets::dish::dish_database();
        let mut batch = crate::batch::AggBatch::new();
        batch.push(crate::batch::Aggregate::count().by(&["customer", "day"]));
        batch.push(crate::batch::Aggregate::sum("price"));
        let q = AggQuery::new(&["Orders", "Dish", "Items"], batch);
        let s = query_stats(&db, &q).unwrap();
        assert_eq!(s.batch_width, 2);
        assert_eq!(s.fact_rows, 6, "Dish is the largest relation of the example");
        // customer spans 3 codes, day 2 → composite domain 6.
        assert_eq!(s.max_group_domain, Some(6));
    }
}
