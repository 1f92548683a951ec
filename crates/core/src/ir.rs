//! The shared logical IR consumed by every execution backend.
//!
//! An [`AggQuery`] pairs the join hypergraph (relation names, natural-join
//! semantics) with an aggregate batch ([`AggBatch`]): the
//! `SUM(Π f(attr)) WHERE cond GROUP BY cats` workload of §2. The three
//! engines behind the [`crate::Engine`](crate::backend::Engine) trait —
//! flat, factorized, and LMFAO — all take this one value, which is what
//! makes the Figure 6 ablation (and backend dispatch) a matter of
//! swapping engine objects rather than calling three bespoke APIs.

use crate::batch::{AggBatch, GroupKey};
use fdb_data::{DataError, Database};
use fdb_factorized::hypergraph::Hypergraph;
use std::collections::HashMap;

/// A batch of group-by aggregates over one natural join — the logical
/// query every backend executes.
#[derive(Debug, Clone)]
pub struct AggQuery {
    /// Relation names forming the natural join (the hyperedges).
    pub relations: Vec<String>,
    /// The aggregates to evaluate over that join.
    pub batch: AggBatch,
}

impl AggQuery {
    /// A query over the natural join of `relations`.
    pub fn new(relations: &[&str], batch: AggBatch) -> Self {
        Self { relations: relations.iter().map(|s| s.to_string()).collect(), batch }
    }

    /// Relation names as `&str` slices (the planners take `&[&str]`).
    pub fn relation_refs(&self) -> Vec<&str> {
        self.relations.iter().map(String::as_str).collect()
    }

    /// The join-key hypergraph of this query over `db`.
    pub fn hypergraph(&self, db: &Database) -> Result<Hypergraph, DataError> {
        Hypergraph::join_keys_plus(db, &self.relation_refs(), &[])
    }

    /// Checks the invariants every backend relies on: the relations exist,
    /// each aggregate attribute (factor, filter, or group-by) is a
    /// *non-join* attribute of exactly one relation, categorical group-by
    /// attributes are integer-backed (categorical codes or keys), bucket
    /// cuts are non-empty, finite and sorted ascending, and
    /// [`FilterOp::In`](crate::batch::FilterOp) lists are sorted (the
    /// documented contract the engines' binary search relies on).
    ///
    /// Engines call this up front so that all three backends reject the
    /// same ill-formed queries instead of silently diverging. The check is
    /// schema-level only (hypergraph + attribute ownership, no data
    /// scans), so running it once per `Engine::run` call is negligible
    /// next to execution even for per-tree-node batches.
    pub fn validate(&self, db: &Database) -> Result<(), DataError> {
        let rels = self.relation_refs();
        let hg = self.hypergraph(db)?;
        // Non-join attribute → (owner count, int-backed?).
        let mut owner: HashMap<&str, (usize, bool)> = HashMap::new();
        for name in &rels {
            let rel = db.get(name)?;
            for a in rel.schema().attrs() {
                if hg.var_id(&a.name).is_none() {
                    let e = owner.entry(a.name.as_str()).or_insert((0, a.ty.is_int_backed()));
                    e.0 += 1;
                }
            }
        }
        let require = |attr: &str| -> Result<bool, DataError> {
            match owner.get(attr) {
                Some(&(1, int_backed)) => Ok(int_backed),
                Some(_) => Err(DataError::Invalid(format!(
                    "aggregate attribute `{attr}` appears in more than one relation"
                ))),
                None => Err(DataError::Invalid(format!(
                    "aggregate attribute `{attr}` must be a non-join attribute of exactly one relation"
                ))),
            }
        };
        for agg in &self.batch.aggs {
            for (a, _) in &agg.factors {
                require(a)?;
            }
            for (a, op) in &agg.filter {
                require(a)?;
                if let crate::batch::FilterOp::In(vs) = op {
                    if vs.windows(2).any(|w| w[0] > w[1]) {
                        return Err(DataError::Invalid(format!(
                            "FilterOp::In list on `{a}` must be sorted ascending"
                        )));
                    }
                }
            }
            for g in &agg.group_by {
                let int_backed = require(g.attr())?;
                match g {
                    GroupKey::Attr(a) if !int_backed => {
                        return Err(DataError::Invalid(format!(
                            "group-by attribute `{a}` must be integer-backed (categorical codes)"
                        )));
                    }
                    GroupKey::Bucket { attr, cuts }
                        if cuts.is_empty()
                            || cuts.iter().any(|c| !c.is_finite())
                            || cuts.windows(2).any(|w| w[0] > w[1]) =>
                    {
                        return Err(DataError::Invalid(format!(
                            "bucket cuts on `{attr}` must be non-empty, finite and sorted ascending"
                        )));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// Result of a batch: one grouped map per aggregate, in batch order.
///
/// Group keys are codes (categorical codes or bucket numbers) in the order
/// of [`BatchResult::groups`] (group-by keys sorted by canonical name,
/// [`GroupKey::name`], deduplicated); scalar aggregates use the empty key. Entries whose value
/// is exactly `0.0` are dropped, so all backends agree on the represented
/// key set even when a join is empty.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per aggregate: the canonical names of its group-by keys, in key
    /// order (sorted).
    pub groups: Vec<Vec<String>>,
    /// Per aggregate: group key (codes) → aggregate value.
    /// Scalar aggregates use the empty key.
    pub values: Vec<HashMap<Box<[i64]>, f64>>,
}

impl BatchResult {
    /// The scalar value of aggregate `i` (0.0 over the empty join).
    pub fn scalar(&self, i: usize) -> f64 {
        let key: Box<[i64]> = Vec::new().into();
        self.values[i].get(&key).copied().unwrap_or(0.0)
    }

    /// The grouped map of aggregate `i`.
    pub fn grouped(&self, i: usize) -> &HashMap<Box<[i64]>, f64> {
        &self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Aggregate;

    #[test]
    fn validate_accepts_well_formed_and_rejects_join_keys() {
        let db = fdb_datasets::dish::dish_database();
        let rels = ["Orders", "Dish", "Items"];
        let mut ok = AggBatch::new();
        ok.push(Aggregate::sum("price").by(&["customer"]));
        assert!(AggQuery::new(&rels, ok).validate(&db).is_ok());

        // `dish` is a join key: rejected.
        let mut bad = AggBatch::new();
        bad.push(Aggregate::count().by(&["dish"]));
        assert!(AggQuery::new(&rels, bad).validate(&db).is_err());

        // `price` is Double: not a legal group-by.
        let mut badg = AggBatch::new();
        badg.push(Aggregate::count().by(&["price"]));
        assert!(AggQuery::new(&rels, badg).validate(&db).is_err());

        // Unknown attribute.
        let mut unk = AggBatch::new();
        unk.push(Aggregate::sum("nope"));
        assert!(AggQuery::new(&rels, unk).validate(&db).is_err());

        // Unsorted In list: rejected up front so the engines' binary
        // search cannot silently diverge from the flat scan.
        use crate::batch::FilterOp;
        let mut unsorted = AggBatch::new();
        unsorted.push(Aggregate::count().filtered("price", FilterOp::In(vec![3, 1])));
        assert!(AggQuery::new(&rels, unsorted).validate(&db).is_err());
        let mut sorted = AggBatch::new();
        sorted.push(Aggregate::count().filtered("price", FilterOp::In(vec![1, 3])));
        assert!(AggQuery::new(&rels, sorted).validate(&db).is_ok());

        // Bucket keys: any non-join attribute, Double or not, with
        // non-empty, finite, ascending cuts (duplicates allowed).
        let bucket = |attr: &str, cuts: &[f64]| {
            let mut b = AggBatch::new();
            b.push(Aggregate::count().by(&["customer"]).by_bucket(attr, cuts));
            AggQuery::new(&rels, b).validate(&db)
        };
        assert!(bucket("price", &[1.0, 2.0, 2.0, 5.0]).is_ok());
        assert!(bucket("customer", &[0.5]).is_ok());
        assert!(bucket("price", &[]).is_err(), "empty cuts");
        assert!(bucket("price", &[3.0, 1.0]).is_err(), "unsorted cuts");
        assert!(bucket("price", &[1.0, f64::NAN]).is_err(), "NaN cut");
        assert!(bucket("price", &[f64::NEG_INFINITY, 1.0]).is_err(), "infinite cut");
        assert!(bucket("price", &[1.0, f64::INFINITY]).is_err(), "infinite cut");
        assert!(bucket("dish", &[1.0]).is_err(), "bucket on a join key");
        assert!(bucket("nope", &[1.0]).is_err(), "unknown attribute");
    }

    #[test]
    fn scalar_and_grouped_accessors() {
        let empty_key: Box<[i64]> = Vec::new().into();
        let mut m = HashMap::new();
        m.insert(empty_key, 5.0);
        let r = BatchResult { groups: vec![vec![]], values: vec![m] };
        assert_eq!(r.scalar(0), 5.0);
        assert_eq!(r.grouped(0).len(), 1);
    }
}
