//! F-IVM behind the unified [`Engine`] and [`MaintainableEngine`] traits.
//!
//! [`FivmEngine`] answers covariance-shaped [`AggQuery`] batches (scalar
//! `SUM(1)`, `SUM(ci)`, `SUM(ci·cj)` — no filters, no group-bys) by
//! *streaming* the database through a factorized view tree over the
//! covariance ring and reading the maintained triple. It is deliberately a
//! fourth backend with the same contract as flat/factorized/LMFAO on its
//! supported fragment: the cross-engine agreement tests exercise it on
//! identical `AggQuery` values, and any other batch shape is rejected
//! with a clear error rather than answered wrongly.
//!
//! Because streaming **is** maintenance, the engine's
//! [`MaintainableEngine`] implementation is its natural form: `prepare`
//! streams the catalog once, and `apply_delta` folds each
//! [`Delta`](fdb_data::Delta) into the ring-valued view tree in
//! `O(delta × fanout)` — the paper's "one-shot evaluation is the special
//! case of maintenance where the stream happens to end".

use crate::maintain::{CovMaintainer, IvmStrategy};
use fdb_core::batch::{Aggregate, Fn1};
use fdb_core::ir::{AggQuery, BatchResult};
use fdb_core::maintain::{CustomMaint, MaintState, MaintainableEngine};
use fdb_core::Engine;
use fdb_data::{DataError, Database, Delta};
use fdb_ring::CovTriple;
use std::collections::HashMap;
use std::sync::Arc;

/// The F-IVM backend: maintains the covariance triple under a full stream
/// of the database, then reads the requested aggregates out of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FivmEngine;

/// How one aggregate maps into the covariance triple.
enum TripleSlot {
    /// `SUM(1)` → `c`.
    Count,
    /// `SUM(cont[i])` → `s[i]`.
    Sum(usize),
    /// `SUM(cont[i] * cont[j])` → `q_at(i, j)`.
    Moment(usize, usize),
}

/// Classifies the batch as covariance-shaped, assigning each distinct
/// factor attribute a continuous index in first-seen order.
fn classify(aggs: &[Aggregate]) -> Result<(Vec<String>, Vec<TripleSlot>), DataError> {
    let unsupported = |what: &str| {
        DataError::Invalid(format!(
            "FivmEngine supports covariance-shaped batches only (scalar SUM(1), \
             SUM(x), SUM(x*y)); got an aggregate with {what}"
        ))
    };
    let mut cont: Vec<String> = Vec::new();
    let index_of = |attr: &str, cont: &mut Vec<String>| -> usize {
        match cont.iter().position(|a| a == attr) {
            Some(i) => i,
            None => {
                cont.push(attr.to_string());
                cont.len() - 1
            }
        }
    };
    let mut slots = Vec::with_capacity(aggs.len());
    for agg in aggs {
        if !agg.filter.is_empty() {
            return Err(unsupported("a filter"));
        }
        if !agg.group_by.is_empty() {
            return Err(unsupported("a group-by"));
        }
        let slot = match agg.factors.as_slice() {
            [] => TripleSlot::Count,
            [(a, Fn1::Ident)] => TripleSlot::Sum(index_of(a, &mut cont)),
            [(a, Fn1::Square)] => {
                let i = index_of(a, &mut cont);
                TripleSlot::Moment(i, i)
            }
            [(a, Fn1::Ident), (b, Fn1::Ident)] => {
                let i = index_of(a, &mut cont);
                let j = index_of(b, &mut cont);
                TripleSlot::Moment(i, j)
            }
            _ => return Err(unsupported("a product of degree > 2")),
        };
        slots.push(slot);
    }
    Ok((cont, slots))
}

/// Reads the requested aggregates out of the maintained triple.
fn triple_to_result(triple: &CovTriple, slots: &[TripleSlot]) -> BatchResult {
    let empty_key: Box<[i64]> = Vec::new().into();
    let mut groups = Vec::with_capacity(slots.len());
    let mut values = Vec::with_capacity(slots.len());
    for slot in slots {
        let v = match *slot {
            TripleSlot::Count => triple.c,
            TripleSlot::Sum(i) => triple.s[i],
            TripleSlot::Moment(i, j) => triple.q_at(i, j),
        };
        let mut map: HashMap<Box<[i64]>, f64> = HashMap::new();
        if v != 0.0 {
            map.insert(empty_key.clone(), v);
        }
        groups.push(Vec::new());
        values.push(map);
    }
    BatchResult { groups, values }
}

/// Builds the streamed maintainer for a validated covariance query.
fn build_maintainer(
    db: &Database,
    q: &AggQuery,
) -> Result<(CovMaintainer, Vec<TripleSlot>), DataError> {
    let (cont, slots) = classify(&q.batch.aggs)?;
    let rels = q.relation_refs();
    // Root the view tree at the largest relation, like the other
    // backends root their join trees; ties break toward the *first* such
    // relation (our datasets list the fact first), so streaming into an
    // empty catalog roots at the fact — the same tree the first- and
    // higher-order baselines maintain, keeping Figure 4 symmetric.
    let root = (0..rels.len())
        .max_by_key(|&i| (db.get(rels[i]).map(|r| r.len()).unwrap_or(0), std::cmp::Reverse(i)))
        .unwrap_or(0);
    let cont_refs: Vec<&str> = cont.iter().map(String::as_str).collect();
    let maint = CovMaintainer::new(db, &rels, root, &cont_refs, IvmStrategy::Fivm)?;
    Ok((maint, slots))
}

impl Engine for FivmEngine {
    fn name(&self) -> &'static str {
        "fivm"
    }

    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        q.validate(db)?;
        let (maint, slots) = build_maintainer(db, q)?;
        Ok(triple_to_result(&maint.triple(), &slots))
    }
}

/// The engine's maintained structure behind
/// [`fdb_core::maintain::MaintState`]: the streamed covariance view tree
/// plus the batch's slot mapping.
struct FivmMaint {
    maint: CovMaintainer,
    slots: Vec<TripleSlot>,
}

impl CustomMaint for FivmMaint {
    fn apply_delta(
        &mut self,
        _db: &Database,
        q: &AggQuery,
        delta: &Delta,
    ) -> Result<Arc<BatchResult>, DataError> {
        // Before the covariance triple mutates: a fault here leaves the
        // maintainer untouched, and the `MaintainableEngine::apply_delta`
        // wrapper rolls the state's database back to match.
        fdb_data::fault::check("maintain-view")?;
        // Deltas on relations outside the join leave the triple as is.
        if q.relations.contains(&delta.relation) {
            self.maint.apply_delta(delta)?;
        }
        Ok(Arc::new(triple_to_result(&self.maint.triple(), &self.slots)))
    }

    fn eval(&self, _db: &Database, _q: &AggQuery) -> Result<Arc<BatchResult>, DataError> {
        Ok(Arc::new(triple_to_result(&self.maint.triple(), &self.slots)))
    }
}

impl MaintainableEngine for FivmEngine {
    /// Streams the catalog through the covariance view tree once; every
    /// later [`MaintainableEngine::apply_delta`] is `O(delta × fanout)`
    /// ring maintenance — no rescan of any base relation.
    fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
        q.validate(db)?;
        let (maint, slots) = build_maintainer(db, q)?;
        Ok(MaintState::custom(db.clone(), q.clone(), Box::new(FivmMaint { maint, slots })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_core::{covariance_batch, AggBatch, FilterOp, FlatEngine};
    use fdb_data::{AttrType, Relation, Schema, Value};

    /// F(a, b, x) ⋈ D1(a, u) ⋈ D2(b, v).
    fn snowflake() -> Database {
        let mut db = Database::new();
        let f = Relation::from_rows(
            Schema::of(&[("a", AttrType::Int), ("b", AttrType::Int), ("x", AttrType::Double)]),
            vec![
                vec![Value::Int(0), Value::Int(0), Value::F64(1.0)],
                vec![Value::Int(0), Value::Int(1), Value::F64(2.0)],
                vec![Value::Int(1), Value::Int(0), Value::F64(-3.0)],
            ],
        )
        .unwrap();
        let d1 = Relation::from_rows(
            Schema::of(&[("a", AttrType::Int), ("u", AttrType::Double)]),
            vec![vec![Value::Int(0), Value::F64(5.0)], vec![Value::Int(1), Value::F64(-1.0)]],
        )
        .unwrap();
        let d2 = Relation::from_rows(
            Schema::of(&[("b", AttrType::Int), ("v", AttrType::Double)]),
            vec![vec![Value::Int(0), Value::F64(2.0)], vec![Value::Int(1), Value::F64(4.0)]],
        )
        .unwrap();
        db.add("F", f);
        db.add("D1", d1);
        db.add("D2", d2);
        db
    }

    #[test]
    fn agrees_with_flat_engine_on_covariance_batch() {
        let db = snowflake();
        let q = AggQuery::new(&["F", "D1", "D2"], covariance_batch(&["x", "u", "v"], &[]));
        let fivm = FivmEngine.run(&db, &q).unwrap();
        let flat = FlatEngine.run(&db, &q).unwrap();
        for i in 0..q.batch.len() {
            let (a, b) = (fivm.scalar(i), flat.scalar(i));
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "agg {i}: {a} vs {b}");
        }
    }

    #[test]
    fn rejects_non_covariance_batches() {
        let db = snowflake();
        let mut grouped = AggBatch::new();
        grouped.push(fdb_core::Aggregate::count().by(&["x"]));
        let mut filtered = AggBatch::new();
        filtered.push(fdb_core::Aggregate::sum("x").filtered("u", FilterOp::Ge(0.0)));
        for batch in [grouped, filtered] {
            let q = AggQuery::new(&["F", "D1", "D2"], batch);
            assert!(FivmEngine.run(&db, &q).is_err());
        }
    }

    #[test]
    fn maintained_state_tracks_deltas_in_constant_work_per_row() {
        let db = snowflake();
        let q = AggQuery::new(&["F", "D1", "D2"], covariance_batch(&["x", "u", "v"], &[]));
        let mut st = FivmEngine.prepare(&db, &q).unwrap();
        let mut shadow = db.clone();
        let deltas = [
            Delta::insert("F", vec![Value::Int(1), Value::Int(1), Value::F64(7.0)]),
            Delta::delete("F", vec![Value::Int(0), Value::Int(0), Value::F64(1.0)]),
            Delta::new("D1")
                .with_insert(vec![Value::Int(1), Value::F64(2.5)])
                .with_delete(vec![Value::Int(1), Value::F64(-1.0)]),
        ];
        for (i, d) in deltas.iter().enumerate() {
            let got = FivmEngine.apply_delta(&mut st, d).unwrap();
            shadow.apply_delta(d).unwrap();
            let cold = FlatEngine.run(&shadow, &q).unwrap();
            for k in 0..q.batch.len() {
                let (a, b) = (got.scalar(k), cold.scalar(k));
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "delta {i} agg {k}: {a} vs {b}");
            }
        }
    }
}
