//! Group-by aggregate evaluation the *classical* way: one scan per query.
//!
//! `eval_agg_batch` evaluates a batch of aggregates the way a classical
//! engine does — sequentially, each with its own scan of the (materialized)
//! data matrix and its own hash table. The contrast with LMFAO's shared,
//! factorized evaluation of the same batch is what Figure 4 (left)
//! measures. Deliberately naive, it is also the oracle the agreement
//! suites compare every engine against.
//!
//! This module moved here from `fdb-query` so that **all** aggregate
//! evaluation lives in one crate behind one layering: `fdb-query` supplies
//! join materialization ([`fdb_query::natural_join_all`]) and the
//! expression IR ([`ScalarExpr`], [`Predicate`]); `fdb-core` owns every
//! evaluation loop — the shared-scan [`FlatEngine`](crate::FlatEngine),
//! the LMFAO view engine ([`crate::exec`]), and this deliberately naive
//! per-aggregate baseline. [`crate::to_scan_query`] lowers one IR
//! aggregate to a [`ScanQuery`].

use crate::batch::{bucket_code, GroupKey};
use fdb_data::{DataError, Relation, Value};
use fdb_query::{Predicate, ScalarExpr};
use std::collections::HashMap;

/// One per-relation scan query: `SELECT group_by, SUM(expr) FROM rel WHERE
/// filter GROUP BY group_by`. `COUNT(*)` is `SUM(1)`. (The cross-backend
/// logical IR is `fdb_core::AggQuery`; `fdb_core::to_scan_query` lowers
/// one of its aggregates to this form.)
#[derive(Debug, Clone)]
pub struct ScanQuery {
    /// Group-by keys (empty = scalar aggregate). A bucket key groups by
    /// its code, computed by definition per row.
    pub group_by: Vec<GroupKey>,
    /// Summand expression.
    pub expr: ScalarExpr,
    /// Optional tuple filter.
    pub filter: Option<Predicate>,
}

impl ScanQuery {
    /// A scalar `SUM(expr)`.
    pub fn sum(expr: ScalarExpr) -> Self {
        Self { group_by: vec![], expr, filter: None }
    }

    /// A grouped `SUM(expr) GROUP BY attrs`.
    pub fn sum_by(expr: ScalarExpr, group_by: &[&str]) -> Self {
        Self {
            group_by: group_by.iter().map(|s| GroupKey::Attr(s.to_string())).collect(),
            expr,
            filter: None,
        }
    }

    /// Adds a filter.
    pub fn with_filter(mut self, p: Predicate) -> Self {
        self.filter = Some(p);
        self
    }
}

/// Result of one aggregate query: group key → sum. Scalar aggregates use
/// the empty key.
pub type AggResult = HashMap<Box<[Value]>, f64>;

/// Evaluates one aggregate with a full scan of `rel`.
pub fn eval_agg(rel: &Relation, q: &ScanQuery) -> Result<AggResult, DataError> {
    let expr = q.expr.bind(rel.schema())?;
    let filter = q.filter.as_ref().map(|p| p.bind(rel.schema())).transpose()?;
    let gcols: Vec<(usize, Option<&[f64]>)> = q
        .group_by
        .iter()
        .map(|k| Ok((rel.schema().require(k.attr())?, k.cuts())))
        .collect::<Result<_, DataError>>()?;
    let mut out: AggResult = HashMap::new();
    let mut key: Vec<Value> = Vec::with_capacity(gcols.len());
    for r in 0..rel.len() {
        if let Some(f) = &filter {
            if !f.eval(rel, r) {
                continue;
            }
        }
        key.clear();
        key.extend(gcols.iter().map(|&(c, cuts)| match cuts {
            None => rel.value(r, c),
            Some(cuts) => Value::Int(bucket_code(cuts, rel.value_f64(r, c))),
        }));
        *out.entry(key.as_slice().into()).or_insert(0.0) += expr.eval(rel, r);
    }
    Ok(out)
}

/// Evaluates a batch the classical way: one scan *per query*. No sharing.
pub fn eval_agg_batch(rel: &Relation, batch: &[ScanQuery]) -> Result<Vec<AggResult>, DataError> {
    batch.iter().map(|q| eval_agg(rel, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_data::{AttrType, Schema};

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::of(&[("g", AttrType::Int), ("x", AttrType::Double), ("y", AttrType::Double)]),
            vec![
                vec![Value::Int(1), Value::F64(1.0), Value::F64(10.0)],
                vec![Value::Int(1), Value::F64(2.0), Value::F64(20.0)],
                vec![Value::Int(2), Value::F64(3.0), Value::F64(30.0)],
            ],
        )
        .unwrap()
    }

    fn scalar(res: &AggResult) -> f64 {
        let key: Box<[Value]> = Vec::new().into();
        res.get(&key).copied().unwrap_or(0.0)
    }

    #[test]
    fn count_and_sums() {
        let r = rel();
        let count = eval_agg(&r, &ScanQuery::sum(ScalarExpr::One)).unwrap();
        assert_eq!(scalar(&count), 3.0);
        let sum_xy = eval_agg(&r, &ScanQuery::sum(ScalarExpr::col_product("x", "y"))).unwrap();
        assert_eq!(scalar(&sum_xy), 1.0 * 10.0 + 2.0 * 20.0 + 3.0 * 30.0);
    }

    #[test]
    fn grouped_sum() {
        let r = rel();
        let res = eval_agg(&r, &ScanQuery::sum_by(ScalarExpr::Col("x".into()), &["g"])).unwrap();
        let k1: Box<[Value]> = vec![Value::Int(1)].into();
        let k2: Box<[Value]> = vec![Value::Int(2)].into();
        assert_eq!(res.get(&k1), Some(&3.0));
        assert_eq!(res.get(&k2), Some(&3.0));
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn filtered_aggregate() {
        let r = rel();
        let q =
            ScanQuery::sum(ScalarExpr::Col("y".into())).with_filter(Predicate::Ge("x".into(), 2.0));
        assert_eq!(scalar(&eval_agg(&r, &q).unwrap()), 50.0);
    }

    #[test]
    fn bucketed_sum_groups_by_bucket_code() {
        let r = rel();
        let mut q = ScanQuery::sum_by(ScalarExpr::Col("y".into()), &["g"]);
        q.group_by.push(GroupKey::Bucket { attr: "x".into(), cuts: vec![1.5, 2.0] });
        let res = eval_agg(&r, &q).unwrap();
        let key = |g: i64, b: i64| -> Box<[Value]> { vec![Value::Int(g), Value::Int(b)].into() };
        assert_eq!(res.get(&key(1, 0)), Some(&10.0));
        assert_eq!(res.get(&key(1, 2)), Some(&20.0));
        assert_eq!(res.get(&key(2, 2)), Some(&30.0));
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn batch_matches_individual() {
        let r = rel();
        let batch = vec![
            ScanQuery::sum(ScalarExpr::One),
            ScanQuery::sum_by(ScalarExpr::Col("y".into()), &["g"]),
        ];
        let res = eval_agg_batch(&r, &batch).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(scalar(&res[0]), 3.0);
        assert_eq!(res[1].len(), 2);
    }

    #[test]
    fn unknown_attribute_errors() {
        let r = rel();
        assert!(eval_agg(&r, &ScanQuery::sum(ScalarExpr::Col("nope".into()))).is_err());
        assert!(eval_agg(&r, &ScanQuery::sum_by(ScalarExpr::One, &["nope"])).is_err());
    }

    #[test]
    fn empty_relation_scalar_sum_absent() {
        let empty = Relation::new(rel().schema().clone());
        let res = eval_agg(&empty, &ScanQuery::sum(ScalarExpr::One)).unwrap();
        assert!(res.is_empty());
    }
}
