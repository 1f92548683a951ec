//! The [`Engine`] trait: one execution interface across the flat,
//! factorized, and LMFAO backends.
//!
//! The paper's central claim is that one aggregate-batch abstraction
//! serves classical joins, factorized evaluation, and in-database learning
//! alike. This module makes that claim an API: every backend consumes the
//! same [`AggQuery`] and produces the same [`BatchResult`], so callers
//! (ML, IVM, benchmarks, tests) swap engines instead of calling bespoke
//! per-backend entry points — the Figure 6 ablation is an engine swap.
//!
//! * [`FlatEngine`] — the structure-agnostic baseline: materialize the
//!   natural join with binary hash joins, then one scan per aggregate
//!   (`fdb_query`).
//! * [`FactorizedEngine`] — the fused leapfrog evaluator over the variable
//!   order, one pass per aggregate, join never materialized
//!   (`fdb_factorized` + the keyed ring).
//! * [`LmfaoEngine`] — the layered batch engine: shared views filled
//!   bottom-up in one scan per relation ([`crate::plan`] /
//!   [`crate::exec`] / [`crate::parallel`]).

use crate::batch::{bucket_code, key_names, sorted_keys, Aggregate, FilterOp, Fn1, GroupKey};
use crate::classical::ScanQuery;
use crate::exec::{filter_pass, run_batch, Col};
use crate::group::{GroupIndex, KeySpace, DEFAULT_DENSE_GROUPS};
use crate::ir::{AggQuery, BatchResult};
use crate::parallel::EngineConfig;
use fdb_data::{DataError, Database, Value};
use fdb_factorized::EvalSpec;
use fdb_query::{natural_join_all, Predicate, ScalarExpr};
use fdb_ring::{DenseKeyedRing, F64Ring, KeyedRing, Semiring};
use std::collections::HashMap;

/// An execution backend for aggregate-batch queries.
///
/// Implementations must agree: for any valid [`AggQuery`], every engine
/// returns the same groups and (up to float round-off) the same values.
/// `tests/engines_agree.rs` holds them to that.
pub trait Engine {
    /// A short stable name for reports and ablation tables.
    fn name(&self) -> &'static str;

    /// Evaluates the query against `db`.
    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError>;
}

// ---------------------------------------------------------------------------
// Flat (classical) backend
// ---------------------------------------------------------------------------

/// The structure-agnostic baseline: materialized join + one scan per
/// aggregate. This is the "PostgreSQL stand-in" of Figures 3 and 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatEngine;

/// Translates one IR aggregate into the classical engine's per-relation
/// scan query (group-by keys in sorted, deduplicated order — the key order
/// of [`BatchResult`]).
pub fn to_scan_query(agg: &Aggregate) -> ScanQuery {
    let expr = if agg.factors.is_empty() {
        ScalarExpr::One
    } else {
        ScalarExpr::Mul(
            agg.factors
                .iter()
                .flat_map(|(a, f)| match f {
                    Fn1::Ident => vec![ScalarExpr::Col(a.clone())],
                    Fn1::Square => vec![ScalarExpr::Col(a.clone()), ScalarExpr::Col(a.clone())],
                })
                .collect(),
        )
    };
    let mut q = ScanQuery { group_by: sorted_keys(&agg.group_by), expr, filter: None };
    if !agg.filter.is_empty() {
        let preds: Vec<Predicate> = agg
            .filter
            .iter()
            .map(|(a, op)| match op {
                FilterOp::Ge(t) => Predicate::Ge(a.clone(), *t),
                FilterOp::Lt(t) => Predicate::Lt(a.clone(), *t),
                FilterOp::Eq(v) => Predicate::Eq(a.clone(), Value::Int(*v)),
                FilterOp::Ne(v) => Predicate::Ne(a.clone(), Value::Int(*v)),
                FilterOp::In(vs) => Predicate::In(a.clone(), vs.clone()),
            })
            .collect();
        q.filter = Some(Predicate::And(preds));
    }
    q
}

impl Engine for FlatEngine {
    fn name(&self) -> &'static str {
        "flat"
    }

    /// Materializes the join once, then runs **one scan per distinct
    /// group-by set**: all aggregates sharing a set accumulate into one
    /// [`GroupIndex`] (a payload slot each), so a decision-tree batch of
    /// hundreds of same-grouped aggregates costs one pass instead of one
    /// pass per aggregate. The join materialization — not the scans — is
    /// what Figures 3/4 charge the classical engine for.
    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        q.validate(db)?;
        let flat = natural_join_all(db, &q.relation_refs())?;
        let cols = Col::all(&flat);
        // Aggregate indices per distinct (sorted) group-by set, in first-use
        // order.
        let mut sets: Vec<(Vec<String>, Vec<GroupKey>, Vec<usize>)> = Vec::new();
        for (i, agg) in q.batch.aggs.iter().enumerate() {
            let keys = sorted_keys(&agg.group_by);
            let g = key_names(&keys);
            match sets.iter_mut().find(|(sg, ..)| *sg == g) {
                Some((.., idxs)) => idxs.push(i),
                None => sets.push((g, keys, vec![i])),
            }
        }
        let mut groups = vec![Vec::new(); q.batch.len()];
        let mut values: Vec<HashMap<Box<[i64]>, f64>> = vec![HashMap::new(); q.batch.len()];
        for (gattrs, keys, idxs) in sets {
            let gcols: Vec<usize> =
                keys.iter().map(|k| flat.schema().require(k.attr())).collect::<Result<_, _>>()?;
            // Per aggregate of the set: factor and filter columns.
            let plans: Vec<(Vec<(usize, Fn1)>, Vec<(usize, FilterOp)>)> = idxs
                .iter()
                .map(|&i| {
                    let agg = &q.batch.aggs[i];
                    let factors = agg
                        .factors
                        .iter()
                        .map(|(a, f)| Ok((flat.schema().require(a)?, *f)))
                        .collect::<Result<_, DataError>>()?;
                    let filter = agg
                        .filter
                        .iter()
                        .map(|(a, op)| Ok((flat.schema().require(a)?, op.clone())))
                        .collect::<Result<_, DataError>>()?;
                    Ok((factors, filter))
                })
                .collect::<Result<_, DataError>>()?;
            // A bucket key's space is its fixed code domain.
            let ranges: Option<Vec<(i64, i64)>> = keys
                .iter()
                .zip(&gcols)
                .map(|(k, &c)| match k.cuts() {
                    None => flat.int_min_max(c),
                    Some(cuts) => Some((0, cuts.len() as i64)),
                })
                .collect();
            let space = ranges.and_then(|r| KeySpace::new(&r, DEFAULT_DENSE_GROUPS));
            // Dense accumulator over integer-backed group columns: scan
            // batch-at-a-time through the columnar kernels — one mixed-radix
            // code pass, then per-aggregate factor/filter passes over
            // contiguous slices, then a gathered payload add. A bucket key
            // reads its code column, computed once per set.
            let key_slices: Option<Vec<std::borrow::Cow<'_, [i64]>>> = keys
                .iter()
                .zip(&gcols)
                .map(|(k, &c)| match (k.cuts(), &cols[c]) {
                    (None, Col::I(v)) => Some(std::borrow::Cow::Borrowed(*v)),
                    (None, Col::F(_)) => None,
                    (Some(cuts), col) => Some(std::borrow::Cow::Owned(
                        (0..flat.len()).map(|r| bucket_code(cuts, col.get(r))).collect(),
                    )),
                })
                .collect();
            let batched = space.clone().zip(key_slices);
            let mut acc = match space {
                Some(space) => GroupIndex::dense(space, idxs.len()),
                None => GroupIndex::hash(idxs.len()),
            };
            if let Some((space, kcols)) = batched {
                let mut codes = Vec::new();
                let mut oob = Vec::new();
                let mut vals = Vec::new();
                let nslots = plans.len();
                let mut lo = 0;
                while lo < flat.len() {
                    let hi = (lo + crate::morsel::DEFAULT_MORSEL_ROWS).min(flat.len());
                    let n = hi - lo;
                    let kslices: Vec<&[i64]> = kcols.iter().map(|v| &v[lo..hi]).collect();
                    crate::kernel::encode_codes(&space, &kslices, n, &mut codes, &mut oob);
                    // Slot-major value matrix: one stripe per aggregate,
                    // then a single fused multi-slot scatter — the codes
                    // walk once per batch instead of once per aggregate.
                    vals.clear();
                    vals.resize(nslots * n, 1.0);
                    for (k, (factors, filter)) in plans.iter().enumerate() {
                        let sv = &mut vals[k * n..(k + 1) * n];
                        for &(c, f) in factors {
                            match cols[c] {
                                Col::F(v) => crate::kernel::mul_by(sv, &v[lo..hi], |x| f.apply(x)),
                                Col::I(v) => {
                                    crate::kernel::mul_by(sv, &v[lo..hi], |x| f.apply(x as f64))
                                }
                            }
                        }
                        for (c, op) in filter {
                            match cols[*c] {
                                Col::F(v) => crate::kernel::mask_by(sv, &v[lo..hi], |x| {
                                    filter_pass(op, x, x as i64)
                                }),
                                Col::I(v) => crate::kernel::mask_by(sv, &v[lo..hi], |x| {
                                    filter_pass(op, x as f64, x)
                                }),
                            }
                        }
                    }
                    acc.add_codes_multi(&codes, &vals);
                    lo = hi;
                }
            } else {
                let mut key: Vec<i64> = Vec::with_capacity(gcols.len());
                for row in 0..flat.len() {
                    key.clear();
                    key.extend(
                        keys.iter()
                            .zip(&gcols)
                            .map(|(k, &c)| k.code(cols[c].get(row), cols[c].get_int(row))),
                    );
                    let payload = acc.payload_mut(&key);
                    'aggs: for (k, (factors, filter)) in plans.iter().enumerate() {
                        for (c, op) in filter {
                            if !filter_pass(op, cols[*c].get(row), cols[*c].get_int(row)) {
                                continue 'aggs;
                            }
                        }
                        let mut v = 1.0;
                        for &(c, f) in factors {
                            v *= f.apply(cols[c].get(row));
                        }
                        payload[k] += v;
                    }
                }
            }
            for (k, &agg_i) in idxs.iter().enumerate() {
                groups[agg_i] = gattrs.clone();
                let mut map = HashMap::new();
                acc.for_each(|gkey, payload| {
                    if payload[k] != 0.0 {
                        map.insert(gkey.into(), payload[k]);
                    }
                });
                values[agg_i] = map;
            }
        }
        Ok(BatchResult { groups, values })
    }
}

// ---------------------------------------------------------------------------
// Factorized backend
// ---------------------------------------------------------------------------

/// The fused factorized evaluator (§5.1): leapfrog over the variable order
/// with keyed-ring aggregation, one pass per aggregate. The join is never
/// materialized, but — unlike LMFAO — nothing is shared across the batch
/// beyond the sorted views (cached across runs) and the per-group-by-set
/// evaluation specs.
///
/// Grouped aggregates accumulate in the dense keyed ring
/// ([`DenseKeyedRing`]) whenever it accepts the group attributes' code
/// ranges, in the hash-map [`KeyedRing`] otherwise; sorted relation views
/// come from the global [`SortCache`](fdb_data::SortCache).
#[derive(Debug, Clone, Copy, Default)]
pub struct FactorizedEngine;

impl FactorizedEngine {
    /// The engine (it has no configuration).
    pub fn new() -> Self {
        Self
    }
}

/// Per-relation local work of one aggregate: factor and filter columns.
struct LocalAgg {
    factors: Vec<(usize, Fn1)>,
    filter: Vec<(usize, FilterOp)>,
}

impl LocalAgg {
    fn is_count(&self) -> bool {
        self.factors.is_empty() && self.filter.is_empty()
    }

    /// Sum over `rows` of the filtered local factor product.
    fn sum(&self, cols: &[Col<'_>], rows: std::ops::Range<usize>) -> f64 {
        if self.is_count() {
            return rows.len() as f64;
        }
        let mut acc = 0.0;
        'rows: for r in rows {
            for (c, op) in &self.filter {
                if !filter_pass(op, cols[*c].get(r), cols[*c].get_int(r)) {
                    continue 'rows;
                }
            }
            let mut v = 1.0;
            for &(c, f) in &self.factors {
                v *= f.apply(cols[c].get(r));
            }
            acc += v;
        }
        acc
    }
}

/// Resolves one aggregate's factors and filters to per-relation plans
/// against the spec's (sorted) relations.
fn local_plans(spec: &EvalSpec, nrels: usize, agg: &Aggregate) -> Result<Vec<LocalAgg>, DataError> {
    let mut out: Vec<LocalAgg> =
        (0..nrels).map(|_| LocalAgg { factors: vec![], filter: vec![] }).collect();
    let place = |attr: &str| -> Result<(usize, usize), DataError> {
        for ri in 0..nrels {
            if let Ok(ci) = spec.col_index(ri, attr) {
                return Ok((ri, ci));
            }
        }
        Err(DataError::UnknownAttribute(attr.to_string()))
    };
    for (a, f) in &agg.factors {
        let (ri, ci) = place(a)?;
        out[ri].factors.push((ci, *f));
    }
    for (a, op) in &agg.filter {
        let (ri, ci) = place(a)?;
        out[ri].filter.push((ci, op.clone()));
    }
    Ok(out)
}

/// One prepared spec per distinct categorical group-by set, with its dense
/// ring when the group domains allow one.
type SpecEntry = (Vec<String>, EvalSpec, Option<DenseKeyedRing<F64Ring>>);

impl FactorizedEngine {
    /// Builds the dense keyed ring for a prepared spec's group attributes,
    /// when their code ranges are known. Computed **once per group-by set**
    /// (each range lookup scans a column) and reused by every aggregate
    /// sharing the spec. The per-slot ranges come from any participating
    /// relation's column — leapfrog matches lie in every participant's
    /// range, so one bound suffices.
    fn dense_ring(
        spec: &EvalSpec,
        nrels: usize,
        gattrs: &[String],
    ) -> Option<DenseKeyedRing<F64Ring>> {
        if gattrs.is_empty() {
            return None;
        }
        let ranges: Option<Vec<(i64, i64)>> = gattrs
            .iter()
            .map(|g| {
                (0..nrels).find_map(|ri| {
                    let ci = spec.col_index(ri, g).ok()?;
                    spec.relation(ri).int_min_max(ci)
                })
            })
            .collect();
        ranges.and_then(|r| DenseKeyedRing::new(F64Ring, &r))
    }

    /// Evaluates one aggregate over a prepared spec; `gattrs` is the
    /// sorted group-by attribute list (the spec's extra variables) and
    /// `dense` the group-by-set's precomputed dense ring (`None` = hash).
    fn eval_one(
        spec: &EvalSpec,
        nrels: usize,
        gattrs: &[String],
        dense: Option<&DenseKeyedRing<F64Ring>>,
        agg: &Aggregate,
    ) -> Result<HashMap<Box<[i64]>, f64>, DataError> {
        let locals = local_plans(spec, nrels, agg)?;
        let cols: Vec<Vec<Col<'_>>> = (0..nrels).map(|ri| Col::all(spec.relation(ri))).collect();
        let leaf = |ri: usize, rows: std::ops::Range<usize>| locals[ri].sum(&cols[ri], rows);
        let mut map: HashMap<Box<[i64]>, f64> = HashMap::new();
        if gattrs.is_empty() {
            let total = spec.eval(&F64Ring, |_, _| 1.0, leaf);
            if total != 0.0 {
                map.insert(Vec::new().into(), total);
            }
            return Ok(map);
        }
        // Group-by slot per variable id, in sorted-attribute order.
        let hg = spec.hypergraph();
        let mut slot_of_var: HashMap<usize, usize> = HashMap::new();
        for (slot, g) in gattrs.iter().enumerate() {
            let var = hg.var_id(g).ok_or_else(|| {
                DataError::Invalid(format!("group-by attribute `{g}` missing from the key graph"))
            })?;
            slot_of_var.insert(var, slot);
        }
        // Dense path: group keys as mixed-radix codes in sorted lists.
        if let Some(ring) = dense {
            let grouped = spec.eval(
                ring,
                |var, v| match slot_of_var.get(&var) {
                    Some(&slot) => ring.tag(slot, v, 1.0),
                    None => ring.one(),
                },
                |ri, rows| ring.scalar(leaf(ri, rows)),
            );
            let mut key: Vec<i64> = Vec::with_capacity(gattrs.len());
            for (mask, code, v) in grouped.iter() {
                if *v != 0.0 {
                    ring.decode(mask, code, &mut key);
                    map.insert(key.as_slice().into(), *v);
                }
            }
            return Ok(map);
        }
        // Hash fallback: unknown or unbounded group domains.
        let ring = KeyedRing::new(F64Ring, gattrs.len());
        let grouped = spec.eval(
            &ring,
            |var, v| match slot_of_var.get(&var) {
                Some(&slot) => ring.tag(slot, Value::Int(v), 1.0),
                None => ring.one(),
            },
            |ri, rows| ring.scalar(leaf(ri, rows)),
        );
        for (key, v) in grouped.iter() {
            if *v != 0.0 {
                map.insert(key.iter().map(|x| x.as_int()).collect(), *v);
            }
        }
        Ok(map)
    }

    /// Evaluates `agg` grouped by `keys` (sorted). Bucket keys are lowered
    /// to range filters, one key at a time: bucket `k ≥ 1` is the aggregate
    /// filtered by `x ≥ cuts[k-1] ∧ x < cuts[k]` (no upper bound for the
    /// last), and bucket 0 is the aggregate without the key minus every
    /// other bucket, so rows no range admits (NaN, `-inf`, below the first
    /// cut) land in bucket 0 as the [`GroupKey`] contract says. The
    /// categorical keys left over go to the spec of their group-by set.
    fn eval_keys(
        db: &Database,
        rels: &[&str],
        specs: &mut Vec<SpecEntry>,
        agg: &Aggregate,
        keys: &[GroupKey],
    ) -> Result<HashMap<Box<[i64]>, f64>, DataError> {
        let Some(b) = keys.iter().position(|k| k.cuts().is_some()) else {
            let gattrs: Vec<String> = keys.iter().map(|k| k.attr().to_string()).collect();
            let spec_idx = match specs.iter().position(|(g, ..)| *g == gattrs) {
                Some(i) => i,
                None => {
                    let grefs: Vec<&str> = gattrs.iter().map(String::as_str).collect();
                    let spec = EvalSpec::new(db, rels, &grefs)?;
                    let ring = Self::dense_ring(&spec, rels.len(), &gattrs);
                    specs.push((gattrs, spec, ring));
                    specs.len() - 1
                }
            };
            let (gattrs, spec, ring) = &specs[spec_idx];
            return Self::eval_one(spec, rels.len(), gattrs, ring.as_ref(), agg);
        };
        let (attr, cuts) = (keys[b].attr(), keys[b].cuts().expect("a bucket key"));
        let mut rest = keys.to_vec();
        rest.remove(b);
        let with_code = |key: &[i64], code: usize| -> Box<[i64]> {
            let mut k = key.to_vec();
            k.insert(b, code as i64);
            k.into()
        };
        let mut bucket0 = Self::eval_keys(db, rels, specs, agg, &rest)?;
        let mut out = HashMap::new();
        for k in 1..=cuts.len() {
            let mut range = agg.clone().filtered(attr, FilterOp::Ge(cuts[k - 1]));
            if let Some(&hi) = cuts.get(k) {
                range = range.filtered(attr, FilterOp::Lt(hi));
            }
            for (key, v) in Self::eval_keys(db, rels, specs, &range, &rest)? {
                *bucket0.entry(key.clone()).or_insert(0.0) -= v;
                out.insert(with_code(&key, k), v);
            }
        }
        for (key, v) in bucket0 {
            if v != 0.0 {
                out.insert(with_code(&key, 0), v);
            }
        }
        Ok(out)
    }
}

impl Engine for FactorizedEngine {
    fn name(&self) -> &'static str {
        "factorized"
    }

    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        q.validate(db)?;
        let rels = q.relation_refs();
        // One spec (and one dense ring) per distinct group-by set: the
        // group attributes become extra key variables of the variable
        // order, so specs — the sorting they do, and the range scans the
        // ring needs — are shared across same-grouped aggregates.
        let mut specs: Vec<SpecEntry> = Vec::new();
        let mut groups = Vec::with_capacity(q.batch.len());
        let mut values = Vec::with_capacity(q.batch.len());
        for agg in &q.batch.aggs {
            let keys = sorted_keys(&agg.group_by);
            values.push(Self::eval_keys(db, &rels, &mut specs, agg, &keys)?);
            groups.push(key_names(&keys));
        }
        Ok(BatchResult { groups, values })
    }
}

// ---------------------------------------------------------------------------
// LMFAO backend
// ---------------------------------------------------------------------------

/// The layered LMFAO engine behind the trait: shared views, one scan per
/// relation, with the [`EngineConfig`] toggles of the Figure 6 ablation.
#[derive(Debug, Clone, Copy, Default)]
pub struct LmfaoEngine {
    /// Feature toggles (specialisation, sharing, threads).
    pub cfg: EngineConfig,
}

impl LmfaoEngine {
    /// The default configuration (everything on, machine parallelism).
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with explicit toggles (ablation stages).
    pub fn with_config(cfg: EngineConfig) -> Self {
        Self { cfg }
    }
}

impl Engine for LmfaoEngine {
    fn name(&self) -> &'static str {
        "lmfao"
    }

    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        q.validate(db)?;
        run_batch(db, &q.relation_refs(), &q.batch, &self.cfg)
    }
}

/// The three backends, boxed, for ablation loops and agreement tests.
pub fn all_engines() -> Vec<Box<dyn Engine>> {
    vec![Box::new(FlatEngine), Box::new(FactorizedEngine::new()), Box::new(LmfaoEngine::new())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::AggBatch;

    fn dish_query() -> (Database, AggQuery) {
        let db = fdb_datasets::dish::dish_database();
        let mut batch = AggBatch::new();
        batch.push(Aggregate::count());
        batch.push(Aggregate::sum("price"));
        batch.push(Aggregate::sum_prod("price", "price"));
        batch.push(Aggregate::count().by(&["customer"]));
        batch.push(Aggregate::sum("price").by(&["day", "customer"]));
        batch.push(Aggregate::sum("price").filtered("price", FilterOp::Ge(3.0)));
        batch.push(Aggregate::count().by(&["customer"]).filtered("day", FilterOp::Eq(1)));
        batch.push(Aggregate::sum("price").filtered("day", FilterOp::In(vec![0, 1])));
        (db, AggQuery::new(&["Orders", "Dish", "Items"], batch))
    }

    #[test]
    fn three_backends_agree_on_dish() {
        let (db, q) = dish_query();
        let results: Vec<BatchResult> =
            all_engines().iter().map(|e| e.run(&db, &q).unwrap()).collect();
        let base = &results[0];
        for (e, r) in all_engines().iter().zip(&results).skip(1) {
            for i in 0..q.batch.len() {
                assert_eq!(base.groups[i], r.groups[i], "{}: agg {i} groups", e.name());
                assert_eq!(
                    base.grouped(i).len(),
                    r.grouped(i).len(),
                    "{}: agg {i} key count",
                    e.name()
                );
                for (k, v) in base.grouped(i) {
                    let got = r.grouped(i).get(k).copied().unwrap_or(f64::NAN);
                    assert!(
                        (v - got).abs() <= 1e-9 * (1.0 + v.abs()),
                        "{}: agg {i} key {k:?}: {v} vs {got}",
                        e.name()
                    );
                }
            }
        }
        // Figure 9 ground truth: SUM(1) over the dish join is 12.
        assert_eq!(results[0].scalar(0), 12.0);
    }

    #[test]
    fn engines_reject_invalid_queries_alike() {
        let db = fdb_datasets::dish::dish_database();
        let mut batch = AggBatch::new();
        batch.push(Aggregate::sum("dish")); // join key
        let q = AggQuery::new(&["Orders", "Dish", "Items"], batch);
        for e in all_engines() {
            assert!(e.run(&db, &q).is_err(), "{} must reject join-key aggregates", e.name());
        }
    }

    #[test]
    fn engine_names_are_distinct() {
        let names: Vec<&str> = all_engines().iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["flat", "factorized", "lmfao"]);
    }
}
