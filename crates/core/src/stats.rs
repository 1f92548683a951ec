//! Sufficient statistics for learning: the sparse-tensor covariance
//! structure of §2.1, assembled from a batch result.
//!
//! For continuous features (with the response last) the statistics are the
//! count, sums, and second moments — the `(c, s, Q)` of the covariance
//! ring. Categorical features are *not* one-hot encoded; their
//! interactions are kept as group-by maps over the category codes that
//! actually occur ("sparse tensor encoding").

use crate::backend::Engine;
use crate::batch::AggBatch;
use crate::batchgen::covariance_batch;
use crate::ir::{AggQuery, BatchResult};
use crate::maintain::Changed;
use fdb_data::{DataError, Database};
use fdb_factorized::EvalSpec;
use fdb_ring::{CovRing, CovTriple, Semiring};
use std::collections::HashMap;
use std::hash::Hash;

/// Sufficient statistics of a feature extraction query.
#[derive(Debug, Clone)]
pub struct SufficientStats {
    /// Continuous attributes (response last).
    pub cont: Vec<String>,
    /// Categorical attributes.
    pub cat: Vec<String>,
    /// `SUM(1)` over the join.
    pub count: f64,
    /// `SUM(ci)` per continuous attribute.
    pub sum: Vec<f64>,
    /// `SUM(ci*cj)` lower-triangular: entry `(i, j)`, `j <= i`, at
    /// `i*(i+1)/2 + j`.
    pub q: Vec<f64>,
    /// `SUM(1) GROUP BY cat_k`.
    pub cat_counts: Vec<HashMap<i64, f64>>,
    /// `SUM(cont_i) GROUP BY cat_k`, indexed `[k][i]`.
    pub cat_cont_sums: Vec<Vec<HashMap<i64, f64>>>,
    /// `SUM(1) GROUP BY cat_k, cat_l` for `k < l`, indexed by the pair
    /// `(k, l)` with keys `(code_k, code_l)`.
    pub cat_pair_counts: HashMap<(usize, usize), HashMap<(i64, i64), f64>>,
}

impl SufficientStats {
    /// The second moment `SUM(ci * cj)` (symmetric).
    pub fn moment(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.q[i * (i + 1) / 2 + j]
    }

    /// Number of continuous attributes (including the response).
    pub fn n_cont(&self) -> usize {
        self.cont.len()
    }
}

/// Computes sufficient statistics through any [`Engine`] backend.
///
/// `continuous` must list the response last (as
/// [`fdb_datasets`-style feature sets do](SufficientStats::cont)).
pub fn sufficient_stats(
    db: &Database,
    relations: &[&str],
    continuous: &[&str],
    categorical: &[&str],
    engine: &dyn Engine,
) -> Result<SufficientStats, DataError> {
    let batch: AggBatch = covariance_batch(continuous, categorical);
    let q = AggQuery::new(relations, batch);
    let res = engine.run(db, &q)?;
    stats_from_result(&res, continuous, categorical)
}

/// Where one aggregate of the [`covariance_batch`] lands in
/// [`SufficientStats`].
#[derive(Debug, Clone, Copy)]
enum Field {
    Count,
    Sum(usize),
    /// `SUM(ci * cj)` with `i <= j`.
    Moment(usize, usize),
    CatCount(usize),
    /// `(categorical k, continuous i)`.
    CatSum(usize, usize),
    /// `(k, l)` with `k < l`, and whether the group key (sorted by
    /// attribute name) holds `l`'s code first.
    Pair(usize, usize, bool),
}

/// The [`covariance_batch`] over `n` continuous × `categorical` features,
/// aggregate by aggregate in generation order: `SUM(1)`; per continuous
/// `i` its sum, then its moments with every `j >= i`; per categorical a
/// count, then its `n` grouped sums; then the categorical pairs.
fn covariance_layout<S: AsRef<str>>(n: usize, categorical: &[S]) -> Vec<Field> {
    let m = categorical.len();
    let mut layout = Vec::with_capacity(covariance_len(n, m));
    layout.push(Field::Count);
    for i in 0..n {
        layout.push(Field::Sum(i));
        layout.extend((i..n).map(|j| Field::Moment(i, j)));
    }
    for k in 0..m {
        layout.push(Field::CatCount(k));
        layout.extend((0..n).map(|i| Field::CatSum(k, i)));
    }
    for k in 0..m {
        for l in k + 1..m {
            layout.push(Field::Pair(k, l, categorical[k].as_ref() > categorical[l].as_ref()));
        }
    }
    layout
}

/// Aggregates in the [`covariance_batch`] over `n` continuous × `m`
/// categorical features.
fn covariance_len(n: usize, m: usize) -> usize {
    1 + n + n * (n + 1) / 2 + m * (1 + n) + m * m.saturating_sub(1) / 2
}

fn check_len(res: &BatchResult, n: usize, m: usize) -> Result<(), DataError> {
    let want = covariance_len(n, m);
    if res.values.len() == want {
        return Ok(());
    }
    Err(DataError::Invalid(format!(
        "result carries {} aggregates but the covariance batch over {n} continuous × {m} \
         categorical features has {want}",
        res.values.len()
    )))
}

impl SufficientStats {
    /// Stores the value of `field`'s aggregate at group `key`; `None` (the
    /// result holds no such entry) is `0.0` for a scalar and no entry for a
    /// group.
    fn set(&mut self, field: Field, key: &[i64], v: Option<f64>) {
        fn put<K: Eq + Hash>(map: &mut HashMap<K, f64>, key: K, v: Option<f64>) {
            match v {
                Some(v) => map.insert(key, v),
                None => map.remove(&key),
            };
        }
        match field {
            Field::Count => self.count = v.unwrap_or(0.0),
            Field::Sum(i) => self.sum[i] = v.unwrap_or(0.0),
            Field::Moment(i, j) => self.q[j * (j + 1) / 2 + i] = v.unwrap_or(0.0),
            Field::CatCount(k) => put(&mut self.cat_counts[k], key[0], v),
            Field::CatSum(k, i) => put(&mut self.cat_cont_sums[k][i], key[0], v),
            Field::Pair(k, l, swap) => {
                let codes = if swap { (key[1], key[0]) } else { (key[0], key[1]) };
                put(self.cat_pair_counts.entry((k, l)).or_default(), codes, v);
            }
        }
    }
}

/// Assembles [`SufficientStats`] from an already computed result of the
/// [`covariance_batch`] over `continuous` × `categorical` — the seam the
/// delta layer trains through: a `MaintainableEngine::apply_delta` call
/// returns the maintained batch result, and this function (plus a `d×d`
/// solve) turns it into a refreshed model with no further data access.
/// [`patch_stats`] keeps the outcome current under later deltas.
pub fn stats_from_result(
    res: &BatchResult,
    continuous: &[&str],
    categorical: &[&str],
) -> Result<SufficientStats, DataError> {
    let (n, m) = (continuous.len(), categorical.len());
    check_len(res, n, m)?;
    let mut stats = SufficientStats {
        cont: continuous.iter().map(|s| s.to_string()).collect(),
        cat: categorical.iter().map(|s| s.to_string()).collect(),
        count: 0.0,
        sum: vec![0.0; n],
        q: vec![0.0; n * (n + 1) / 2],
        cat_counts: vec![HashMap::new(); m],
        cat_cont_sums: vec![vec![HashMap::new(); n]; m],
        cat_pair_counts: (0..m)
            .flat_map(|k| (k + 1..m).map(move |l| ((k, l), HashMap::new())))
            .collect(),
    };
    for (agg, field) in covariance_layout(n, categorical).into_iter().enumerate() {
        for (key, v) in res.grouped(agg) {
            stats.set(field, key, Some(*v));
        }
    }
    Ok(stats)
}

/// Brings `stats` — [`stats_from_result`] of a covariance answer — up to
/// date with `res`, that answer after a delta rewrote the entries
/// `changed` ([`MaintState::changed`](crate::MaintState::changed)). Only
/// those entries are touched, and the outcome equals
/// [`stats_from_result`] of `res` bit for bit.
pub fn patch_stats(
    stats: &mut SufficientStats,
    res: &BatchResult,
    changed: &Changed,
) -> Result<(), DataError> {
    check_len(res, stats.cont.len(), stats.cat.len())?;
    let layout = covariance_layout(stats.cont.len(), &stats.cat);
    for (agg, key) in changed {
        stats.set(layout[*agg], key, res.grouped(*agg).get(key).copied());
    }
    Ok(())
}

/// Computes the continuous block `(count, sums, moments)` with the
/// *factorized covariance-ring evaluator* instead of the LMFAO view engine
/// — one pass, one ring element (§5.2). Used to cross-check the two
/// engines against each other and by F-IVM.
pub fn cov_triple_factorized(
    db: &Database,
    relations: &[&str],
    continuous: &[&str],
) -> Result<CovTriple, DataError> {
    let spec = EvalSpec::new(db, relations, &[])?;
    let ring = CovRing::new(continuous.len());
    // For each relation: which continuous attributes it owns, with their
    // global indices and columns.
    let mut owned: Vec<Vec<(usize, usize)>> = Vec::with_capacity(relations.len());
    for (ri, _) in relations.iter().enumerate() {
        let rel = spec.relation(ri);
        let mut v = Vec::new();
        for (gi, attr) in continuous.iter().enumerate() {
            if let Ok(ci) = rel.schema().require(attr) {
                // Attribute ownership: continuous features are non-keys,
                // present in exactly one relation.
                v.push((gi, ci));
            }
        }
        owned.push(v);
    }
    let result = spec.eval(
        &ring,
        |_, _| ring.one(),
        |ri, rows| {
            let rel = spec.relation(ri);
            let mine = &owned[ri];
            let mut acc = ring.zero();
            let mut idx: Vec<usize> = Vec::with_capacity(mine.len());
            let mut vals: Vec<f64> = Vec::with_capacity(mine.len());
            for r in rows {
                idx.clear();
                vals.clear();
                for &(gi, ci) in mine {
                    idx.push(gi);
                    vals.push(rel.value_f64(r, ci));
                }
                // Fused lift + add: updates the triple in place without
                // materializing a dense intermediate per row.
                ring.add_lift_sparse(&mut acc, &idx, &vals);
            }
            acc
        },
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Aggregate;
    use fdb_datasets::{retailer, RetailerConfig};

    #[test]
    fn stats_unpack_in_generation_order() {
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let stats = sufficient_stats(
            &ds.db,
            &rels,
            &["prize", "maxtemp", "inventoryunits"],
            &["rain", "category"],
            &crate::backend::LmfaoEngine::default(),
        )
        .unwrap();
        assert!(stats.count > 0.0);
        assert_eq!(stats.sum.len(), 3);
        assert_eq!(stats.q.len(), 6);
        assert_eq!(stats.cat_counts.len(), 2);
        assert_eq!(stats.cat_cont_sums[0].len(), 3);
        assert!(stats.cat_pair_counts.contains_key(&(0, 1)));
        // Marginals must sum to the total count.
        let rain_total: f64 = stats.cat_counts[0].values().sum();
        assert!((rain_total - stats.count).abs() < 1e-6);
        // Pair counts must sum to the total count too.
        let pair_total: f64 = stats.cat_pair_counts[&(0, 1)].values().sum();
        assert!((pair_total - stats.count).abs() < 1e-6);
        // moment(i,j) is symmetric.
        assert_eq!(stats.moment(0, 2), stats.moment(2, 0));
    }

    /// The layout names, aggregate by aggregate, what `covariance_batch`
    /// generates, and its length is the arithmetic count.
    #[test]
    fn layout_follows_the_generated_batch() {
        let cont = ["c0", "c1", "c2", "c3"];
        let cat = ["x2", "x0", "x1"];
        for n in 0..=cont.len() {
            for m in 0..=cat.len() {
                let batch = covariance_batch(&cont[..n], &cat[..m]);
                let layout = covariance_layout(n, &cat[..m]);
                assert_eq!(covariance_len(n, m), batch.len(), "{n} × {m}");
                assert_eq!(layout.len(), batch.len(), "{n} × {m}");
                for (agg, field) in batch.aggs.iter().zip(layout) {
                    let want = match field {
                        Field::Count => Aggregate::count(),
                        Field::Sum(i) => Aggregate::sum(cont[i]),
                        Field::Moment(i, j) => Aggregate::sum_prod(cont[i], cont[j]),
                        Field::CatCount(k) => Aggregate::count().by(&[cat[k]]),
                        Field::CatSum(k, i) => Aggregate::sum(cont[i]).by(&[cat[k]]),
                        Field::Pair(k, l, swap) => {
                            assert_eq!(swap, cat[k] > cat[l]);
                            Aggregate::count().by(&[cat[k], cat[l]])
                        }
                    };
                    assert_eq!(*agg, want, "{n} × {m}: {field:?}");
                }
            }
        }
    }

    /// Pair statistics are keyed in feature order whatever the attribute
    /// names' order, which decides the group key's.
    #[test]
    fn pair_counts_are_keyed_in_feature_order() {
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let engine = crate::backend::LmfaoEngine::default();
        let cat = ["rain", "category"];
        let stats = sufficient_stats(&ds.db, &rels, &["prize"], &cat, &engine).unwrap();
        let mut batch = AggBatch::new();
        batch.push(Aggregate::count().by(&cat));
        let direct = engine.run(&ds.db, &AggQuery::new(&rels, batch)).unwrap();
        let pairs = &stats.cat_pair_counts[&(0, 1)];
        assert_eq!(pairs.len(), direct.grouped(0).len());
        for (key, v) in direct.grouped(0) {
            // The group key is sorted by name: (category, rain).
            assert_eq!(pairs[&(key[1], key[0])].to_bits(), v.to_bits(), "{key:?}");
        }
    }

    #[test]
    fn lmfao_and_covring_engines_agree() {
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let cont = ["prize", "maxtemp", "population", "inventoryunits"];
        let stats =
            sufficient_stats(&ds.db, &rels, &cont, &[], &crate::backend::LmfaoEngine::default())
                .unwrap();
        let triple = cov_triple_factorized(&ds.db, &rels, &cont).unwrap();
        assert!((stats.count - triple.c).abs() < 1e-6);
        for i in 0..cont.len() {
            let rel_err = (stats.sum[i] - triple.s[i]).abs() / (1.0 + triple.s[i].abs());
            assert!(rel_err < 1e-9, "sum {i}: {} vs {}", stats.sum[i], triple.s[i]);
            for j in 0..=i {
                let (a, b) = (stats.moment(i, j), triple.q_at(i, j));
                assert!((a - b).abs() / (1.0 + b.abs()) < 1e-9, "q {i},{j}: {a} vs {b}");
            }
        }
    }
}
