//! CART decision trees trained **in-database** (§2.2).
//!
//! Every node's split costs come from one aggregate batch over the join,
//! filtered by the node's conjunctive path condition and evaluated in a
//! single shared pass; the data matrix is never materialized. The batch
//! holds the node totals plus **one histogram per feature**: `SUM(1)`,
//! `SUM(y)`, `SUM(y²)` (regression, variance) or class counts
//! (classification, Gini), grouped by the bucket of a continuous feature
//! among its thresholds ([`GroupKey::Bucket`]) or by a categorical
//! feature's code. The yes-side of `x ≥ t_j` is then the suffix sum of the
//! buckets above `t_j`, and the yes-side of `x = v` is group `v` — the
//! sharing LMFAO's decision-tree batches exploit (§4), where asking for
//! every candidate condition as its own filtered aggregate would cost one
//! aggregate per threshold.
//!
//! Candidate thresholds are fixed up-front from the global feature
//! distribution, "decided in advance based on the distribution of values"
//! exactly as the paper prescribes.

use crate::reuse::ViewReuse;
use fdb_core::{AggBatch, AggQuery, Aggregate, BatchResult, Engine, FilterOp, GroupKey};
use fdb_data::{DataError, Database, Relation};
use std::collections::{BTreeMap, HashMap};

/// Tree-fitting configuration.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum join tuples per leaf.
    pub min_samples: f64,
    /// Candidate thresholds per continuous feature.
    pub thresholds: usize,
    /// Minimum cost improvement to accept a split.
    pub min_gain: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 4, min_samples: 32.0, thresholds: 8, min_gain: 1e-6 }
    }
}

/// A split condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Split {
    /// `attr >= t` (left = yes).
    Ge(String, f64),
    /// `attr = code` (left = yes).
    Eq(String, i64),
}

impl Split {
    fn yes(&self) -> (String, FilterOp) {
        match self {
            Split::Ge(a, t) => (a.clone(), FilterOp::Ge(*t)),
            Split::Eq(a, v) => (a.clone(), FilterOp::Eq(*v)),
        }
    }

    fn no(&self) -> (String, FilterOp) {
        match self {
            Split::Ge(a, t) => (a.clone(), FilterOp::Lt(*t)),
            Split::Eq(a, v) => (a.clone(), FilterOp::Ne(*v)),
        }
    }
}

/// A tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// A leaf predicting a value (regression: mean; classification: the
    /// majority class code as `f64`).
    Leaf {
        /// Predicted value.
        prediction: f64,
        /// Join tuples that reached this leaf during training.
        count: f64,
    },
    /// An internal split node.
    Split {
        /// The condition; `left` is the yes-branch.
        split: Split,
        /// Yes branch.
        left: Box<Node>,
        /// No branch.
        right: Box<Node>,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// The root node.
    pub root: Node,
    /// Number of engine batches run during training (one per tree node).
    pub batches_run: usize,
    /// View-cache reuse observed across the whole training: per-node
    /// batches share every subtree view a node's split filters do not
    /// touch (residual-filter reuse), so with the LMFAO engine the
    /// trainer rescans strictly fewer views than
    /// `batches × views-per-batch`. Zero on engines that do not use the
    /// view cache.
    pub view_reuse: ViewReuse,
}

struct Fitter<'a> {
    db: &'a Database,
    rels: Vec<&'a str>,
    response: &'a str,
    families: Vec<Family>,
    cfg: TreeConfig,
    engine: &'a dyn Engine,
    batches_run: usize,
    classification: bool,
}

impl DecisionTree {
    /// Fits a regression tree over the natural join of `relations`.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_regression(
        db: &Database,
        relations: &[&str],
        continuous: &[&str],
        categorical: &[&str],
        response: &str,
        cfg: TreeConfig,
        engine: &dyn Engine,
    ) -> Result<Self, DataError> {
        Self::fit_impl(db, relations, continuous, categorical, response, cfg, engine, false)
    }

    /// Fits a classification tree; `response` must be a categorical
    /// attribute (class codes). Costs use the Gini index from grouped
    /// counts.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_classification(
        db: &Database,
        relations: &[&str],
        continuous: &[&str],
        categorical: &[&str],
        response: &str,
        cfg: TreeConfig,
        engine: &dyn Engine,
    ) -> Result<Self, DataError> {
        Self::fit_impl(db, relations, continuous, categorical, response, cfg, engine, true)
    }

    /// Shared trainer body: candidate construction + recursive node
    /// fitting, wrapped in view-reuse accounting.
    #[allow(clippy::too_many_arguments)]
    fn fit_impl(
        db: &Database,
        relations: &[&str],
        continuous: &[&str],
        categorical: &[&str],
        response: &str,
        cfg: TreeConfig,
        engine: &dyn Engine,
        classification: bool,
    ) -> Result<Self, DataError> {
        let (fitted, view_reuse) = ViewReuse::measure(|| -> Result<_, DataError> {
            let families =
                candidate_families(db, relations, continuous, categorical, cfg.thresholds, engine)?;
            let mut fitter = Fitter {
                db,
                rels: relations.to_vec(),
                response,
                families,
                cfg,
                engine,
                batches_run: 0,
                classification,
            };
            let root = fitter.fit_node(vec![], 0)?;
            Ok((root, fitter.batches_run))
        });
        let (root, batches_run) = fitted?;
        Ok(Self { root, batches_run, view_reuse })
    }

    /// Predicts for row `row` of a flat relation carrying the feature
    /// attributes.
    pub fn predict_row(&self, rel: &Relation, row: usize) -> Result<f64, DataError> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { prediction, .. } => return Ok(*prediction),
                Node::Split { split, left, right } => {
                    let yes = match split {
                        Split::Ge(a, t) => rel.value_f64(row, rel.schema().require(a)?) >= *t,
                        Split::Eq(a, v) => rel.value(row, rel.schema().require(a)?).as_int() == *v,
                    };
                    node = if yes { left } else { right };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        fn rec(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => rec(left) + rec(right),
            }
        }
        rec(&self.root)
    }
}

/// Relative cost difference below which two candidate splits tie.
pub const COST_TIE: f64 = 1e-10;

/// The candidate splits on one feature and the group-by key whose
/// histogram answers them all: `Bucket(x, t_0..t_k)` for the thresholds
/// `x ≥ t_j` of a continuous feature, `x` for the codes `x = v` of a
/// categorical one.
struct Family {
    key: GroupKey,
    splits: Vec<Split>,
}

impl Family {
    /// Per split, its yes-side statistic from the family's histogram
    /// `hist` (group code → statistic; absent codes are empty). Threshold
    /// `j` takes the suffix over bucket codes `≥ j + 1`, since a bucket code
    /// counts the thresholds at or below the value; a code `v` takes group
    /// `v`.
    fn yes_sides<T: Clone + Default>(
        &self,
        hist: &HashMap<i64, T>,
        add: impl Fn(&mut T, &T),
    ) -> Vec<T> {
        match &self.key {
            GroupKey::Bucket { cuts, .. } => {
                let mut yes = vec![T::default(); cuts.len()];
                let mut acc = T::default();
                for code in (1..=cuts.len()).rev() {
                    if let Some(h) = hist.get(&(code as i64)) {
                        add(&mut acc, h);
                    }
                    yes[code - 1] = acc.clone();
                }
                yes
            }
            GroupKey::Attr(_) => self
                .splits
                .iter()
                .map(|s| match s {
                    Split::Eq(_, v) => hist.get(v).cloned().unwrap_or_default(),
                    Split::Ge(..) => unreachable!("categorical families hold equalities"),
                })
                .collect(),
        }
    }
}

/// Builds the global candidate families: equi-spaced thresholds within
/// mean ± 2σ per continuous attribute (from one statistics batch), plus
/// per-category equality conditions for categorical attributes. A
/// continuous attribute whose mean or σ is not finite gets no candidates.
fn candidate_families(
    db: &Database,
    relations: &[&str],
    continuous: &[&str],
    categorical: &[&str],
    thresholds: usize,
    engine: &dyn Engine,
) -> Result<Vec<Family>, DataError> {
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    for c in continuous {
        batch.push(Aggregate::sum(c));
        batch.push(Aggregate::sum_prod(c, c));
    }
    for x in categorical {
        batch.push(Aggregate::count().by(&[x]));
    }
    let res = engine.run(db, &AggQuery::new(relations, batch))?;
    let n = res.scalar(0).max(1.0);
    let mut out = Vec::new();
    for (i, c) in continuous.iter().enumerate() {
        let mean = res.scalar(1 + 2 * i) / n;
        let var = (res.scalar(2 + 2 * i) / n - mean * mean).max(0.0);
        let std = var.sqrt();
        if thresholds == 0 || !mean.is_finite() || !std.is_finite() {
            continue;
        }
        let cuts: Vec<f64> = (0..thresholds)
            .map(|j| {
                let frac = (j as f64 + 1.0) / (thresholds as f64 + 1.0);
                mean - 2.0 * std + 4.0 * std * frac
            })
            .collect();
        let splits = cuts.iter().map(|&t| Split::Ge(c.to_string(), t)).collect();
        out.push(Family { key: GroupKey::Bucket { attr: c.to_string(), cuts }, splits });
    }
    for (k, x) in categorical.iter().enumerate() {
        let idx = 1 + 2 * continuous.len() + k;
        let mut codes: Vec<i64> = res.grouped(idx).keys().map(|key| key[0]).collect();
        codes.sort_unstable();
        codes.truncate(16);
        if codes.is_empty() {
            continue;
        }
        let splits = codes.into_iter().map(|v| Split::Eq(x.to_string(), v)).collect();
        out.push(Family { key: GroupKey::Attr(x.to_string()), splits });
    }
    Ok(out)
}

/// The global candidate splits in the order the trainer considers them
/// (ties in cost go to the earlier candidate): per continuous attribute
/// its thresholds ascending, then per categorical attribute its first 16
/// codes ascending.
pub fn candidate_splits(
    db: &Database,
    relations: &[&str],
    continuous: &[&str],
    categorical: &[&str],
    thresholds: usize,
    engine: &dyn Engine,
) -> Result<Vec<Split>, DataError> {
    let families = candidate_families(db, relations, continuous, categorical, thresholds, engine)?;
    Ok(families.into_iter().flat_map(|f| f.splits).collect())
}

/// `agg` with `key` appended to its group-by.
fn grouped(mut agg: Aggregate, key: &GroupKey) -> Aggregate {
    agg.group_by.push(key.clone());
    agg
}

/// The position of the key named `name` in aggregate `i`'s result keys.
fn key_pos(res: &BatchResult, i: usize, name: &str) -> usize {
    res.groups[i].iter().position(|g| g == name).expect("the aggregate groups by the key")
}

impl<'a> Fitter<'a> {
    /// Fits the node whose population satisfies `path` (a conjunction of
    /// split conditions), using one batch for all candidates.
    fn fit_node(&mut self, path: Vec<(String, FilterOp)>, depth: usize) -> Result<Node, DataError> {
        if self.classification {
            self.fit_node_gini(path, depth)
        } else {
            self.fit_node_variance(path, depth)
        }
    }

    fn with_path(&self, mut agg: Aggregate, path: &[(String, FilterOp)]) -> Aggregate {
        for (a, op) in path {
            agg = agg.filtered(a, op.clone());
        }
        agg
    }

    /// The lowest-cost candidate among those leaving at least
    /// `min_samples` tuples on both sides: `yes[f][j]` is the yes-side
    /// statistic of split `j` of family `f`, `count` its two sides' tuple
    /// counts and `cost` their total cost. Costs within [`COST_TIE`] of
    /// each other tie, and ties go to the earlier candidate: two
    /// candidates that cut the join into the same two sides sum their
    /// histograms over different buckets, so their costs may differ in the
    /// last bits only.
    fn best_split<T>(
        &self,
        yes: &[Vec<T>],
        count: impl Fn(&T) -> (f64, f64),
        cost: impl Fn(&T) -> f64,
    ) -> Option<(Split, f64)> {
        let mut best: Option<(&Split, f64)> = None;
        for (fam, ys) in self.families.iter().zip(yes) {
            for (split, y) in fam.splits.iter().zip(ys) {
                let (ny, nn) = count(y);
                if ny < self.cfg.min_samples || nn < self.cfg.min_samples {
                    continue;
                }
                let c = cost(y);
                if best.is_none_or(|(_, b)| c < b - COST_TIE * b.abs()) {
                    best = Some((split, c));
                }
            }
        }
        best.map(|(s, c)| (s.clone(), c))
    }

    /// Recurses into both sides of `split` below the node at `path`.
    fn split_node(
        &mut self,
        split: Split,
        path: Vec<(String, FilterOp)>,
        depth: usize,
    ) -> Result<Node, DataError> {
        let mut left_path = path.clone();
        left_path.push(split.yes());
        let mut right_path = path;
        right_path.push(split.no());
        let left = self.fit_node(left_path, depth + 1)?;
        let right = self.fit_node(right_path, depth + 1)?;
        Ok(Node::Split { split, left: Box::new(left), right: Box::new(right) })
    }

    fn fit_node_variance(
        &mut self,
        path: Vec<(String, FilterOp)>,
        depth: usize,
    ) -> Result<Node, DataError> {
        let y = self.response;
        // Batch: node totals + per-family {COUNT, SUM(y), SUM(y²)} histograms.
        let mut batch = AggBatch::new();
        batch.push(self.with_path(Aggregate::count(), &path));
        batch.push(self.with_path(Aggregate::sum(y), &path));
        batch.push(self.with_path(Aggregate::sum_prod(y, y), &path));
        for fam in &self.families {
            for agg in [Aggregate::count(), Aggregate::sum(y), Aggregate::sum_prod(y, y)] {
                batch.push(self.with_path(grouped(agg, &fam.key), &path));
            }
        }
        let res = self.engine.run(self.db, &AggQuery::new(&self.rels, batch))?;
        self.batches_run += 1;
        let (n, s, ss) = (res.scalar(0), res.scalar(1), res.scalar(2));
        let sse = |n: f64, s: f64, ss: f64| if n > 0.0 { ss - s * s / n } else { 0.0 };
        let node_sse = sse(n, s, ss);
        let prediction = if n > 0.0 { s / n } else { 0.0 };
        let leaf = Node::Leaf { prediction, count: n };
        if depth >= self.cfg.max_depth || n < 2.0 * self.cfg.min_samples {
            return Ok(leaf);
        }
        let yes: Vec<Vec<[f64; 3]>> = self
            .families
            .iter()
            .enumerate()
            .map(|(f, fam)| {
                let mut hist: HashMap<i64, [f64; 3]> = HashMap::new();
                for m in 0..3 {
                    for (key, v) in res.grouped(3 + 3 * f + m) {
                        hist.entry(key[0]).or_default()[m] = *v;
                    }
                }
                fam.yes_sides(&hist, |acc, h| {
                    for m in 0..3 {
                        acc[m] += h[m];
                    }
                })
            })
            .collect();
        // Pick the best candidate by total SSE of the two sides.
        let best = self.best_split(
            &yes,
            |&[ny, ..]| (ny, n - ny),
            |&[ny, sy, ssy]| sse(ny, sy, ssy) + sse(n - ny, s - sy, ss - ssy),
        );
        let Some((split, cost)) = best else {
            return Ok(leaf);
        };
        if node_sse - cost < self.cfg.min_gain * node_sse.max(1.0) {
            return Ok(leaf);
        }
        self.split_node(split, path, depth)
    }

    fn fit_node_gini(
        &mut self,
        path: Vec<(String, FilterOp)>,
        depth: usize,
    ) -> Result<Node, DataError> {
        let y = self.response;
        // Batch: node class counts + per-family class-count histograms.
        let mut batch = AggBatch::new();
        batch.push(self.with_path(Aggregate::count().by(&[y]), &path));
        for fam in &self.families {
            batch.push(self.with_path(grouped(Aggregate::count().by(&[y]), &fam.key), &path));
        }
        let res = self.engine.run(self.db, &AggQuery::new(&self.rels, batch))?;
        self.batches_run += 1;
        // Class maps are ordered, so sums over them (and the majority's
        // tie-break) do not depend on hash order.
        let totals: BTreeMap<i64, f64> = res.grouped(0).iter().map(|(k, v)| (k[0], *v)).collect();
        let n: f64 = totals.values().sum();
        let gini = |counts: &BTreeMap<i64, f64>| -> f64 {
            let m: f64 = counts.values().sum();
            if m <= 0.0 {
                return 0.0;
            }
            m * (1.0 - counts.values().map(|c| (c / m).powi(2)).sum::<f64>())
        };
        // Tied counts go to the smallest class code.
        let majority = totals
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(k, _)| *k)
            .unwrap_or(0) as f64;
        let leaf = Node::Leaf { prediction: majority, count: n };
        if depth >= self.cfg.max_depth || n < 2.0 * self.cfg.min_samples {
            return Ok(leaf);
        }
        let node_gini = gini(&totals);
        let yes: Vec<Vec<BTreeMap<i64, f64>>> = self
            .families
            .iter()
            .enumerate()
            .map(|(f, fam)| {
                let (ypos, xpos) = (key_pos(&res, 1 + f, y), key_pos(&res, 1 + f, &fam.key.name()));
                let mut hist: HashMap<i64, BTreeMap<i64, f64>> = HashMap::new();
                for (key, v) in res.grouped(1 + f) {
                    hist.entry(key[xpos]).or_default().insert(key[ypos], *v);
                }
                fam.yes_sides(&hist, |acc, h| {
                    for (k, v) in h {
                        *acc.entry(*k).or_insert(0.0) += v;
                    }
                })
            })
            .collect();
        let no = |yes: &BTreeMap<i64, f64>| -> BTreeMap<i64, f64> {
            totals.iter().map(|(k, v)| (*k, v - yes.get(k).copied().unwrap_or(0.0))).collect()
        };
        let best = self.best_split(
            &yes,
            |ys| {
                let ny: f64 = ys.values().sum();
                (ny, no(ys).values().sum())
            },
            |ys| gini(ys) + gini(&no(ys)),
        );
        let Some((split, cost)) = best else {
            return Ok(leaf);
        };
        if node_gini - cost < self.cfg.min_gain * node_gini.max(1.0) {
            return Ok(leaf);
        }
        self.split_node(split, path, depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_datasets::{retailer, RetailerConfig};
    use fdb_query::natural_join_all;

    #[test]
    fn regression_tree_reduces_sse_over_mean() {
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let tree = DecisionTree::fit_regression(
            &ds.db,
            &rels,
            &["prize", "maxtemp"],
            &["rain"],
            "inventoryunits",
            TreeConfig { max_depth: 3, min_samples: 8.0, thresholds: 6, min_gain: 1e-9 },
            &fdb_core::LmfaoEngine::default(),
        )
        .unwrap();
        assert!(tree.leaves() >= 2, "tree must split at least once");
        assert!(tree.batches_run >= 3);
        // Evaluate on the materialized join.
        let flat = natural_join_all(&ds.db, &rels).unwrap();
        let ycol = flat.schema().require("inventoryunits").unwrap();
        let mean: f64 =
            (0..flat.len()).map(|r| flat.value_f64(r, ycol)).sum::<f64>() / flat.len() as f64;
        let mut sse_tree = 0.0;
        let mut sse_mean = 0.0;
        for r in 0..flat.len() {
            let y = flat.value_f64(r, ycol);
            let p = tree.predict_row(&flat, r).unwrap();
            sse_tree += (y - p).powi(2);
            sse_mean += (y - mean).powi(2);
        }
        assert!(sse_tree < 0.9 * sse_mean, "tree SSE {sse_tree} must beat mean SSE {sse_mean}");
    }

    #[test]
    fn classification_tree_predicts_rain_from_snowy_temps() {
        // Predict the categorical `rain` from weather features: not
        // perfectly learnable, but the tree must beat always-majority.
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let tree = DecisionTree::fit_classification(
            &ds.db,
            &rels,
            &["maxtemp", "mintemp"],
            &["snow"],
            "rain",
            TreeConfig { max_depth: 2, min_samples: 8.0, thresholds: 4, min_gain: 0.0 },
            &fdb_core::LmfaoEngine::default(),
        )
        .unwrap();
        // Structure sanity: predictions are class codes.
        let flat = natural_join_all(&ds.db, &rels).unwrap();
        for r in (0..flat.len()).step_by(97) {
            let p = tree.predict_row(&flat, r).unwrap();
            assert!(p == 0.0 || p == 1.0);
        }
    }

    #[test]
    fn gini_leaf_ties_go_to_the_smallest_class_code() {
        use fdb_data::{AttrType, Schema, Value};
        // Six classes, two rows each: every class ties, and a depth-0 tree
        // is one leaf. Each fit builds fresh hash maps, so a hash-ordered
        // tie-break would wander between fits.
        let mut rel =
            Relation::new(Schema::of(&[("y", AttrType::Categorical), ("x", AttrType::Double)]));
        for code in [9i64, 4, 7, 5, 12, 6] {
            for x in [0.0, 1.0] {
                rel.push_row(&[Value::Int(code), Value::F64(x)]).unwrap();
            }
        }
        let mut db = Database::new();
        db.add("F", rel);
        for _ in 0..20 {
            let tree = DecisionTree::fit_classification(
                &db,
                &["F"],
                &["x"],
                &[],
                "y",
                TreeConfig { max_depth: 0, ..TreeConfig::default() },
                &fdb_core::FlatEngine,
            )
            .unwrap();
            match tree.root {
                Node::Leaf { prediction, count } => {
                    assert_eq!((prediction, count), (4.0, 12.0));
                }
                Node::Split { .. } => panic!("a depth-0 tree is a leaf"),
            }
        }
    }

    #[test]
    fn features_without_finite_moments_get_no_candidates() {
        use fdb_data::{AttrType, Schema, Value};
        let mut rel = Relation::new(Schema::of(&[
            ("x", AttrType::Double),
            ("z", AttrType::Double),
            ("y", AttrType::Double),
        ]));
        for i in 0..40 {
            let z = if i == 3 { f64::INFINITY } else { i as f64 };
            rel.push_row(&[Value::F64(i as f64), Value::F64(z), Value::F64(i as f64)]).unwrap();
        }
        let mut db = Database::new();
        db.add("F", rel);
        let cands =
            candidate_splits(&db, &["F"], &["z", "x"], &[], 4, &fdb_core::FlatEngine).unwrap();
        assert_eq!(cands.len(), 4);
        assert!(cands.iter().all(|c| matches!(c, Split::Ge(a, t) if a == "x" && t.is_finite())));
    }

    #[test]
    fn factorized_fit_sorts_each_relation_at_most_once_per_order() {
        // The trainer runs one aggregate batch per tree node; the sort
        // cache must keep the sort bill independent of the node count:
        // bounded by distinct (relation, column order) pairs — at most one
        // per relation per group-by set — and a repeated fit sorts nothing.
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let cache = fdb_data::SortCache::global();
        // This dataset instance is fresh (new relation identities), so the
        // per-relation stats below are attributable to this test alone.
        // The zero-re-sort assertion additionally relies on this test being
        // the only FactorizedEngine user in the fdb-ml test binary: heavy
        // concurrent churn could FIFO-evict the entries between fits. If
        // another test starts driving the factorized engine, switch this
        // accounting to a private `SortCache` via `EvalSpec::new_with_cache`
        // (see tests/engines_agree.rs).
        let sorts =
            || -> u64 { rels.iter().map(|r| cache.stats_for(ds.db.get(r).unwrap()).1).sum() };
        let cfg = TreeConfig { max_depth: 3, min_samples: 8.0, thresholds: 4, min_gain: 1e-9 };
        let fit = || {
            DecisionTree::fit_regression(
                &ds.db,
                &rels,
                &["prize", "maxtemp"],
                &["rain"],
                "inventoryunits",
                cfg,
                &fdb_core::FactorizedEngine::new(),
            )
            .unwrap()
        };
        let tree = fit();
        let after_first = sorts();
        // Two group-by sets appear (scalar node batches + the per-category
        // candidate stats), so ≤ 2 column orders per relation.
        assert!(tree.batches_run >= 3, "one batch per node");
        assert!(
            after_first <= 2 * rels.len() as u64,
            "sorts ({after_first}) must not scale with the {} batches",
            tree.batches_run
        );
        let tree2 = fit();
        assert_eq!(sorts(), after_first, "an identical fit re-sorts nothing");
        assert_eq!(tree2.leaves(), tree.leaves());
    }

    #[test]
    fn lmfao_fit_reuses_subtree_views_across_nodes_and_fits() {
        // One aggregate batch per tree node over the same join tree: the
        // view cache must serve every subtree a node's split filters do
        // not touch. Attribution uses per-content-id stats on a fresh
        // dataset instance, so concurrent cache users cannot skew it.
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let cache = fdb_core::ViewCache::global();
        let counts = || -> (u64, u64) {
            rels.iter()
                .map(|r| cache.stats_for_id(ds.db.get(r).unwrap().data_id()))
                .fold((0, 0), |(a, b), (h, m)| (a + h, b + m))
        };
        let engine = fdb_core::LmfaoEngine::with_config(fdb_core::EngineConfig {
            threads: 1,
            ..Default::default()
        });
        let cfg = TreeConfig { max_depth: 3, min_samples: 8.0, thresholds: 4, min_gain: 1e-9 };
        let fit = || {
            DecisionTree::fit_regression(
                &ds.db,
                &rels,
                &["prize", "maxtemp"],
                &["rain"],
                "inventoryunits",
                cfg,
                &engine,
            )
            .unwrap()
        };
        let t1 = fit();
        let (reused1, scanned1) = counts();
        assert!(t1.batches_run >= 3, "one batch per node");
        assert!(reused1 > 0, "residual subtrees served from cache across nodes");
        assert!(t1.view_reuse.views_rescanned > 0, "a cold fit scans something");
        // An identical second fit is fully served — zero rescans.
        let t2 = fit();
        let (reused2, scanned2) = counts();
        assert_eq!(scanned2, scanned1, "identical fit rescans nothing");
        assert!(reused2 > reused1, "second fit served from cache");
        assert!(t2.view_reuse.views_reused > 0);
        assert_eq!(t2.leaves(), t1.leaves());
    }

    #[test]
    fn leaf_counts_partition_the_population() {
        let ds = retailer(RetailerConfig::tiny());
        let rels: Vec<&str> = ds.relation_refs();
        let tree = DecisionTree::fit_regression(
            &ds.db,
            &rels,
            &["prize"],
            &[],
            "inventoryunits",
            TreeConfig { max_depth: 2, min_samples: 4.0, thresholds: 4, min_gain: 0.0 },
            &fdb_core::LmfaoEngine::default(),
        )
        .unwrap();
        fn leaf_total(n: &Node) -> f64 {
            match n {
                Node::Leaf { count, .. } => *count,
                Node::Split { left, right, .. } => leaf_total(left) + leaf_total(right),
            }
        }
        let flat = natural_join_all(&ds.db, &rels).unwrap();
        assert!((leaf_total(&tree.root) - flat.len() as f64).abs() < 1e-6);
    }
}
