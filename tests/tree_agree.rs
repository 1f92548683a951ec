//! The histogram CART trainer against a per-candidate reference.
//!
//! `DecisionTree` asks each node for one bucketed histogram per feature and
//! reads every candidate's yes-side off suffix sums. The reference below
//! asks the classical oracle for every candidate condition as its own
//! filtered aggregate, the way the paper states the node batch, and picks
//! the split by the same rule. At every node of every fitted tree — on
//! Retailer (tiny, and ×0.02 on three seeds) and on a random snowflake,
//! regression and Gini alike — the trainer must pick the reference's
//! split, and each leaf's count and prediction must match within rel 1e-9.

use fdb::lmfao::{eval_agg, to_scan_query};
use fdb::ml::tree::{candidate_splits, Node, Split, TreeConfig, COST_TIE};
use fdb::ml::DecisionTree;
use fdb::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One training problem and the reference's view of it.
#[derive(Clone)]
struct Problem<'a> {
    db: &'a Database,
    rels: Vec<&'a str>,
    continuous: Vec<&'a str>,
    categorical: Vec<&'a str>,
    response: &'a str,
    cfg: TreeConfig,
    classification: bool,
}

/// The reference node decision: a leaf `(prediction, count)` or a split.
enum Decision {
    Leaf(f64, f64),
    Split(Split),
}

fn cond(split: &Split, yes: bool) -> (String, FilterOp) {
    match (split, yes) {
        (Split::Ge(a, t), true) => (a.clone(), FilterOp::Ge(*t)),
        (Split::Ge(a, t), false) => (a.clone(), FilterOp::Lt(*t)),
        (Split::Eq(a, v), true) => (a.clone(), FilterOp::Eq(*v)),
        (Split::Eq(a, v), false) => (a.clone(), FilterOp::Ne(*v)),
    }
}

/// The reference node evaluator: per candidate, its yes-side filtered by
/// the path, each through `classical` over the materialized join `flat`.
fn reference(
    p: &Problem,
    flat: &Relation,
    cands: &[Split],
    path: &[(String, FilterOp)],
    depth: usize,
) -> Decision {
    let y = p.response;
    let run = |mut agg: Aggregate, extra: Option<(String, FilterOp)>| -> BTreeMap<i64, f64> {
        agg.filter.extend(path.iter().cloned().chain(extra));
        let res = eval_agg(flat, &to_scan_query(&agg)).unwrap();
        res.into_iter()
            .filter(|(_, v)| *v != 0.0)
            .map(|(k, v)| (k.first().map_or(0, |x| x.as_int()), v))
            .collect()
    };
    // Per class (Gini) or per moment (variance: 0 = n, 1 = Σy, 2 = Σy²).
    let stats = |extra: Option<(String, FilterOp)>| -> BTreeMap<i64, f64> {
        if p.classification {
            return run(Aggregate::count().by(&[y]), extra);
        }
        let aggs = [Aggregate::count(), Aggregate::sum(y), Aggregate::sum_prod(y, y)];
        (0..3)
            .map(|m| {
                (m as i64, run(aggs[m].clone(), extra.clone()).get(&0).copied().unwrap_or(0.0))
            })
            .collect()
    };
    let sum = |m: &BTreeMap<i64, f64>| m.values().sum::<f64>();
    let cost = |m: &BTreeMap<i64, f64>| -> f64 {
        if p.classification {
            let t = sum(m);
            return if t > 0.0 {
                t * (1.0 - m.values().map(|c| (c / t).powi(2)).sum::<f64>())
            } else {
                0.0
            };
        }
        let (n, s, ss) = (m[&0], m[&1], m[&2]);
        if n > 0.0 {
            ss - s * s / n
        } else {
            0.0
        }
    };
    let size = |m: &BTreeMap<i64, f64>| if p.classification { sum(m) } else { m[&0] };
    let total = stats(None);
    let n = size(&total);
    let leaf = if p.classification {
        let majority = total.iter().max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)));
        Decision::Leaf(majority.map_or(0, |(k, _)| *k) as f64, n)
    } else {
        Decision::Leaf(if n > 0.0 { total[&1] / n } else { 0.0 }, n)
    };
    if depth >= p.cfg.max_depth || n < 2.0 * p.cfg.min_samples {
        return leaf;
    }
    let mut best: Option<(&Split, f64)> = None;
    for cand in cands {
        let yes = stats(Some(cond(cand, true)));
        let no: BTreeMap<i64, f64> =
            total.iter().map(|(k, v)| (*k, v - yes.get(k).copied().unwrap_or(0.0))).collect();
        if size(&yes) < p.cfg.min_samples || size(&no) < p.cfg.min_samples {
            continue;
        }
        let c = cost(&yes) + cost(&no);
        if best.is_none_or(|(_, b)| c < b - COST_TIE * b.abs()) {
            best = Some((cand, c));
        }
    }
    let node_cost = cost(&total);
    match best {
        Some((split, c)) if node_cost - c >= p.cfg.min_gain * node_cost.max(1.0) => {
            Decision::Split(split.clone())
        }
        _ => leaf,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Walks `node` against the reference; returns the number of nodes checked.
fn check(
    p: &Problem,
    flat: &Relation,
    cands: &[Split],
    node: &Node,
    path: Vec<(String, FilterOp)>,
    depth: usize,
    tag: &str,
) -> usize {
    match (node, reference(p, flat, cands, &path, depth)) {
        (Node::Leaf { prediction, count }, Decision::Leaf(want_p, want_n)) => {
            assert!(close(*count, want_n), "{tag} {path:?}: leaf count {count} vs {want_n}");
            assert!(
                close(*prediction, want_p),
                "{tag} {path:?}: prediction {prediction} vs {want_p}"
            );
            1
        }
        (Node::Split { split, left, right }, Decision::Split(want)) => {
            assert_eq!(split, &want, "{tag} {path:?}: split");
            let mut yes = path.clone();
            yes.push(cond(split, true));
            let mut no = path;
            no.push(cond(split, false));
            1 + check(p, flat, cands, left, yes, depth + 1, tag)
                + check(p, flat, cands, right, no, depth + 1, tag)
        }
        (Node::Leaf { .. }, Decision::Split(want)) => {
            panic!("{tag} {path:?}: leaf, reference splits on {want:?}")
        }
        (Node::Split { split, .. }, Decision::Leaf(..)) => {
            panic!("{tag} {path:?}: split {split:?}, reference is a leaf")
        }
    }
}

/// Fits `p` through `engine` and checks every node against the reference.
fn assert_tree_agrees(p: &Problem, engine: &dyn Engine, tag: &str) {
    let (rels, cont, cat) = (&p.rels, &p.continuous, &p.categorical);
    let tree = if p.classification {
        DecisionTree::fit_classification(p.db, rels, cont, cat, p.response, p.cfg, engine)
    } else {
        DecisionTree::fit_regression(p.db, rels, cont, cat, p.response, p.cfg, engine)
    }
    .unwrap();
    let cands =
        candidate_splits(p.db, &p.rels, &p.continuous, &p.categorical, p.cfg.thresholds, engine)
            .unwrap();
    let flat = fdb::query::natural_join_all(p.db, &p.rels).unwrap();
    let nodes = check(p, &flat, &cands, &tree.root, vec![], 0, tag);
    assert_eq!(nodes, tree.batches_run, "{tag}: one batch per node");
    assert!(tree.leaves() >= 2, "{tag}: the tree splits");
}

/// Retailer problems: regression on `inventoryunits`, and Gini on `rain`
/// from the other features.
fn retailer_problems(ds: &fdb::datasets::Dataset, cfg: TreeConfig) -> [Problem<'_>; 2] {
    let f = &ds.features;
    let regression = Problem {
        db: &ds.db,
        rels: ds.relation_refs(),
        continuous: f.continuous.iter().map(String::as_str).collect(),
        categorical: f.categorical.iter().map(String::as_str).collect(),
        response: &f.response,
        cfg,
        classification: false,
    };
    let gini = Problem {
        categorical: regression.categorical.iter().copied().filter(|c| *c != "rain").collect(),
        response: "rain",
        classification: true,
        ..regression.clone()
    };
    [regression, gini]
}

#[test]
fn histogram_trees_match_the_reference_on_retailer_tiny() {
    let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig::tiny());
    let cfg = TreeConfig { max_depth: 4, min_samples: 8.0, thresholds: 8, min_gain: 1e-9 };
    for p in retailer_problems(&ds, cfg) {
        let tag = format!("tiny gini={}", p.classification);
        assert_tree_agrees(&p, &DispatchEngine::new(), &tag);
        assert_tree_agrees(&p, &LmfaoEngine::with_config(EngineConfig::sequential()), &tag);
    }
}

#[test]
fn histogram_trees_match_the_reference_on_retailer_scaled() {
    let cfg = TreeConfig { max_depth: 3, min_samples: 16.0, thresholds: 4, min_gain: 1e-9 };
    for seed in [1, 2, 3] {
        let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig {
            seed,
            ..fdb::datasets::RetailerConfig::scaled(0.02)
        });
        for p in retailer_problems(&ds, cfg) {
            assert_tree_agrees(
                &p,
                &DispatchEngine::new(),
                &format!("x0.02 seed {seed} gini={}", p.classification),
            );
        }
    }
}

/// A random snowflake F(a, b, c, x, y) ⋈ D1(a, w, u) ⋈ D2(b, v): the
/// response `y` follows `x`, `u` and `w` plus noise; `c` is a class.
fn random_snowflake(seed: u64) -> Database {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut f = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("c", AttrType::Categorical),
        ("x", AttrType::Double),
        ("y", AttrType::Double),
    ]));
    let u_of = |a: i64| (a % 7) as f64 * 0.75 - 2.0;
    for _ in 0..600 {
        let (a, b) = (rng.gen_range(0..12i64), rng.gen_range(0..6i64));
        let x: f64 = rng.gen_range(-3.0..3.0);
        let y = 2.0 * x + u_of(a) + (a % 2) as f64 * 3.0 + rng.gen_range(-0.5..0.5);
        let c = i64::from(x + u_of(a) > 0.0) + i64::from(b > 3);
        f.push_row(&[Value::Int(a), Value::Int(b), Value::Int(c), Value::F64(x), Value::F64(y)])
            .unwrap();
    }
    let mut d1 = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("w", AttrType::Categorical),
        ("u", AttrType::Double),
    ]));
    for a in 0..12 {
        d1.push_row(&[Value::Int(a), Value::Int(a % 2), Value::F64(u_of(a))]).unwrap();
    }
    let mut d2 = Relation::new(Schema::of(&[("b", AttrType::Int), ("v", AttrType::Double)]));
    for b in 0..6 {
        d2.push_row(&[Value::Int(b), Value::F64(rng.gen_range(0.0..10.0))]).unwrap();
    }
    let mut db = Database::new();
    db.add("F", f);
    db.add("D1", d1);
    db.add("D2", d2);
    db
}

#[test]
fn histogram_trees_match_the_reference_on_a_random_snowflake() {
    let db = random_snowflake(11);
    let cfg = TreeConfig { max_depth: 4, min_samples: 10.0, thresholds: 6, min_gain: 1e-9 };
    let regression = Problem {
        db: &db,
        rels: vec!["F", "D1", "D2"],
        continuous: vec!["x", "u", "v"],
        categorical: vec!["w", "c"],
        response: "y",
        cfg,
        classification: false,
    };
    let gini = Problem {
        categorical: vec!["w"],
        response: "c",
        classification: true,
        ..regression.clone()
    };
    for p in [regression, gini] {
        let tag = format!("snowflake gini={}", p.classification);
        assert_tree_agrees(&p, &DispatchEngine::new(), &tag);
        assert_tree_agrees(&p, &FlatEngine, &tag);
    }
}
