//! Shared assertions for the integration-test binaries (not itself a test
//! target: files under `tests/<dir>/` are only compiled via `mod common;`).

use fdb::lmfao::{eval_agg, to_scan_query};
use fdb::prelude::{AggQuery, BatchResult, Database};

/// The differential oracle: `fdb_core::classical`, one full scan per
/// aggregate over the materialized natural join. Exact zeros are dropped,
/// per the [`BatchResult`] contract.
#[allow(dead_code)] // not every test binary including this module needs it
pub fn oracle(db: &Database, q: &AggQuery) -> BatchResult {
    let flat = fdb::query::natural_join_all(db, &q.relation_refs()).unwrap();
    let (mut groups, mut values) = (Vec::new(), Vec::new());
    for agg in &q.batch.aggs {
        let scan = to_scan_query(agg);
        let sums = eval_agg(&flat, &scan).unwrap();
        values.push(
            sums.into_iter()
                .filter(|&(_, v)| v != 0.0)
                .map(|(k, v)| (k.iter().map(|x| x.as_int()).collect(), v))
                .collect(),
        );
        groups.push(scan.group_by.iter().map(|k| k.name()).collect());
    }
    BatchResult { groups, values }
}

/// Asserts two batch results carry identical groups, identical
/// *represented key sets* (which is how the exactly-zero-dropped contract
/// is held across engines, morsel merges, and dense/hash representations),
/// and values equal within relative tolerance `tol` — the caller's float
/// round-off allowance for differing summation orders.
pub fn assert_results_match(
    base: &BatchResult,
    got: &BatchResult,
    tag: &str,
    naggs: usize,
    tol: f64,
) {
    for i in 0..naggs {
        assert_eq!(base.groups[i], got.groups[i], "{tag}: agg {i}: group attrs");
        assert_eq!(
            base.grouped(i).len(),
            got.grouped(i).len(),
            "{tag}: agg {i}: represented key count"
        );
        for (k, v) in base.grouped(i) {
            let g = got.grouped(i).get(k).copied().unwrap_or(f64::NAN);
            assert!((v - g).abs() <= tol * (1.0 + v.abs()), "{tag}: agg {i} key {k:?}: {v} vs {g}");
        }
    }
}

/// Non-finite values a bucketed attribute takes on some rows.
const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// The bucketed-group-by panel: a snowflake F(a, b, c, x, y) ⋈
/// D1(a, w, u) ⋈ D2(b, v) with dyadic measures, so every engine's sums are
/// exact and must agree bit for bit, and a batch of bucket keys on fact
/// (`y`, `c`) and dimension (`u`, `v`) attributes, mixed with categorical
/// keys (`c`, `w`), two cut sets on `u` in one batch and in one aggregate,
/// duplicate cuts on `v`, and NaN/±inf rows in the bucketed `y` and `u`
/// (never a measure, so no sum turns NaN).
#[allow(dead_code)]
pub fn bucket_panel() -> (Database, AggQuery) {
    use fdb::prelude::{AggBatch, Aggregate, AttrType, FilterOp, Relation, Schema, Value};
    let mut f = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("c", AttrType::Categorical),
        ("x", AttrType::Double),
        ("y", AttrType::Double),
    ]));
    for i in 0..240i64 {
        let y = if i % 11 == 0 { NON_FINITE[(i / 11 % 3) as usize] } else { (i % 13) as f64 / 4.0 };
        f.push_row(&[
            Value::Int(i % 6),
            Value::Int(i % 5),
            Value::Int(i % 3),
            Value::F64((i % 9) as f64 / 8.0 - 0.5),
            Value::F64(y),
        ])
        .unwrap();
    }
    let mut d1 = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("w", AttrType::Categorical),
        ("u", AttrType::Double),
    ]));
    for a in 0..6 {
        let u = if a == 5 { f64::NAN } else { a as f64 / 2.0 - 0.75 };
        d1.push_row(&[Value::Int(a), Value::Int(a % 2), Value::F64(u)]).unwrap();
    }
    let mut d2 = Relation::new(Schema::of(&[("b", AttrType::Int), ("v", AttrType::Double)]));
    for b in 0..5 {
        d2.push_row(&[Value::Int(b), Value::F64(b as f64 * 0.25)]).unwrap();
    }
    let mut db = Database::new();
    db.add("F", f);
    db.add("D1", d1);
    db.add("D2", d2);
    let (cy, cu, cu2, cv) = (
        [0.5, 1.0, 2.25],
        [-0.5, 0.0, 0.75],
        [0.25],
        // Duplicate cuts: bucket 2 stays empty.
        [0.25, 0.5, 0.5, 0.75],
    );
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count().by_bucket("y", &cy));
    batch.push(Aggregate::sum("x").by_bucket("u", &cu));
    batch.push(Aggregate::sum_prod("x", "v").by(&["c"]).by_bucket("u", &cu));
    batch.push(Aggregate::count().by(&["w"]).by_bucket("y", &cy));
    batch.push(Aggregate::sum("x").by_bucket("u", &cu).by_bucket("u", &cu2));
    batch.push(Aggregate::count().by_bucket("u", &cu2));
    batch.push(Aggregate::sum("v").by_bucket("v", &cv));
    batch.push(Aggregate::count().by_bucket("c", &[0.5, 1.5]));
    batch.push(Aggregate::sum("x").by_bucket("y", &cy).filtered("u", FilterOp::Ge(0.0)));
    batch.push(Aggregate::sum_prod("x", "x").by_bucket("u", &cu).by_bucket("v", &cv));
    batch.push(Aggregate::count().by(&["c", "w"]).by_bucket("y", &cy).by_bucket("v", &cv));
    (db, AggQuery::new(&["F", "D1", "D2"], batch))
}
