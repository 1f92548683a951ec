//! Root morsels on a skew-clustered fact table.
//!
//! The Zipf snowflake sorts its fact by a power-law key, so equal-row
//! contiguous chunks carry very different group structure — the shape
//! that left cores idle under a one-thread-per-chunk model. The
//! regression contract: LMFAO cuts the root (fact) scan into more morsels
//! than workers, so finished workers pull the stragglers' queue, and the
//! tree-merged partials still equal the sequential result — exactly on
//! integer measures, bit-for-bit across thread counts on real ones.

use fdb::datasets::{zipf_snowflake, ZipfConfig};
use fdb::lmfao::covariance_batch;
use fdb::lmfao::morsel::morsel_count;
use fdb::prelude::*;

mod common;

const ZIPF_ROWS: usize = 20_000;

fn zipf() -> fdb::datasets::Dataset {
    zipf_snowflake(ZipfConfig { fact_rows: ZIPF_ROWS, dim_rows: 32, skew: 2.0, seed: 5 })
}

fn zipf_query(ds: &fdb::datasets::Dataset) -> AggQuery {
    let rels = ds.relation_refs();
    AggQuery::new(&rels, covariance_batch(&["a", "b", "v"], &["grp"]))
}

fn morsel_config(threads: usize, morsel_rows: usize) -> EngineConfig {
    EngineConfig { threads, morsel_rows, ..Default::default() }
}

#[test]
fn skewed_fact_splits_into_morsels_and_agrees() {
    let ds = zipf();
    let q = zipf_query(&ds);
    let base = LmfaoEngine::with_config(EngineConfig::sequential()).run(&ds.db, &q).unwrap();
    // The heavy key occupies whole morsels (the fact is clustered), so the
    // root must split finer than one chunk per worker.
    let morsels = morsel_count(ZIPF_ROWS, 4096, 4);
    assert!(morsels > 4, "skew defense: {morsels} morsels for 4 workers");
    let got = LmfaoEngine::with_config(morsel_config(4, 4096)).run(&ds.db, &q).unwrap();
    common::assert_results_match(&base, &got, "zipf morsels x4", q.batch.len(), 1e-9);
}

#[test]
fn smaller_morsels_split_finer_and_still_agree() {
    let ds = zipf();
    let q = zipf_query(&ds);
    let base = LmfaoEngine::with_config(EngineConfig::sequential()).run(&ds.db, &q).unwrap();
    let (coarse, fine) = (morsel_count(ZIPF_ROWS, 4096, 4), morsel_count(ZIPF_ROWS, 512, 4));
    assert!(fine > coarse, "morsel_rows 512 must split further: {fine} vs {coarse}");
    let got = LmfaoEngine::with_config(morsel_config(4, 512)).run(&ds.db, &q).unwrap();
    common::assert_results_match(&base, &got, "zipf fine morsels", q.batch.len(), 1e-9);
}

/// The morsel partials combine by pairwise *tree* merge. On
/// integer-valued aggregates every float sum is exact, so any merge
/// association must land on the bit-identical result — this pins tree
/// merge ≡ the sequential scan (one chunk, nothing merged) on the
/// skew-clustered fact across morsel counts, including the odd-tail
/// shapes (3, 5) the pairing must carry through.
#[test]
fn tree_merge_matches_serial_on_skewed_integer_data() {
    // A hand-built clustered-skew snowflake with *integer* measures: the
    // zipf generator's measures are floats, whose sums depend on merge
    // association — integer payloads keep every partial sum exact, so any
    // association must land on the bit-identical result. The fact's first
    // half is one heavy key (clustered, as a sorted power-law fact would
    // be), the rest cycles the remaining dimension keys.
    const FACT_ROWS: usize = 20_000;
    const DIM_KEYS: i64 = 64;
    let mut fact = Relation::new(Schema::of(&[("k", AttrType::Int), ("x", AttrType::Int)]));
    for i in 0..FACT_ROWS {
        let k = if i < FACT_ROWS / 2 { 0 } else { (i % (DIM_KEYS as usize - 1)) as i64 + 1 };
        let x = (i % 17) as i64 - 8;
        fact.push_row(&[Value::Int(k), Value::Int(x)]).unwrap();
    }
    let mut dim = Relation::new(Schema::of(&[
        ("k", AttrType::Int),
        ("y", AttrType::Int),
        ("g", AttrType::Categorical),
    ]));
    for k in 0..DIM_KEYS {
        dim.push_row(&[Value::Int(k), Value::Int(k * 3 - 7), Value::Int(k % 5)]).unwrap();
    }
    let mut db = Database::new();
    db.add("F", fact);
    db.add("D", dim);
    let batch = {
        let mut b = AggBatch::new();
        b.push(Aggregate::count());
        b.push(Aggregate::count().by(&["g"]));
        b.push(Aggregate::sum("x").by(&["g"]));
        b.push(Aggregate::sum_prod("x", "y").by(&["g"]));
        b
    };
    let q = AggQuery::new(&["F", "D"], batch);
    let base = LmfaoEngine::with_config(EngineConfig::sequential()).run(&db, &q).unwrap();
    for k in [2usize, 3, 4, 5] {
        let rows = FACT_ROWS.div_ceil(k);
        assert_eq!(morsel_count(FACT_ROWS, rows, k), k, "one morsel per worker");
        let got = LmfaoEngine::with_config(morsel_config(k, rows)).run(&db, &q).unwrap();
        // Tolerance zero: integer payloads make the merge exact, so the
        // tree association may not move a single bit.
        common::assert_results_match(&base, &got, &format!("tree merge x{k}"), 4, 0.0);
    }
}

/// Exact equality — same group attrs, same represented keys, same bits.
fn assert_bits_identical(expect: &BatchResult, got: &BatchResult, tag: &str) {
    assert_eq!(expect.groups, got.groups, "{tag}: group attrs");
    for i in 0..expect.values.len() {
        assert_eq!(expect.grouped(i).len(), got.grouped(i).len(), "{tag}: agg {i} key count");
        for (k, v) in expect.grouped(i) {
            let g = got.grouped(i).get(k).copied();
            assert_eq!(g.map(f64::to_bits), Some(v.to_bits()), "{tag}: agg {i} key {k:?}");
        }
    }
}

/// The float contract of the one partition merge: result bits depend only
/// on the morsel plan, never on scheduling. The Zipf measures are
/// non-dyadic doubles, so a different summation order *would* move bits;
/// threads 2, 3 and 4 at `morsel_rows` 512 share one 40-morsel plan and
/// must agree bit for bit, run after run, with the view cache bypassed so
/// every run computes. Against the one-chunk sequential scan (a different
/// association) they agree to round-off.
#[test]
fn morsel_partials_merge_bit_identically_across_thread_counts() {
    let ds = zipf();
    let q = zipf_query(&ds);
    let cfg = |threads| EngineConfig { view_cache_bytes: 0, ..morsel_config(threads, 512) };
    let sequential = LmfaoEngine::with_config(cfg(1)).run(&ds.db, &q).unwrap();
    let first = LmfaoEngine::with_config(cfg(2)).run(&ds.db, &q).unwrap();
    common::assert_results_match(&sequential, &first, "t2 vs sequential", q.batch.len(), 1e-9);
    for threads in [2usize, 3, 4] {
        assert_eq!(morsel_count(ZIPF_ROWS, 512, threads), 40, "one shared morsel plan");
        for rep in 0..2 {
            let got = LmfaoEngine::with_config(cfg(threads)).run(&ds.db, &q).unwrap();
            assert_bits_identical(&first, &got, &format!("t{threads} rep {rep}"));
        }
    }
}
