//! The batched kernels agree with the oracle.
//!
//! The batched columnar paths (`fdb_core::kernel`, the batched node scan,
//! the trie pair collectors) must compute what `fdb_core::classical`
//! computes over the materialized join: same represented key sets, same
//! values up to float summation order. These tests pin that on random
//! inputs, including the awkward shapes — empty batches, single-row
//! morsels, the dense→hash fallback boundary at `dense_limit`, mixed-radix
//! codes near `u64` overflow, non-finite measures on rows a miss or a
//! filter masks, and multi-group child entries inside a batch.

use fdb::lmfao::{covariance_batch, kernel, KeySpace};
use fdb::prelude::*;
use proptest::prelude::*;

mod common;

/// A random 3-relation snowflake: F(a, b, c, x) ⋈ D1(a, w, u) ⋈ D2(b, v).
fn snowflake(rows: &[(i64, i64, i8)], d1: &[(i64, i8)], d2: &[(i64, i8)]) -> Database {
    let mut db = Database::new();
    let mut f = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("c", AttrType::Categorical),
        ("x", AttrType::Double),
    ]));
    for &(a, b, x) in rows {
        let c = (a + 2 * b) % 3;
        f.push_row(&[Value::Int(a), Value::Int(b), Value::Int(c), Value::F64(x as f64)]).unwrap();
    }
    let mut r1 = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("w", AttrType::Categorical),
        ("u", AttrType::Double),
    ]));
    for &(a, u) in d1 {
        r1.push_row(&[Value::Int(a), Value::Int(a % 2), Value::F64(u as f64)]).unwrap();
    }
    let mut r2 = Relation::new(Schema::of(&[("b", AttrType::Int), ("v", AttrType::Double)]));
    for &(b, v) in d2 {
        r2.push_row(&[Value::Int(b), Value::F64(v as f64)]).unwrap();
    }
    db.add("F", f);
    db.add("D1", r1);
    db.add("D2", r2);
    db
}

/// The query family the batched node scan sees: grouped covariance with a
/// filtered extra, over both categorical group keys.
fn cov_query() -> AggQuery {
    let mut batch = covariance_batch(&["x", "u", "v"], &["c", "w"]);
    batch.push(Aggregate::sum("x").by(&["c"]).filtered("u", FilterOp::Ge(0.0)));
    batch.push(Aggregate::count().filtered("x", FilterOp::Lt(1.0)));
    AggQuery::new(&["F", "D1", "D2"], batch)
}

/// Every engine on `q` against the oracle: LMFAO's batched node scan and
/// its generic per-tuple loop (`specialize: false`, the Figure 6 stage),
/// the factorized engine's batched intersection collectors, and flat's
/// batched dense accumulation. Returns the oracle's result.
fn assert_engines_match_oracle(db: &Database, q: &AggQuery) -> BatchResult {
    let base = common::oracle(db, q);
    let batched = EngineConfig { threads: 1, view_cache_bytes: 0, ..Default::default() };
    let generic = EngineConfig { specialize: false, ..batched };
    let panel: [(&str, Box<dyn Engine>); 4] = [
        ("lmfao batched", Box::new(LmfaoEngine::with_config(batched))),
        ("lmfao generic", Box::new(LmfaoEngine::with_config(generic))),
        ("factorized", Box::new(FactorizedEngine::new())),
        ("flat batched", Box::new(FlatEngine)),
    ];
    for (tag, engine) in &panel {
        common::assert_results_match(&base, &engine.run(db, q).unwrap(), tag, q.batch.len(), 1e-9);
    }
    base
}

fn encode_batched(space: &KeySpace, cols: &[&[i64]], rows: usize) -> Vec<u64> {
    let (mut out, mut oob) = (Vec::new(), Vec::new());
    kernel::encode_codes(space, cols, rows, &mut out, &mut oob);
    out
}

/// The per-row reference: `KeySpace::encode` on each row's key.
fn encode_per_row(space: &KeySpace, cols: &[&[i64]], rows: usize) -> Vec<u64> {
    (0..rows)
        .map(|r| {
            let key: Vec<i64> = cols.iter().map(|c| c[r]).collect();
            space.encode(&key).unwrap_or(kernel::OOB_CODE)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched engines reproduce the classical row-at-a-time oracle on
    /// random snowflakes, including empty facts.
    #[test]
    fn vectorized_engines_agree_with_rowwise(
        rows in proptest::collection::vec((0i64..4, 0i64..4, -5i8..5), 0..25),
        d1 in proptest::collection::vec((0i64..4, -5i8..5), 0..8),
        d2 in proptest::collection::vec((0i64..4, -5i8..5), 0..8),
    ) {
        assert_engines_match_oracle(&snowflake(&rows, &d1, &d2), &cov_query());
    }

    /// Sweeping `dense_limit` across the group key-space size (6 codes for
    /// `c × w` here) must not change results: below the boundary the hash
    /// accumulator runs row-wise, above it the dense accumulator takes the
    /// batched code path.
    #[test]
    fn dense_hash_fallback_boundary_agrees(
        rows in proptest::collection::vec((0i64..4, 0i64..4, -5i8..5), 1..25),
        d1 in proptest::collection::vec((0i64..4, -5i8..5), 1..8),
        d2 in proptest::collection::vec((0i64..4, -5i8..5), 1..8),
    ) {
        let db = snowflake(&rows, &d1, &d2);
        let q = cov_query();
        let seq = EngineConfig { threads: 1, view_cache_bytes: 0, ..Default::default() };
        let base = LmfaoEngine::with_config(seq).run(&db, &q).unwrap();
        for dense_limit in [0, 1, 5, 6, 7, u64::MAX] {
            let got = LmfaoEngine::with_config(EngineConfig { dense_limit, ..seq })
                .run(&db, &q)
                .unwrap();
            common::assert_results_match(
                &base,
                &got,
                &format!("dense_limit {dense_limit}"),
                q.batch.len(),
                1e-9,
            );
        }
    }

    /// The batched mixed-radix encoder matches per-row `KeySpace::encode`
    /// on random spaces and keys — in range, out of range, and near the
    /// top of the `u64` code space.
    #[test]
    fn batched_encode_matches_per_row_on_random_spaces(
        spec in proptest::collection::vec((-40i64..40, 0i64..6), 1..4),
        keys in proptest::collection::vec(-50i64..50, 0..40),
        big in proptest::collection::vec(0i64..2, 1..3),
    ) {
        let ranges: Vec<(i64, i64)> = spec.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        if let Some(space) = KeySpace::new(&ranges, u64::MAX) {
            let arity = ranges.len();
            let rows = keys.len() / arity.max(1);
            let cols: Vec<&[i64]> =
                (0..arity).map(|i| &keys[i * rows..(i + 1) * rows]).collect();
            prop_assert_eq!(encode_batched(&space, &cols, rows), encode_per_row(&space, &cols, rows));
        }
        // Near-overflow: radices chosen so strides reach the top u64 bits.
        let wide: Vec<(i64, i64)> = big
            .iter()
            .map(|&b| if b == 0 { (0, (1 << 31) - 1) } else { (-(1 << 30), (1 << 30)) })
            .collect();
        if let Some(space) = KeySpace::new(&wide, u64::MAX) {
            let cols: Vec<Vec<i64>> = wide
                .iter()
                .map(|&(lo, hi)| vec![lo, hi, lo - 1, hi + 1, 0, i64::MAX, i64::MIN])
                .collect();
            let refs: Vec<&[i64]> = cols.iter().map(|c| c.as_slice()).collect();
            prop_assert_eq!(encode_batched(&space, &refs, 7), encode_per_row(&space, &refs, 7));
        }
    }
}

/// Single-row morsels (`morsel_rows = 1`) are the degenerate scheduling
/// shape: every row its own work unit. Results must match the sequential
/// run (chunk merges only reorder float sums).
#[test]
fn single_row_morsels_agree_with_sequential() {
    let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig::tiny());
    let rels = ds.relation_refs();
    let q = AggQuery::new(&rels, covariance_batch(&["prize", "inventoryunits"], &["rain"]));
    let seq = EngineConfig { threads: 1, view_cache_bytes: 0, ..Default::default() };
    let base = LmfaoEngine::with_config(seq).run(&ds.db, &q).unwrap();
    for (threads, morsel_rows) in [(3, 1), (2, 7), (4, 4096)] {
        let cfg = EngineConfig { threads, morsel_rows, ..seq };
        let got = LmfaoEngine::with_config(cfg).run(&ds.db, &q).unwrap();
        common::assert_results_match(
            &base,
            &got,
            &format!("threads {threads} morsel_rows {morsel_rows}"),
            q.batch.len(),
            1e-6,
        );
    }
}

/// An empty fact joined through the batched paths: no groups, no panics,
/// the oracle's (empty) result from every engine.
#[test]
fn empty_fact_agrees_everywhere() {
    let db = snowflake(&[], &[(0, 1), (1, -2)], &[(0, 3)]);
    let q = cov_query();
    let base = assert_engines_match_oracle(&db, &q);
    assert_eq!(base.scalar(q.batch.len() - 1), 0.0, "count over empty join");
}

/// The LMFAO configurations the masked-row and cross-product tests sweep:
/// the batched scan at `morsel_rows` 1, 7 and 4096 on one and three
/// threads, plus the generic per-tuple loop, all with the view cache
/// bypassed so every configuration computes.
fn lmfao_sweep() -> Vec<(String, EngineConfig)> {
    let base = EngineConfig { view_cache_bytes: 0, ..Default::default() };
    let mut panel =
        vec![("generic".to_string(), EngineConfig { specialize: false, threads: 1, ..base })];
    for morsel_rows in [1, 7, 4096] {
        for threads in [1, 3] {
            panel.push((
                format!("batched t{threads} m{morsel_rows}"),
                EngineConfig { threads, morsel_rows, ..base },
            ));
        }
    }
    panel
}

fn assert_no_nan(res: &BatchResult, tag: &str) {
    for i in 0..res.values.len() {
        for (k, v) in res.grouped(i) {
            assert!(!v.is_nan(), "{tag}: agg {i} key {k:?} is NaN");
        }
    }
}

/// Non-finite measures on rows that contribute nothing: fact rows whose
/// foreign key dangles (out of the dimension's key range, or inside it but
/// absent), and rows that every aggregate touching the measure filters
/// out. The batched scan multiplies before it masks, and `NaN * 0.0` is
/// NaN, so misses and failed filters must be *selects* to `0.0`. Every
/// LMFAO configuration must equal the flat engine, and no result may be
/// NaN.
#[test]
fn non_finite_measures_on_masked_rows_contribute_zero() {
    let nonfinite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut f = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("c", AttrType::Categorical),
        ("x", AttrType::Double),
        ("y", AttrType::Double),
    ]));
    for i in 0..300i64 {
        let (a, b) = (i % 4, (i / 4) % 4);
        let bad = nonfinite[(i / 5 % 3) as usize];
        let (fa, fb, x, y) = match i % 5 {
            0 => (a + 10, b, bad, 1.0), // inside D1's key range, absent
            1 => (a, b + 10, bad, 1.0), // outside D2's key range
            2 => (a, b, bad, -1.0),     // filtered out
            _ => (a, b, (i % 7) as f64 / 3.0 - 1.1, 1.0),
        };
        f.push_row(&[
            Value::Int(fa),
            Value::Int(fb),
            Value::Int((a + b) % 3),
            Value::F64(x),
            Value::F64(y),
        ])
        .unwrap();
    }
    let mut d1 = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("w", AttrType::Categorical),
        ("u", AttrType::Double),
    ]));
    for a in 0..4 {
        d1.push_row(&[Value::Int(a), Value::Int(a % 2), Value::F64(a as f64 / 3.0 + 0.5)]).unwrap();
    }
    // A dimension row no fact joins, carrying a NaN of its own.
    d1.push_row(&[Value::Int(20), Value::Int(0), Value::F64(f64::NAN)]).unwrap();
    let mut d2 = Relation::new(Schema::of(&[("b", AttrType::Int), ("v", AttrType::Double)]));
    for b in 0..4 {
        d2.push_row(&[Value::Int(b), Value::F64(b as f64 - 1.5)]).unwrap();
    }
    let mut db = Database::new();
    db.add("F", f);
    db.add("D1", d1);
    db.add("D2", d2);
    // Every aggregate over `x` carries the filter; the rest are unfiltered.
    let kept = |agg: Aggregate| agg.filtered("y", FilterOp::Ge(0.0));
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::count().by(&["c"]));
    batch.push(Aggregate::count().by(&["w"]));
    batch.push(Aggregate::sum("u").by(&["c"]));
    batch.push(Aggregate::sum_prod("u", "v"));
    batch.push(kept(Aggregate::sum("x")));
    batch.push(kept(Aggregate::sum("x").by(&["c"])));
    batch.push(kept(Aggregate::sum("x").by(&["w"])));
    batch.push(kept(Aggregate::sum_prod("x", "u").by(&["c", "w"])));
    batch.push(kept(Aggregate::sum_prod("x", "x")));
    batch.push(kept(Aggregate::sum_prod("x", "v").by(&["w"])));
    let q = AggQuery::new(&["F", "D1", "D2"], batch);
    let flat = FlatEngine.run(&db, &q).unwrap();
    assert_no_nan(&flat, "flat");
    assert!(flat.scalar(0) > 0.0, "some rows join");
    for (tag, cfg) in lmfao_sweep() {
        let got = LmfaoEngine::with_config(cfg).run(&db, &q).unwrap();
        assert_no_nan(&got, &tag);
        common::assert_results_match(&flat, &got, &tag, q.batch.len(), 1e-9);
    }
}

/// A snowflake whose dimension repeats a join key with distinct group
/// values: F(a, b, x) ⋈ D1(a, k, w, u) ⋈ D2(k, g, z) ⋈ D3(b, h), where
/// every even `k` of D2 holds two `g` groups. A grouped-by-`g` view entry
/// then has more than one group — at the inner node D1 and again at the
/// root — next to single-group keys in the same batch, so those rows take
/// the cross-product fallback for exactly the views that read the entry.
fn multi_group_snowflake() -> Database {
    let mut f = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("x", AttrType::Double),
    ]));
    for i in 0..200i64 {
        f.push_row(&[Value::Int(i % 8), Value::Int(i % 5), Value::F64((i % 11) as f64 - 5.0)])
            .unwrap();
    }
    let mut d1 = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("k", AttrType::Int),
        ("w", AttrType::Categorical),
        ("u", AttrType::Double),
    ]));
    for a in 0..8 {
        d1.push_row(&[
            Value::Int(a),
            Value::Int(a % 6),
            Value::Int(a % 3),
            Value::F64(a as f64 + 1.0),
        ])
        .unwrap();
    }
    let mut d2 = Relation::new(Schema::of(&[
        ("k", AttrType::Int),
        ("g", AttrType::Categorical),
        ("z", AttrType::Double),
    ]));
    for k in 0..6 {
        d2.push_row(&[Value::Int(k), Value::Int(k % 4), Value::F64(k as f64 - 2.0)]).unwrap();
        if k % 2 == 0 {
            d2.push_row(&[Value::Int(k), Value::Int(k % 4 + 1), Value::F64(3.0)]).unwrap();
        }
    }
    let mut d3 = Relation::new(Schema::of(&[("b", AttrType::Int), ("h", AttrType::Categorical)]));
    for b in 0..5 {
        d3.push_row(&[Value::Int(b), Value::Int(b % 2)]).unwrap();
    }
    let mut db = Database::new();
    db.add("F", f);
    db.add("D1", d1);
    db.add("D2", d2);
    db.add("D3", d3);
    db
}

fn multi_group_query() -> AggQuery {
    let mut batch = covariance_batch(&["x", "u", "z"], &["g", "h", "w"]);
    batch.push(Aggregate::count().by(&["g", "h", "w"]));
    batch.push(Aggregate::sum("x").by(&["g"]).filtered("z", FilterOp::Lt(2.5)));
    AggQuery::new(&["F", "D1", "D2", "D3"], batch)
}

/// Multi-group child entries inside a batch, grouped and scalar views
/// alike, across morsel sizes and thread counts: every LMFAO
/// configuration equals the flat engine.
#[test]
fn multi_group_entries_take_the_cross_product_inside_a_batch() {
    let db = multi_group_snowflake();
    let q = multi_group_query();
    let flat = FlatEngine.run(&db, &q).unwrap();
    for (tag, cfg) in lmfao_sweep() {
        let got = LmfaoEngine::with_config(cfg).run(&db, &q).unwrap();
        common::assert_results_match(&flat, &got, &tag, q.batch.len(), 1e-9);
    }
}

/// The same shape through delta maintenance: a 1-row and then a 64-row
/// fact insert (both inside the prepared key ranges, so the incremental
/// path runs) probe multi-group entries, and the maintained result equals
/// a cold flat run over the mutated database.
#[test]
fn multi_group_entries_under_fact_inserts_match_cold_flat() {
    let db = multi_group_snowflake();
    let q = multi_group_query();
    let fact_row = |i: i64| {
        vec![Value::Int(i % 8), Value::Int((i * 3) % 5), Value::F64((i % 7) as f64 / 3.0 + 0.1)]
    };
    let one = Delta::insert("F", fact_row(2));
    let mut many = Delta::new("F");
    for i in 0..64 {
        many.push_insert(fact_row(i));
    }
    for (tag, cfg) in lmfao_sweep() {
        let engine = LmfaoEngine::with_config(cfg);
        let mut st = engine.prepare(&db, &q).unwrap();
        let mut shadow = db.clone();
        for (step, d) in [&one, &many].into_iter().enumerate() {
            shadow.apply_delta(d).unwrap();
            let cold = FlatEngine.run(&shadow, &q).unwrap();
            let got = engine.apply_delta(&mut st, d).unwrap();
            common::assert_results_match(
                &cold,
                &got,
                &format!("{tag} delta {step}"),
                q.batch.len(),
                1e-9,
            );
        }
    }
}

/// Bucketed group-by keys (see `common::bucket_panel`): every LMFAO
/// configuration, the flat and factorized engines and the classical
/// oracle agree bit for bit on dyadic data, NaN/±inf rows landing in the
/// buckets the key's definition names.
#[test]
fn bucketed_keys_agree_bit_for_bit_across_the_sweep() {
    let (db, q) = common::bucket_panel();
    let base = common::oracle(&db, &q);
    // NaN and -inf rows of `y` land in bucket 0, +inf in the top bucket.
    let count_y = base.grouped(0);
    assert!(count_y[&[0i64][..]] >= 15.0 && count_y[&[3i64][..]] >= 7.0, "{count_y:?}");
    // The duplicate cut on `v` leaves bucket 2 empty.
    assert!(base.grouped(6).keys().all(|k| k[0] != 2));
    let mut panel: Vec<(String, Box<dyn Engine>)> = vec![
        ("flat".into(), Box::new(FlatEngine)),
        ("factorized".into(), Box::new(FactorizedEngine::new())),
    ];
    for (tag, cfg) in lmfao_sweep() {
        panel.push((tag, Box::new(LmfaoEngine::with_config(cfg))));
    }
    for (tag, engine) in &panel {
        let got = engine.run(&db, &q).unwrap_or_else(|e| panic!("{tag}: {e}"));
        common::assert_results_match(&base, &got, tag, q.batch.len(), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A bucket key is its range-filter expansion: through the classical
    /// oracle, bucket `k ≥ 1` of `SUM(x) GROUP BY c, Bucket(u)` equals
    /// `SUM(x) GROUP BY c WHERE u ≥ cuts[k-1] ∧ u < cuts[k]`, and bucket 0
    /// equals the unbucketed sum minus every other bucket. Random cuts, duplicates included; dyadic data, so exact.
    #[test]
    fn bucket_key_equals_its_range_filter_expansion(
        rows in proptest::collection::vec((0i64..4, 0i64..4, -5i8..5), 0..25),
        d1 in proptest::collection::vec((0i64..4, -5i8..5), 0..8),
        d2 in proptest::collection::vec((0i64..4, -5i8..5), 0..8),
        raw_cuts in proptest::collection::vec(-6i8..6, 1..5),
    ) {
        let db = snowflake(&rows, &d1, &d2);
        let mut cuts: Vec<f64> = raw_cuts.iter().map(|&c| c as f64 / 2.0).collect();
        cuts.sort_by(f64::total_cmp);
        let mut batch = AggBatch::new();
        batch.push(Aggregate::sum("x").by(&["c"]).by_bucket("u", &cuts));
        batch.push(Aggregate::sum("x").by(&["c"]));
        for k in 1..=cuts.len() {
            let mut agg = Aggregate::sum("x").by(&["c"]).filtered("u", FilterOp::Ge(cuts[k - 1]));
            if k < cuts.len() {
                agg = agg.filtered("u", FilterOp::Lt(cuts[k]));
            }
            batch.push(agg);
        }
        let q = AggQuery::new(&["F", "D1", "D2"], batch);
        let res = common::oracle(&db, &q);
        let mut expect: std::collections::HashMap<Box<[i64]>, f64> = Default::default();
        let mut bucket0 = res.grouped(1).clone();
        for k in 1..=cuts.len() {
            for (key, v) in res.grouped(1 + k) {
                *bucket0.entry(key.clone()).or_insert(0.0) -= v;
                expect.insert(vec![key[0], k as i64].into(), *v);
            }
        }
        for (key, v) in bucket0 {
            if v != 0.0 {
                expect.insert(vec![key[0], 0].into(), v);
            }
        }
        prop_assert_eq!(res.grouped(0), &expect);
    }
}
