//! The batched kernels agree with the oracle.
//!
//! The batched columnar paths (`fdb_core::kernel`, the batched leaf scan,
//! the trie pair collectors) must compute what `fdb_core::classical`
//! computes over the materialized join: same represented key sets, same
//! values up to float summation order. These tests pin that on random
//! inputs, including the awkward shapes — empty batches, single-row
//! morsels, the dense→hash fallback boundary at `dense_limit`, and
//! mixed-radix codes near `u64` overflow.

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

/// The query family the batched leaf path sees: grouped covariance with a
/// filtered extra, over both categorical group keys.
fn cov_query() -> AggQuery {
    let mut batch = covariance_batch(&["x", "u", "v"], &["c", "w"]);
    batch.push(Aggregate::sum("x").by(&["c"]).filtered("u", FilterOp::Ge(0.0)));
    batch.push(Aggregate::count().filtered("x", FilterOp::Lt(1.0)));
    AggQuery::new(&["F", "D1", "D2"], batch)
}

/// Every engine on `q` against the oracle: LMFAO's batched leaf scan and
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
