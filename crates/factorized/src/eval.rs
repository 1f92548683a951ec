//! The fused factorized evaluator (paper §5.1).
//!
//! Joins and aggregates are fused: one recursion over the variable order
//! intersects the sorted relations' current ranges on each variable
//! (leapfrog), multiplies the independent branches' results, and sums over
//! the variable's values — all in an arbitrary (semi)ring. The factorized
//! join is never materialized.
//!
//! For acyclic queries with a join-tree-derived variable order this runs in
//! time `O(N · polylog N)` — linear in the input, not the output (§2.1) —
//! and with the count ring it *is* a worst-case-optimal join counter.
//! [`materialize_join`] enumerates the flat join result from the same
//! recursion for the baselines that need the data matrix.

use crate::hypergraph::Hypergraph;
use crate::order::VarOrder;
use crate::trie::leapfrog_intersect;
use fdb_data::{DataError, Database, Relation, Schema, SortCache, Value};
use fdb_ring::{I64Ring, Semiring};
use std::ops::Range;
use std::sync::Arc;

/// A join query prepared for repeated factorized evaluation: the key-graph,
/// a variable order, and each relation sorted by its root-to-leaf path.
///
/// Sorted views are normally served by the global
/// [`SortCache`](fdb_data::SortCache) — preparing the same (unmutated)
/// relations with the same variable order a second time reuses the sorted
/// copies instead of re-sorting, which is what keeps per-tree-node CART
/// batches from paying the sort bill at every node.
pub struct EvalSpec {
    hg: Hypergraph,
    vo: VarOrder,
    rels: Vec<Arc<Relation>>,
    /// Per relation: schema column index of each key level (VO-depth order).
    key_cols: Vec<Vec<usize>>,
    /// Per VO node: `(relation index, level)` of participating relations.
    parts_at: Vec<Vec<(usize, usize)>>,
    /// Per VO node: relations whose deepest key level is this node.
    deepest_at: Vec<Vec<usize>>,
    /// Relations with no key variables at all (pure cross product).
    free_rels: Vec<usize>,
}

/// Reusable per-variable-order-node buffers of the leapfrog recursion: the
/// matches found at the node and the ranges saved while narrowing. One set
/// lives per node for the whole recursion — no per-visit allocation.
#[derive(Default, Clone)]
struct NodeScratch {
    /// Matching values at this node.
    vals: Vec<i64>,
    /// Per match, `parts` run ranges, flattened contiguously.
    runs: Vec<Range<usize>>,
    /// The `parts` ranges saved across one match's recursion.
    saved: Vec<Range<usize>>,
    /// Current `parts` ranges handed to the leapfrog.
    cur: Vec<Range<usize>>,
}

impl EvalSpec {
    /// Prepares the natural join of `relations` for evaluation. Join
    /// variables are the attributes shared by ≥ 2 relations plus `extra`
    /// (group-by attributes). Fails if the key-graph is cyclic.
    pub fn new(db: &Database, relations: &[&str], extra: &[&str]) -> Result<Self, DataError> {
        Self::new_with_cache(db, relations, extra, SortCache::global())
    }

    /// [`EvalSpec::new`] serving sorted views from `cache` instead of the
    /// global one (tests that need private cache accounting).
    pub fn new_with_cache(
        db: &Database,
        relations: &[&str],
        extra: &[&str],
        cache: &SortCache,
    ) -> Result<Self, DataError> {
        let hg = Hypergraph::join_keys_plus(db, relations, extra)?;
        let jt = hg.join_tree().ok_or_else(|| {
            DataError::Invalid("cyclic join: materialize a hypertree bag first".into())
        })?;
        let vo = VarOrder::from_join_tree(&hg, &jt);
        Self::with_order_cached(db, relations, hg, vo, cache)
    }

    /// Prepares with an explicit hypergraph + variable order (used by
    /// benchmarks that control the order; `hg` must stem from the same
    /// relation list).
    pub fn with_order(
        db: &Database,
        relations: &[&str],
        hg: Hypergraph,
        vo: VarOrder,
    ) -> Result<Self, DataError> {
        Self::with_order_cached(db, relations, hg, vo, SortCache::global())
    }

    /// [`EvalSpec::with_order`] serving sorted views from `cache`.
    pub fn with_order_cached(
        db: &Database,
        relations: &[&str],
        hg: Hypergraph,
        vo: VarOrder,
        cache: &SortCache,
    ) -> Result<Self, DataError> {
        let nn = vo.nodes().len();
        let mut rels = Vec::with_capacity(relations.len());
        let mut key_cols = Vec::with_capacity(relations.len());
        let mut parts_at: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nn];
        let mut deepest_at: Vec<Vec<usize>> = vec![Vec::new(); nn];
        let mut free_rels = Vec::new();
        for (ri, &rname) in relations.iter().enumerate() {
            let rel = db.get(rname)?;
            let evars = &hg.edges()[ri].vars;
            let path = vo.path_vars(evars).ok_or_else(|| {
                DataError::Invalid(format!("relation `{rname}` is off-path in the variable order"))
            })?;
            let cols: Vec<usize> = path
                .iter()
                .map(|&v| rel.schema().require(&hg.vars()[v]))
                .collect::<Result<_, _>>()?;
            // Key variables must be integer-backed: a `Double` join or
            // group-by attribute is a type-confused query and surfaces
            // here as a typed error instead of panicking inside the
            // leapfrog's column access (`level_cols`).
            for &c in &cols {
                rel.try_int_col(c)?;
            }
            let sorted = cache.sorted_by(rel, &cols);
            if path.is_empty() {
                free_rels.push(ri);
            } else {
                for (level, &v) in path.iter().enumerate() {
                    let node = vo.node_of_var(v).expect("path var has a node");
                    parts_at[node].push((ri, level));
                }
                let last = vo.node_of_var(*path.last().expect("non-empty")).expect("node");
                deepest_at[last].push(ri);
            }
            rels.push(sorted);
            key_cols.push(cols);
        }
        Ok(Self { hg, vo, rels, key_cols, parts_at, deepest_at, free_rels })
    }

    /// Per VO node, the key column slices of its participating relations —
    /// precomputed once per evaluation so the recursion allocates nothing.
    fn level_cols(&self) -> Vec<Vec<&[i64]>> {
        self.parts_at
            .iter()
            .map(|parts| {
                parts
                    .iter()
                    .map(|&(ri, level)| self.rels[ri].int_col(self.key_cols[ri][level]))
                    .collect()
            })
            .collect()
    }

    /// Runs the leapfrog at `node` over the current ranges, filling the
    /// node's scratch buffers with the matching values and runs.
    fn collect_matches(
        &self,
        node: usize,
        ranges: &[Range<usize>],
        cols_at: &[Vec<&[i64]>],
        scratch: &mut [NodeScratch],
    ) {
        let parts = &self.parts_at[node];
        let s = &mut scratch[node];
        s.cur.clear();
        s.cur.extend(parts.iter().map(|&(ri, _)| ranges[ri].clone()));
        s.vals.clear();
        s.runs.clear();
        let NodeScratch { vals, runs, cur, .. } = s;
        // The 1- and 2-relation shapes dominate snowflake joins; their
        // batched collectors fill the buffers directly, skipping the
        // generic leapfrog's callback dispatch and cursor rotation; ≥3-way
        // intersections take the generic leapfrog.
        match cols_at[node].as_slice() {
            [col] => crate::trie::collect_runs(col, cur[0].clone(), vals, runs),
            [a, b] => crate::trie::collect_pair(a, cur[0].clone(), b, cur[1].clone(), vals, runs),
            cols => leapfrog_intersect(cols, cur, |v, rs| {
                vals.push(v);
                runs.extend_from_slice(rs);
                true
            }),
        }
    }

    /// The key hypergraph.
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hg
    }

    /// The variable order.
    pub fn var_order(&self) -> &VarOrder {
        &self.vo
    }

    /// The `i`-th relation, sorted by its variable-order path.
    pub fn relation(&self, i: usize) -> &Relation {
        &self.rels[i]
    }

    /// The schema column index of `attr` in relation `i`.
    pub fn col_index(&self, i: usize, attr: &str) -> Result<usize, DataError> {
        self.rels[i].schema().require(attr)
    }

    /// Evaluates the sum-product over the join in `ring`.
    ///
    /// * `var_lift(var_id, value)` is multiplied in once per distinct value
    ///   of each variable (e.g. group-by tagging, a feature of the key).
    /// * `leaf_lift(rel_idx, rows)` is multiplied in once per relation once
    ///   all its key variables are bound, over its matching row range —
    ///   this is where payload (`Double`) columns are aggregated.
    pub fn eval<S, FV, FL>(&self, ring: &S, mut var_lift: FV, mut leaf_lift: FL) -> S::Elem
    where
        S: Semiring,
        FV: FnMut(usize, i64) -> S::Elem,
        FL: FnMut(usize, Range<usize>) -> S::Elem,
    {
        let mut ranges: Vec<Range<usize>> = self.rels.iter().map(|r| 0..r.len()).collect();
        let cols_at = self.level_cols();
        let mut scratch = vec![NodeScratch::default(); self.vo.nodes().len()];
        let mut acc = ring.one();
        for &f in &self.free_rels {
            acc = ring.mul(&acc, &leaf_lift(f, 0..self.rels[f].len()));
        }
        for &root in self.vo.roots() {
            let sub = self.eval_node(
                root,
                &mut ranges,
                &cols_at,
                &mut scratch,
                ring,
                &mut var_lift,
                &mut leaf_lift,
            );
            acc = ring.mul(&acc, &sub);
        }
        acc
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_node<S, FV, FL>(
        &self,
        node: usize,
        ranges: &mut Vec<Range<usize>>,
        cols_at: &[Vec<&[i64]>],
        scratch: &mut Vec<NodeScratch>,
        ring: &S,
        var_lift: &mut FV,
        leaf_lift: &mut FL,
    ) -> S::Elem
    where
        S: Semiring,
        FV: FnMut(usize, i64) -> S::Elem,
        FL: FnMut(usize, Range<usize>) -> S::Elem,
    {
        let var = self.vo.nodes()[node].var;
        let parts = &self.parts_at[node];
        let np = parts.len();
        debug_assert!(np > 0, "every key variable is in some relation");
        let mut total = ring.zero();
        // Leapfrog over the participating relations' current ranges into
        // this node's scratch (the recursion needs `ranges` mutable, so
        // matches are collected first — bounded by the distinct values).
        // A node's buffers are refilled only by its own next visit, which
        // cannot happen while this invocation iterates them: recursion
        // descends strictly into child nodes.
        self.collect_matches(node, ranges, cols_at, scratch);
        for mi in 0..scratch[node].vals.len() {
            let v = scratch[node].vals[mi];
            // Narrow ranges, saving old ones in the node scratch.
            {
                let s = &mut scratch[node];
                s.saved.clear();
                for (pi, &(ri, _)) in parts.iter().enumerate() {
                    s.saved.push(ranges[ri].clone());
                    ranges[ri] = s.runs[mi * np + pi].clone();
                }
            }
            let mut acc = var_lift(var, v);
            for &ri in &self.deepest_at[node] {
                acc = ring.mul(&acc, &leaf_lift(ri, ranges[ri].clone()));
            }
            for ci in 0..self.vo.nodes()[node].children.len() {
                let c = self.vo.nodes()[node].children[ci];
                let sub = self.eval_node(c, ranges, cols_at, scratch, ring, var_lift, leaf_lift);
                if ring.is_zero(&sub) {
                    acc = ring.zero();
                    break;
                }
                acc = ring.mul(&acc, &sub);
            }
            ring.add_assign(&mut total, &acc);
            let s = &mut scratch[node];
            for (pi, &(ri, _)) in parts.iter().enumerate() {
                ranges[ri] = s.saved[pi].clone();
            }
        }
        total
    }

    /// The join cardinality (bag semantics), without materialization.
    pub fn count(&self) -> i64 {
        self.eval(
            &I64Ring,
            |_, _| 1,
            |ri, rows| {
                let _ = ri;
                rows.len() as i64
            },
        )
    }
}

/// Convenience: prepares and evaluates in one call.
pub fn eval_acyclic<S, FV, FL>(
    db: &Database,
    relations: &[&str],
    extra: &[&str],
    ring: &S,
    var_lift: FV,
    leaf_lift: FL,
) -> Result<S::Elem, DataError>
where
    S: Semiring,
    FV: FnMut(usize, i64) -> S::Elem,
    FL: FnMut(usize, Range<usize>) -> S::Elem,
{
    let spec = EvalSpec::new(db, relations, extra)?;
    Ok(spec.eval(ring, var_lift, leaf_lift))
}

/// Materializes the flat natural join via the same trie recursion (an
/// LFTJ-style worst-case-optimal join). The output schema lists the key
/// variables first (in variable-order pre-order), then each relation's
/// payload attributes in relation order.
pub fn materialize_join(db: &Database, relations: &[&str]) -> Result<Relation, DataError> {
    let spec = EvalSpec::new(db, relations, &[])?;
    let hg = &spec.hg;
    // Output schema: key vars, then payload columns per relation.
    let mut attrs = Vec::new();
    let pre = spec.vo.pre_order();
    let var_cols: Vec<usize> = pre.iter().map(|&n| spec.vo.nodes()[n].var).collect();
    for &v in &var_cols {
        // Find the attribute type from any relation carrying it.
        let name = &hg.vars()[v];
        let (ri, _) = spec.parts_at[spec.vo.node_of_var(v).expect("node")][0];
        let ci = spec.rels[ri].schema().require(name)?;
        attrs.push(spec.rels[ri].schema().attr(ci).clone());
    }
    // Payload columns: every attribute that is not a key variable.
    let mut payload_cols: Vec<(usize, usize)> = Vec::new(); // (rel, col)
    for (ri, rel) in spec.rels.iter().enumerate() {
        for (ci, a) in rel.schema().attrs().iter().enumerate() {
            if hg.var_id(&a.name).is_none() {
                payload_cols.push((ri, ci));
                attrs.push(a.clone());
            }
        }
    }
    let schema = Schema::new(attrs)?;
    let mut out = Relation::new(schema);
    let nvars = var_cols.len();
    let mut key_vals: Vec<i64> = vec![0; nvars];
    // Recursion identical to eval, but emitting tuples at the bottom.
    let mut ranges: Vec<Range<usize>> = spec.rels.iter().map(|r| 0..r.len()).collect();
    let cols_at = spec.level_cols();
    let mut scratch = vec![NodeScratch::default(); spec.vo.nodes().len()];
    emit_rec(
        &spec,
        &pre,
        0,
        &mut ranges,
        &cols_at,
        &mut scratch,
        &mut key_vals,
        &payload_cols,
        &mut out,
    )?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn emit_rec(
    spec: &EvalSpec,
    pre: &[usize],
    depth: usize,
    ranges: &mut Vec<Range<usize>>,
    cols_at: &[Vec<&[i64]>],
    scratch: &mut Vec<NodeScratch>,
    key_vals: &mut Vec<i64>,
    payload_cols: &[(usize, usize)],
    out: &mut Relation,
) -> Result<(), DataError> {
    if depth == pre.len() {
        // All keys bound: cross product of the relations' final ranges.
        let mut row: Vec<Value> = key_vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        row.resize(out.schema().arity(), Value::Int(0));
        emit_cross(spec, payload_cols, key_vals.len(), ranges, &mut row, 0, out)?;
        return Ok(());
    }
    // NOTE: the pre-order visits the variable order as a *path-consistent*
    // sequence only for linear orders; for branching orders the recursion
    // below still narrows correctly because each relation participates at
    // its own variables regardless of visit order, and pre-order guarantees
    // parents are bound before children.
    let node = pre[depth];
    let parts = &spec.parts_at[node];
    let np = parts.len();
    spec.collect_matches(node, ranges, cols_at, scratch);
    for mi in 0..scratch[node].vals.len() {
        let v = scratch[node].vals[mi];
        {
            let s = &mut scratch[node];
            s.saved.clear();
            for (pi, &(ri, _)) in parts.iter().enumerate() {
                s.saved.push(ranges[ri].clone());
                ranges[ri] = s.runs[mi * np + pi].clone();
            }
        }
        key_vals[depth] = v;
        emit_rec(spec, pre, depth + 1, ranges, cols_at, scratch, key_vals, payload_cols, out)?;
        let s = &mut scratch[node];
        for (pi, &(ri, _)) in parts.iter().enumerate() {
            ranges[ri] = s.saved[pi].clone();
        }
    }
    Ok(())
}

fn emit_cross(
    spec: &EvalSpec,
    payload_cols: &[(usize, usize)],
    key_arity: usize,
    ranges: &[Range<usize>],
    row: &mut Vec<Value>,
    rel_idx: usize,
    out: &mut Relation,
) -> Result<(), DataError> {
    if rel_idx == spec.rels.len() {
        out.push_row(row)?;
        return Ok(());
    }
    let my_cols: Vec<(usize, usize)> = payload_cols
        .iter()
        .enumerate()
        .filter(|(_, (ri, _))| *ri == rel_idx)
        .map(|(k, (_, ci))| (key_arity + k, *ci))
        .collect();
    if my_cols.is_empty() {
        // This relation contributes multiplicity only.
        for _ in ranges[rel_idx].clone() {
            emit_cross(spec, payload_cols, key_arity, ranges, row, rel_idx + 1, out)?;
        }
        return Ok(());
    }
    for r in ranges[rel_idx].clone() {
        for &(slot, ci) in &my_cols {
            row[slot] = spec.rels[rel_idx].value(r, ci);
        }
        emit_cross(spec, payload_cols, key_arity, ranges, row, rel_idx + 1, out)?;
    }
    Ok(())
}

// Re-export seek/run_end so downstream crates (LMFAO views) can reuse them
// without depending on the trie module path.
pub use crate::trie::{run_end as trie_run_end, seek as trie_seek};

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_data::{AttrType, Schema};
    use fdb_ring::{F64Ring, KeyedRing};

    /// R(a, b), S(b, c), T(c, x: f64)
    fn path_db() -> Database {
        let mut db = Database::new();
        db.add(
            "R",
            Relation::from_rows(
                Schema::of(&[("a", AttrType::Int), ("b", AttrType::Int)]),
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Int(10)],
                    vec![Value::Int(3), Value::Int(20)],
                ],
            )
            .unwrap(),
        );
        db.add(
            "S",
            Relation::from_rows(
                Schema::of(&[("b", AttrType::Int), ("c", AttrType::Int)]),
                vec![
                    vec![Value::Int(10), Value::Int(100)],
                    vec![Value::Int(10), Value::Int(200)],
                    vec![Value::Int(20), Value::Int(100)],
                    vec![Value::Int(30), Value::Int(300)],
                ],
            )
            .unwrap(),
        );
        db.add(
            "T",
            Relation::from_rows(
                Schema::of(&[("c", AttrType::Int), ("x", AttrType::Double)]),
                vec![
                    vec![Value::Int(100), Value::F64(1.5)],
                    vec![Value::Int(100), Value::F64(2.5)],
                    vec![Value::Int(200), Value::F64(4.0)],
                ],
            )
            .unwrap(),
        );
        db
    }

    /// Brute-force expected rows of R ⋈ S ⋈ T as (a, b, c, x).
    fn brute_join(db: &Database) -> Vec<(i64, i64, i64, f64)> {
        let (r, s, t) = (db.get("R").unwrap(), db.get("S").unwrap(), db.get("T").unwrap());
        let mut rows = Vec::new();
        for i in 0..r.len() {
            for j in 0..s.len() {
                for k in 0..t.len() {
                    let (a, b1) = (r.int_col(0)[i], r.int_col(1)[i]);
                    let (b2, c1) = (s.int_col(0)[j], s.int_col(1)[j]);
                    let (c2, x) = (t.int_col(0)[k], t.f64_col(1)[k]);
                    if b1 == b2 && c1 == c2 {
                        rows.push((a, b1, c1, x));
                    }
                }
            }
        }
        rows
    }

    #[test]
    fn count_matches_brute_force() {
        let db = path_db();
        let spec = EvalSpec::new(&db, &["R", "S", "T"], &[]).unwrap();
        assert_eq!(spec.count(), brute_join(&db).len() as i64);
    }

    #[test]
    fn sum_over_payload_matches_brute_force() {
        let db = path_db();
        let spec = EvalSpec::new(&db, &["R", "S", "T"], &[]).unwrap();
        let xcol = spec.col_index(2, "x").unwrap();
        let got = spec.eval(
            &F64Ring,
            |_, _| 1.0,
            |ri, rows| {
                if ri == 2 {
                    rows.map(|r| spec.relation(2).f64_col(xcol)[r]).sum()
                } else {
                    rows.len() as f64
                }
            },
        );
        let expect: f64 = brute_join(&db).iter().map(|&(_, _, _, x)| x).sum();
        assert!((got - expect).abs() < 1e-9, "got {got}, expect {expect}");
    }

    #[test]
    fn grouped_sum_by_key_variable() {
        // SUM(x) GROUP BY a, via the keyed ring.
        let db = path_db();
        let spec = EvalSpec::new(&db, &["R", "S", "T"], &["a"]).unwrap();
        let hg = spec.hypergraph();
        let a_var = hg.var_id("a").unwrap();
        let ring = KeyedRing::new(F64Ring, 1);
        let xcol = spec.col_index(2, "x").unwrap();
        let got = spec.eval(
            &ring,
            |var, v| {
                if var == a_var {
                    ring.tag(0, Value::Int(v), 1.0)
                } else {
                    ring.one()
                }
            },
            |ri, rows| {
                let total = if ri == 2 {
                    rows.map(|r| spec.relation(2).f64_col(xcol)[r]).sum()
                } else {
                    rows.len() as f64
                };
                ring.scalar(total)
            },
        );
        // Brute-force grouped sums.
        let mut expect: std::collections::BTreeMap<i64, f64> = Default::default();
        for (a, _, _, x) in brute_join(&db) {
            *expect.entry(a).or_default() += x;
        }
        for (a, x) in &expect {
            let key: Box<[Value]> = vec![Value::Int(*a)].into();
            let got_x = got.get(&key).copied().unwrap_or(0.0);
            assert!((got_x - x).abs() < 1e-9, "group {a}: {got_x} vs {x}");
        }
        assert_eq!(got.len(), expect.len());
    }

    #[test]
    fn materialized_join_matches_brute_force() {
        let db = path_db();
        let joined = materialize_join(&db, &["R", "S", "T"]).unwrap();
        let mut expect = brute_join(&db);
        let (ai, bi, ci, xi) = (
            joined.schema().require("a").unwrap(),
            joined.schema().require("b").unwrap(),
            joined.schema().require("c").unwrap(),
            joined.schema().require("x").unwrap(),
        );
        let mut got: Vec<(i64, i64, i64, f64)> = (0..joined.len())
            .map(|r| {
                (
                    joined.value(r, ai).as_int(),
                    joined.value(r, bi).as_int(),
                    joined.value(r, ci).as_int(),
                    joined.value(r, xi).as_f64(),
                )
            })
            .collect();
        got.sort_by(|p, q| p.partial_cmp(q).unwrap());
        expect.sort_by(|p, q| p.partial_cmp(q).unwrap());
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_relation_gives_zero() {
        let mut db = path_db();
        db.add("S", Relation::new(Schema::of(&[("b", AttrType::Int), ("c", AttrType::Int)])));
        let spec = EvalSpec::new(&db, &["R", "S", "T"], &[]).unwrap();
        assert_eq!(spec.count(), 0);
    }

    #[test]
    fn double_join_key_is_a_typed_error_not_a_panic() {
        // Two relations sharing a `Double` attribute make it a join
        // variable; preparation must reject it as a DataError (the
        // leapfrog walks integer key columns only).
        let mut db = Database::new();
        db.add(
            "R",
            Relation::from_rows(
                Schema::of(&[("k", AttrType::Double), ("a", AttrType::Int)]),
                vec![vec![Value::F64(1.0), Value::Int(1)]],
            )
            .unwrap(),
        );
        db.add(
            "S",
            Relation::from_rows(
                Schema::of(&[("k", AttrType::Double), ("b", AttrType::Int)]),
                vec![vec![Value::F64(1.0), Value::Int(2)]],
            )
            .unwrap(),
        );
        let err = match EvalSpec::new(&db, &["R", "S"], &[]) {
            Ok(_) => panic!("double join key must be rejected"),
            Err(e) => e,
        };
        // The hypergraph rejects it first (`Invalid`); the spec's own
        // `try_int_col` guard would report `TypeMismatch` if a caller
        // bypassed that (e.g. `with_order` with a hand-built order).
        assert!(
            matches!(
                &err,
                DataError::Invalid(m) if m.contains('k'))
                || matches!(&err, DataError::TypeMismatch { attribute, .. } if attribute == "k"),
            "expected a typed error naming `k`, got {err:?}"
        );
    }

    #[test]
    fn cyclic_query_rejected() {
        let mut db = Database::new();
        let sch = |a: &str, b: &str| Schema::of(&[(a, AttrType::Int), (b, AttrType::Int)]);
        for (n, s) in [("R", sch("a", "b")), ("S", sch("b", "c")), ("T", sch("a", "c"))] {
            db.add(n, Relation::from_rows(s, vec![vec![Value::Int(1), Value::Int(1)]]).unwrap());
        }
        assert!(EvalSpec::new(&db, &["R", "S", "T"], &[]).is_err());
    }
}
