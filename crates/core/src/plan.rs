//! Top-down aggregate decomposition and view consolidation (LMFAO §4).
//!
//! Each aggregate of a batch is decomposed along the join tree: the
//! restriction of the aggregate to a subtree becomes a *partial aggregate*
//! computed at that subtree's root; a subtree containing none of the
//! aggregate's attributes contributes its join **count** (the rule of §4
//! "Sharing computation"). Identical partial aggregates across the batch
//! are detected by signature and computed once; partials at a node are
//! consolidated into *views* (one per group-by signature), ready for the
//! shared scan in [`crate::exec`].

use crate::batch::{key_names, sorted_keys, Aggregate, FilterOp, Fn1, GroupKey};
use crate::group::{GroupIndex, KeySpace, DENSE_GROUP_BYTES, DENSE_KEY_LIMIT};
use fdb_data::{DataError, Database, Relation};
use fdb_factorized::hypergraph::Hypergraph;
use std::collections::{HashMap, HashSet};

/// One partial aggregate inside a view: local factors, local filter, and
/// the child-view slots it multiplies in.
#[derive(Debug)]
pub(crate) struct SlotPlan {
    /// Local factors: (column, function).
    pub(crate) factors: Vec<(usize, Fn1)>,
    /// Local filter conditions (column, op) — all must pass.
    pub(crate) filter: Vec<(usize, FilterOp)>,
    /// Per node-child (aligned with `NodePlan::children`): the slot index
    /// inside the child view this slot multiplies in.
    pub(crate) child_slots: Vec<usize>,
}

/// How a view's group accumulators are represented: payload width plus an
/// optional dense [`KeySpace`] (hash fallback when `None`). Filled in by
/// [`Plan::finalize`] once all slots are registered.
#[derive(Debug, Default)]
pub(crate) struct GroupSpec {
    pub(crate) slots: usize,
    pub(crate) space: Option<KeySpace>,
}

impl GroupSpec {
    /// A fresh accumulator for one join-key entry of the view.
    pub(crate) fn new_index(&self) -> GroupIndex {
        match &self.space {
            Some(space) => GroupIndex::dense(space.clone(), self.slots),
            None => GroupIndex::hash(self.slots),
        }
    }
}

/// A consolidated view at a node: one group-by signature, many slots.
#[derive(Debug)]
pub(crate) struct ViewPlan {
    /// Bubbled group-by keys, sorted by canonical name.
    pub(crate) group_keys: Vec<GroupKey>,
    /// The canonical names of `group_keys` (what signatures, consolidation
    /// and results go by).
    pub(crate) group_attrs: Vec<String>,
    /// Local group columns: (position in group key, column in relation).
    /// A bucket key's column is coded through the cuts at
    /// `group_keys[position]`.
    pub(crate) local_groups: Vec<(usize, usize)>,
    /// Per node-child: (child view index, mapping (my position, child
    /// position) for the child's group values).
    pub(crate) child_views: Vec<(usize, Vec<(usize, usize)>)>,
    pub(crate) slots: Vec<SlotPlan>,
    /// Group-accumulator representation (set by [`Plan::finalize`]).
    pub(crate) spec: GroupSpec,
}

/// Per-node plan state: join-tree wiring plus the node's views.
#[derive(Debug)]
pub(crate) struct NodePlan {
    /// Key-to-parent columns in this relation (empty at the root).
    pub(crate) key_cols: Vec<usize>,
    /// Child node (edge) ids.
    pub(crate) children: Vec<usize>,
    /// For each child: the columns *in this relation* holding the child's
    /// key attributes.
    pub(crate) child_key_cols: Vec<Vec<usize>>,
    pub(crate) views: Vec<ViewPlan>,
    /// Dense code space of `key_cols` (set by [`Plan::finalize`]; `None`
    /// keeps this node's view maps on the hash fallback).
    pub(crate) key_space: Option<KeySpace>,
    /// Signature → (view, slot) registry for sharing.
    pub(crate) slot_registry: HashMap<String, (usize, usize)>,
    /// Group-signature → view registry for consolidation.
    pub(crate) view_registry: HashMap<String, usize>,
}

/// One computed view: `join key to parent` → group accumulator.
///
/// Both levels are code-indexed when the planner could bound the key
/// spaces: the outer level by the node relation's key-column ranges (a
/// slot table, 4 bytes per code), the inner level by the view's group
/// attribute ranges (a payload per code). Either level independently
/// falls back to hashing.
#[derive(Debug, Clone)]
pub(crate) enum ViewData {
    /// Outer keys dense-coded by the node's [`NodePlan::key_space`].
    Dense {
        /// The join-key code space.
        space: KeySpace,
        /// Code → index into `entries` (`u32::MAX` = absent).
        slot_of: Vec<u32>,
        /// `(code, accumulator)` in first-touch order.
        entries: Vec<(u32, GroupIndex)>,
    },
    /// Hash fallback for unbounded join-key spaces.
    Hash(HashMap<Box<[i64]>, GroupIndex>),
}

impl ViewData {
    /// An empty view over the node's (optional) join-key space.
    pub(crate) fn new(key_space: Option<&KeySpace>) -> ViewData {
        match key_space {
            Some(space) => ViewData::Dense {
                space: space.clone(),
                slot_of: vec![u32::MAX; space.size() as usize],
                entries: Vec::new(),
            },
            None => ViewData::Hash(HashMap::new()),
        }
    }

    /// The accumulator under join key `key`, if present.
    #[inline]
    pub(crate) fn get(&self, key: &[i64]) -> Option<&GroupIndex> {
        match self {
            ViewData::Dense { space, slot_of, entries } => {
                let slot = slot_of[space.encode(key)? as usize];
                if slot == u32::MAX {
                    return None;
                }
                Some(&entries[slot as usize].1)
            }
            ViewData::Hash(map) => map.get(key),
        }
    }

    /// The join-key code space of a dense view (`None` for the hash
    /// fallback) — how the batched scan decides whether a child view can
    /// be probed by pre-encoded code ([`ViewData::get_by_code`]).
    pub(crate) fn key_space(&self) -> Option<&KeySpace> {
        match self {
            ViewData::Dense { space, .. } => Some(space),
            ViewData::Hash(_) => None,
        }
    }

    /// [`ViewData::get`] by a join-key code pre-encoded against this
    /// view's [`ViewData::key_space`] ([`crate::kernel::encode_codes`]);
    /// [`crate::kernel::OOB_CODE`] misses, like an out-of-range key.
    /// Dense views only; callers gate on `key_space`.
    #[inline]
    pub(crate) fn get_by_code(&self, code: u64) -> Option<&GroupIndex> {
        match self {
            ViewData::Dense { slot_of, entries, .. } => {
                let slot = *slot_of.get(code as usize)?;
                (slot != u32::MAX).then(|| &entries[slot as usize].1)
            }
            ViewData::Hash(_) => {
                unreachable!("get_by_code requires a dense view; gate on key_space")
            }
        }
    }

    /// The accumulator under join key `key`, created via `spec` if absent.
    #[inline]
    pub(crate) fn entry_mut(&mut self, key: &[i64], spec: &GroupSpec) -> &mut GroupIndex {
        match self {
            ViewData::Dense { space, slot_of, entries } => {
                let code =
                    space.encode(key).expect("view keys come from the node's own key columns")
                        as usize;
                if slot_of[code] == u32::MAX {
                    slot_of[code] = entries.len() as u32;
                    entries.push((code as u32, spec.new_index()));
                }
                &mut entries[slot_of[code] as usize].1
            }
            ViewData::Hash(map) => {
                if !map.contains_key(key) {
                    map.insert(key.into(), spec.new_index());
                }
                map.get_mut(key).expect("ensured above")
            }
        }
    }

    /// [`ViewData::entry_mut`] by pre-encoded join-key code — the batched
    /// node scan encodes a whole batch's keys in one column-wise pass
    /// ([`crate::kernel::encode_codes`]) and resolves entries per row
    /// without re-encoding. Dense views only; callers gate on the node's
    /// `key_space` (the same spaces both sides encode against, so codes
    /// are always in range).
    #[inline]
    pub(crate) fn entry_mut_by_code(&mut self, code: u64, spec: &GroupSpec) -> &mut GroupIndex {
        match self {
            ViewData::Dense { slot_of, entries, .. } => {
                let c = code as usize;
                if slot_of[c] == u32::MAX {
                    slot_of[c] = entries.len() as u32;
                    entries.push((code as u32, spec.new_index()));
                }
                &mut entries[slot_of[c] as usize].1
            }
            ViewData::Hash(_) => {
                unreachable!("entry_mut_by_code requires a dense view; gate on key_space")
            }
        }
    }

    /// Approximate heap bytes of this view — what the cross-batch
    /// [`crate::viewcache::ViewCache`] charges against its byte budget.
    pub(crate) fn byte_size(&self) -> usize {
        match self {
            ViewData::Dense { space, slot_of, entries } => {
                space.byte_size()
                    + slot_of.len() * 4
                    + entries.iter().map(|(_, gi)| 4 + gi.byte_size()).sum::<usize>()
            }
            ViewData::Hash(map) => {
                map.iter().map(|(k, gi)| k.len() * 8 + 64 + gi.byte_size()).sum::<usize>()
            }
        }
    }

    /// True if no join key has been touched.
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            ViewData::Dense { entries, .. } => entries.is_empty(),
            ViewData::Hash(map) => map.is_empty(),
        }
    }

    /// Calls `f` with every join key this view holds an entry under —
    /// the changed keys of a delta view, which the maintenance path
    /// matches its parent's rows against.
    pub(crate) fn for_each_key(&self, mut f: impl FnMut(&[i64])) {
        match self {
            ViewData::Dense { space, entries, .. } => {
                let mut key = Vec::with_capacity(space.arity());
                for &(code, _) in entries {
                    space.decode(code as u64, &mut key);
                    f(&key);
                }
            }
            ViewData::Hash(map) => map.keys().for_each(|k| f(k)),
        }
    }

    /// Multiplies every payload by `factor` (delta negation for deletes).
    pub(crate) fn scale(&mut self, factor: f64) {
        match self {
            ViewData::Dense { entries, .. } => {
                for (_, gi) in entries.iter_mut() {
                    gi.scale(factor);
                }
            }
            ViewData::Hash(map) => {
                for gi in map.values_mut() {
                    gi.scale(factor);
                }
            }
        }
    }

    /// True if this materialized view still uses the representation a
    /// plan with outer space `key_space` and group spec `spec` would
    /// build — the condition under which freshly computed delta views
    /// merge into it without decoding ([`ViewData::merge_from`] requires
    /// matching outer representations, and dense group payloads must
    /// share their [`KeySpace`] for new keys to encode). The delta
    /// maintenance path falls back to full recomputation when this fails
    /// (e.g. an insert extended a column's range, changing the dense
    /// space a fresh plan derives).
    pub(crate) fn compatible(&self, key_space: Option<&KeySpace>, spec: &GroupSpec) -> bool {
        let outer_ok = match (self, key_space) {
            (ViewData::Dense { space, .. }, Some(ks)) => space == ks,
            (ViewData::Hash(_), None) => true,
            _ => false,
        };
        if !outer_ok {
            return false;
        }
        // Accumulators within one view are uniform (all built from the
        // view's spec), so checking one representative suffices.
        let gi_ok = |gi: &GroupIndex| match (gi, &spec.space) {
            (GroupIndex::Dense { space, slots, .. }, Some(sp)) => {
                space == sp && *slots == spec.slots
            }
            (GroupIndex::Hash { slots, .. }, None) => *slots == spec.slots,
            _ => false,
        };
        match self {
            ViewData::Dense { entries, .. } => entries.first().map(|(_, gi)| gi_ok(gi)),
            ViewData::Hash(map) => map.values().next().map(gi_ok),
        }
        .unwrap_or(true)
    }

    /// Merges `other` into `self`, summing payloads of equal
    /// `(join key, group key)` pairs. Both sides stem from the same node
    /// plan, so the outer representations line up.
    pub(crate) fn merge_from(&mut self, other: ViewData) {
        match (self, other) {
            (ViewData::Dense { slot_of, entries, .. }, ViewData::Dense { entries: oe, .. }) => {
                for (code, gi) in oe {
                    if slot_of[code as usize] == u32::MAX {
                        slot_of[code as usize] = entries.len() as u32;
                        entries.push((code, gi));
                    } else {
                        entries[slot_of[code as usize] as usize].1.merge_from(&gi);
                    }
                }
            }
            (ViewData::Hash(map), ViewData::Hash(om)) => {
                for (key, gi) in om {
                    match map.get_mut(&key) {
                        Some(mine) => mine.merge_from(&gi),
                        None => {
                            map.insert(key, gi);
                        }
                    }
                }
            }
            _ => unreachable!("chunks of one plan share the outer representation"),
        }
    }
}

/// The full batch plan: join tree, node plans, and attribute ownership.
///
/// A plan holds no relation, only each node's content id, so it can
/// outlive the `Database` it was built from without keeping any table
/// alive: the delta-maintenance state keeps its prepare-time plan across
/// `apply_delta` calls, bumping only the updated relation's id. Whoever
/// scans a node passes its rows in, from the database it borrows.
pub(crate) struct Plan {
    /// Per node: the [`Relation::data_id`] its views are computed from —
    /// the content identity embedded in the node's signature.
    pub(crate) ids: Vec<u64>,
    pub(crate) nodes: Vec<NodePlan>,
    /// Bottom-up processing order (children before parents).
    pub(crate) order: Vec<usize>,
    pub(crate) root: usize,
    /// Attribute → (owning node, column) for non-key attributes.
    pub(crate) owner: HashMap<String, (usize, usize)>,
    /// Per node: the set of nodes in its subtree.
    pub(crate) subtree: Vec<HashSet<usize>>,
    /// Per node: the id-free part of its signature — dense budget, key
    /// columns, views and slots — formatted once by [`Plan::finalize`].
    bodies: Vec<String>,
}

/// The relations `names` of `db`, in order — the rows a plan over those
/// names scans, node by node.
pub(crate) fn relations<'d>(
    db: &'d Database,
    names: &[&str],
) -> Result<Vec<&'d Relation>, DataError> {
    names.iter().map(|r| db.get(r)).collect()
}

impl Plan {
    /// Builds the join-tree skeleton (no views yet) for the natural join
    /// of `relations`, rooted at the largest relation (the fact table).
    pub(crate) fn build(db: &Database, relations: &[&str]) -> Result<Self, DataError> {
        Self::build_at(db, relations, None)
    }

    /// [`Plan::build`] with an explicit root override. The maintenance
    /// path pins the prepare-time root so the tree shape — and with it
    /// the per-node maintained views — stays stable even when deltas
    /// change which relation is largest.
    pub(crate) fn build_at(
        db: &Database,
        relations: &[&str],
        root: Option<usize>,
    ) -> Result<Self, DataError> {
        let hg = Hypergraph::join_keys_plus(db, relations, &[])?;
        let jt =
            hg.join_tree().ok_or_else(|| DataError::Invalid("cyclic join key graph".into()))?;
        let rels = self::relations(db, relations)?;
        // Root at the largest relation (the fact table) unless pinned.
        let root = match root {
            Some(r) if r < rels.len() => r,
            _ => (0..rels.len()).max_by_key(|&i| rels[i].len()).unwrap_or(0),
        };
        let jt = jt.rerooted(root);
        let n = relations.len();
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let key_attrs: Vec<String> = match jt.parent[i] {
                Some(p) => hg.edges()[i]
                    .vars
                    .iter()
                    .filter(|v| hg.edges()[p].vars.contains(v))
                    .map(|&v| hg.vars()[v].clone())
                    .collect(),
                None => vec![],
            };
            let key_cols: Vec<usize> =
                key_attrs.iter().map(|a| rels[i].schema().require(a)).collect::<Result<_, _>>()?;
            nodes.push(NodePlan {
                key_cols,
                children: jt.children(i),
                child_key_cols: vec![],
                views: vec![],
                key_space: None,
                slot_registry: HashMap::new(),
                view_registry: HashMap::new(),
            });
        }
        // child_key_cols: resolve each child's key attrs inside this node's
        // relation (the attr names are shared by construction).
        for i in 0..n {
            let children = nodes[i].children.clone();
            let mut ckc = Vec::with_capacity(children.len());
            for &c in &children {
                let cols: Vec<usize> = nodes[c]
                    .key_cols
                    .iter()
                    .map(|&cc| {
                        let name = &rels[c].schema().attr(cc).name;
                        rels[i].schema().require(name)
                    })
                    .collect::<Result<_, _>>()?;
                ckc.push(cols);
            }
            nodes[i].child_key_cols = ckc;
        }
        // Bottom-up order from the GYO/reroot order (leaves first).
        let order = jt.order.clone();
        // Attribute ownership: non-key attributes appear in exactly one
        // relation.
        let mut owner: HashMap<String, (usize, usize)> = HashMap::new();
        for (i, rel) in rels.iter().enumerate() {
            for (ci, a) in rel.schema().attrs().iter().enumerate() {
                if hg.var_id(&a.name).is_none() {
                    owner.insert(a.name.clone(), (i, ci));
                }
            }
        }
        // Subtree node sets.
        let mut subtree: Vec<HashSet<usize>> = (0..n).map(|i| HashSet::from([i])).collect();
        for &i in &order {
            if let Some(p) = jt.parent[i] {
                let s = subtree[i].clone();
                subtree[p].extend(s);
            }
        }
        let ids = rels.iter().map(|r| r.data_id()).collect();
        Ok(Plan { ids, nodes, order, root, owner, subtree, bodies: Vec::new() })
    }

    /// Resolves an aggregate attribute, erroring on join keys / unknowns.
    fn resolve(&self, attr: &str) -> Result<(usize, usize), DataError> {
        self.owner.get(attr).copied().ok_or_else(|| {
            DataError::Invalid(format!(
                "aggregate attribute `{attr}` must be a non-join attribute of exactly one relation"
            ))
        })
    }

    /// Decomposes aggregate `agg_idx` at `node`, registering views/slots;
    /// returns `(view, slot)` at this node.
    pub(crate) fn decompose(
        &mut self,
        agg: &Aggregate,
        agg_idx: usize,
        node: usize,
        share: bool,
    ) -> Result<(usize, usize), DataError> {
        // Children first.
        let children = self.nodes[node].children.clone();
        let mut child_results = Vec::with_capacity(children.len());
        for &c in &children {
            child_results.push(self.decompose(agg, agg_idx, c, share)?);
        }
        // Local pieces.
        let mut local_factors: Vec<(usize, Fn1)> = Vec::new();
        for (a, f) in &agg.factors {
            let (n, col) = self.resolve(a)?;
            // Factors owned elsewhere are handled by the recursion into
            // the owning subtree; only this node's columns matter here.
            if n == node {
                local_factors.push((col, *f));
            }
        }
        local_factors.sort_by_key(|&(c, f)| (c, f as u8));
        let mut local_filter: Vec<(usize, FilterOp)> = Vec::new();
        for (a, op) in &agg.filter {
            let (n, col) = self.resolve(a)?;
            if n == node {
                local_filter.push((col, op.clone()));
            }
        }
        local_filter.sort_by_key(|(c, _)| *c);
        let mut local_group_keys: Vec<&GroupKey> = Vec::new();
        let mut group_keys: Vec<GroupKey> = Vec::new();
        for g in &agg.group_by {
            let (n, _col) = self.resolve(g.attr())?;
            if n == node {
                local_group_keys.push(g);
            }
            if self.subtree[node].contains(&n) {
                group_keys.push(g.clone());
            }
        }
        let group_keys = sorted_keys(&group_keys);
        let group_attrs = key_names(&group_keys);

        // Signatures.
        let mut sig = String::new();
        use std::fmt::Write as _;
        for (c, f) in &local_factors {
            let _ = write!(sig, "f{c}.{};", *f as u8);
        }
        for (c, op) in &local_filter {
            let _ = write!(sig, "w{c}.{op:?};");
        }
        let _ = write!(sig, "g{};", group_attrs.join(","));
        for (v, s) in &child_results {
            let _ = write!(sig, "c{v}.{s};");
        }
        let mut view_sig = format!("g:{}", group_attrs.join(","));
        if !share {
            // No sharing: every aggregate gets private views and slots.
            let _ = write!(sig, "#agg{agg_idx}");
            let _ = write!(view_sig, "#agg{agg_idx}");
        }
        if let Some(&hit) = self.nodes[node].slot_registry.get(&sig) {
            return Ok(hit);
        }
        // Find or create the view.
        let view_idx = match self.nodes[node].view_registry.get(&view_sig) {
            Some(&v) => v,
            None => {
                let mut local_groups: Vec<(usize, usize)> = local_group_keys
                    .iter()
                    .map(|g| {
                        let name = g.name();
                        let pos = group_attrs.iter().position(|x| *x == name).expect("local ⊆ all");
                        let (_, col) = self.owner[g.attr()];
                        (pos, col)
                    })
                    .collect();
                // A key listed twice in the aggregate is one position.
                local_groups.sort_unstable();
                local_groups.dedup();
                // Child view + group mapping per child. The child view for
                // this group signature is the view its (view,slot) result
                // lives in — recorded in child_results.
                let mut child_views = Vec::with_capacity(children.len());
                for (pos, &c) in children.iter().enumerate() {
                    let (cv, _) = child_results[pos];
                    let mapping: Vec<(usize, usize)> = self.nodes[c].views[cv]
                        .group_attrs
                        .iter()
                        .enumerate()
                        .map(|(cpos, g)| {
                            let mypos =
                                group_attrs.iter().position(|x| x == g).expect("child ⊆ all");
                            (mypos, cpos)
                        })
                        .collect();
                    child_views.push((cv, mapping));
                }
                let v = ViewPlan {
                    group_keys,
                    group_attrs: group_attrs.clone(),
                    local_groups,
                    child_views,
                    slots: vec![],
                    spec: GroupSpec::default(),
                };
                self.nodes[node].views.push(v);
                let idx = self.nodes[node].views.len() - 1;
                self.nodes[node].view_registry.insert(view_sig, idx);
                idx
            }
        };
        // Consistency: a shared view must agree on which child views feed it.
        debug_assert!(self.nodes[node].views[view_idx]
            .child_views
            .iter()
            .zip(&child_results)
            .all(|((cv, _), (rv, _))| cv == rv));
        let slot = SlotPlan {
            factors: local_factors,
            filter: local_filter,
            child_slots: child_results.iter().map(|&(_, s)| s).collect(),
        };
        self.nodes[node].views[view_idx].slots.push(slot);
        let slot_idx = self.nodes[node].views[view_idx].slots.len() - 1;
        self.nodes[node].slot_registry.insert(sig, (view_idx, slot_idx));
        Ok((view_idx, slot_idx))
    }

    /// Canonical per-subtree plan signatures — the cross-batch
    /// [`crate::viewcache::ViewCache`] keys, one per node, computed after
    /// [`Plan::finalize`].
    ///
    /// The signature of node `n` serializes everything the node's
    /// materialized `Vec<ViewData>` can depend on: the content identity
    /// ([`Relation::data_id`]) of every relation in `n`'s subtree, the
    /// dense-representation budget, and — recursively — the complete node
    /// plans of the subtree (key columns, view group wiring, and every
    /// slot's factors, filters, and child-slot indices). Two plans whose
    /// subtrees serialize identically provably materialize byte-identical
    /// views, so a cached `Vec<ViewData>` keyed on the signature can be
    /// served in place of a rescan.
    ///
    /// **Residual-filter analysis** (LMFAO's decisive optimisation for
    /// iterative workloads — a decision-tree trainer issues one batch per
    /// node over the *same* join tree, differing only in split filters)
    /// falls out of this canonicalization rather than needing a diff pass:
    /// [`Plan::decompose`] registers a filter only at the relation that
    /// owns the filtered attribute, and its effect propagates upward only
    /// through the child-slot wiring of the nodes on the path from the
    /// owner to the root. A batch that differs from a cached one only by
    /// filters (or factors) on attributes owned *outside* a subtree
    /// therefore serializes that subtree identically — its views are the
    /// residue untouched by the new conditions, and only path-to-root
    /// nodes get fresh signatures (and fresh scans).
    pub(crate) fn subtree_signatures(&self) -> Vec<String> {
        let mut sigs: Vec<String> = vec![String::new(); self.nodes.len()];
        // Bottom-up: children's signatures exist before the parent embeds
        // them.
        for &n in &self.order {
            sigs[n] = self.node_signature(n, &sigs);
        }
        sigs
    }

    /// The signature of one node given its children's signatures in
    /// `sigs` — the incremental form of [`Plan::subtree_signatures`]: a
    /// delta changes only the owner→root path's signatures (off-path
    /// subtrees exclude the mutated relation), so the maintenance layer
    /// recomputes exactly those entries against its cached vector instead
    /// of re-serializing the whole plan per delta. Only the content id is
    /// formatted here; the rest of the node's own part was formatted once
    /// by [`Plan::finalize`].
    pub(crate) fn node_signature(&self, n: usize, sigs: &[String]) -> String {
        use std::fmt::Write as _;
        let np = &self.nodes[n];
        let body = &self.bodies[n];
        let mut s = String::with_capacity(24 + body.len());
        let _ = write!(s, "r{};", self.ids[n]);
        s.push_str(body);
        for (&c, cols) in np.children.iter().zip(&np.child_key_cols) {
            let _ = write!(s, "C{cols:?}[{}]", sigs[c]);
        }
        s
    }

    /// The id-free signature part of node `n`: everything its views depend
    /// on besides the relation content and the children's subtrees.
    fn body(&self, n: usize, dense_limit: u64) -> String {
        use std::fmt::Write as _;
        let np = &self.nodes[n];
        let mut s = String::new();
        let _ = write!(s, "d{dense_limit};k{:?};", np.key_cols);
        for vp in &np.views {
            let _ =
                write!(s, "V[g{:?};l{:?};w{:?};", vp.group_attrs, vp.local_groups, vp.child_views);
            for slot in &vp.slots {
                let _ = write!(s, "s{:?}.{:?}.{:?};", slot.factors, slot.filter, slot.child_slots);
            }
            s.push(']');
        }
        s
    }

    /// Chooses the accumulator representation for every node and view, once
    /// all aggregates are decomposed.
    ///
    /// * A node's **join-key space** comes from the min/max of its own key
    ///   columns (bounded by [`DENSE_KEY_LIMIT`]): probes from the parent
    ///   relation that fall outside simply miss, exactly like a hash miss.
    /// * A view's **group space** comes from the min/max of each group
    ///   attribute's owning column (bounded by `dense_limit` codes and
    ///   [`DENSE_GROUP_BYTES`] of payload): every group value ever written
    ///   originates from that column, so dense inserts cannot fall out of
    ///   range. A bucket key's range is its fixed code domain
    ///   `[0, cuts.len()]`, whatever the data.
    ///
    /// `dense_limit == 0` disables both dense paths (the Figure 6 hash
    /// baseline). `rels` are the node relations the plan was built from,
    /// in node order. Also formats every node's signature body.
    pub(crate) fn finalize(&mut self, rels: &[&Relation], dense_limit: u64) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let ranges: Option<Vec<(i64, i64)>> =
                node.key_cols.iter().map(|&c| rels[i].int_min_max(c)).collect();
            // The slot table costs 4 bytes per code *per view*, so besides
            // the absolute cap the space must be within a constant factor
            // of the relation's cardinality — a handful of rows with keys
            // scattered over a huge range hashes instead.
            let key_limit = DENSE_KEY_LIMIT.min(64 * rels[i].len() as u64 + 1024);
            node.key_space = match (dense_limit, ranges) {
                (0, _) | (_, None) => None,
                (_, Some(r)) => KeySpace::new(&r, key_limit),
            };
            for view in &mut node.views {
                view.spec.slots = view.slots.len();
                let ranges: Option<Vec<(i64, i64)>> = view
                    .group_keys
                    .iter()
                    .map(|g| match g.cuts() {
                        Some(cuts) => Some((0, cuts.len() as i64)),
                        None => {
                            let (n, c) = self.owner[g.attr()];
                            rels[n].int_min_max(c)
                        }
                    })
                    .collect();
                // The byte bound also keeps every code inside the `u32`
                // touch list of a dense accumulator, however large the
                // public `u64` knob is.
                let group_limit =
                    dense_limit.min(DENSE_GROUP_BYTES / (8 * view.slots.len().max(1) as u64));
                view.spec.space = ranges.and_then(|r| KeySpace::new(&r, group_limit));
            }
        }
        self.bodies = (0..self.nodes.len()).map(|n| self.body(n, dense_limit)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_retailer() -> (Database, Vec<&'static str>) {
        let ds = fdb_datasets::retailer(fdb_datasets::RetailerConfig::tiny());
        (ds.db, vec!["Inventory", "Location", "Census", "Item", "Weather"])
    }

    #[test]
    fn sharing_reduces_slot_count() {
        let (db, rels) = tiny_retailer();
        let batch = crate::batchgen::covariance_batch(
            &["prize", "maxtemp", "population", "inventoryunits"],
            &["rain", "category"],
        );
        let count_slots = |share: bool| -> usize {
            let mut plan = Plan::build(&db, &rels).unwrap();
            let root = plan.root;
            for (i, agg) in batch.aggs.iter().enumerate() {
                plan.decompose(agg, i, root, share).unwrap();
            }
            plan.nodes.iter().map(|n| n.views.iter().map(|v| v.slots.len()).sum::<usize>()).sum()
        };
        let shared = count_slots(true);
        let unshared = count_slots(false);
        assert!(
            shared * 2 < unshared,
            "sharing should cut slots at least 2x: {shared} vs {unshared}"
        );
    }

    #[test]
    fn join_key_as_factor_is_rejected() {
        let (db, rels) = tiny_retailer();
        let mut plan = Plan::build(&db, &rels).unwrap();
        let root = plan.root;
        let agg = Aggregate::sum("locn");
        assert!(plan.decompose(&agg, 0, root, true).is_err());
    }

    /// `dense_limit: u64::MAX` must not let a sparse group column size a
    /// dense accumulator: two values `2^27` apart with 64 slots would be a
    /// 64 GiB payload matrix — an abort, not an `Err`.
    #[test]
    fn dense_group_space_is_bounded_in_bytes() {
        use fdb_data::{AttrType, Schema, Value};
        let mut db = Database::new();
        let rows = [(0i64, 1.0), (1 << 27, 2.0), (0, 4.0)];
        db.add(
            "F",
            Relation::from_rows(
                Schema::of(&[("g", AttrType::Int), ("x", AttrType::Double)]),
                rows.iter().map(|&(g, x)| vec![Value::Int(g), Value::F64(x)]),
            )
            .unwrap(),
        );
        let mut batch = crate::batch::AggBatch::new();
        for k in 0..64 {
            batch.push(Aggregate::sum("x").by(&["g"]).filtered("x", FilterOp::Ge(k as f64 / 16.0)));
        }
        let mut plan = Plan::build(&db, &["F"]).unwrap();
        let root = plan.root;
        for (i, agg) in batch.aggs.iter().enumerate() {
            plan.decompose(agg, i, root, true).unwrap();
        }
        plan.finalize(&relations(&db, &["F"]).unwrap(), u64::MAX);
        let view = &plan.nodes[root].views[0];
        assert_eq!(view.slots.len(), 64);
        assert_eq!(view.spec.space, None, "2^27 codes x 64 slots exceeds the byte bound");
        let run = |dense_limit: u64| {
            let cfg = crate::EngineConfig { dense_limit, threads: 1, ..Default::default() };
            crate::exec::run_batch(&db, &["F"], &batch, &cfg).unwrap()
        };
        let (unbounded, default) = (run(u64::MAX), run(crate::group::DEFAULT_DENSE_GROUPS));
        for i in 0..batch.len() {
            assert_eq!(unbounded.grouped(i), default.grouped(i), "agg {i}");
        }
        assert_eq!(default.grouped(0)[&[0i64][..]], 5.0);
    }

    #[test]
    fn residual_filters_change_only_path_to_root_signatures() {
        // Two decision-node-style batches that differ ONLY in the
        // threshold of a filter on `prize` (owned by Item): every subtree
        // signature not containing Item must be identical across the two
        // plans — the residual the view cache serves — while Item's node
        // and everything on its path to the root must differ.
        let (db, rels) = tiny_retailer();
        let build = |t: f64| {
            let mut batch = crate::batch::AggBatch::new();
            batch.push(Aggregate::count());
            batch.push(Aggregate::sum("inventoryunits").filtered("prize", FilterOp::Ge(t)));
            batch.push(Aggregate::count().by(&["rain"]));
            let mut plan = Plan::build(&db, &rels).unwrap();
            let root = plan.root;
            for (i, agg) in batch.aggs.iter().enumerate() {
                plan.decompose(agg, i, root, true).unwrap();
            }
            plan.finalize(&relations(&db, &rels).unwrap(), 1024);
            plan
        };
        let a = build(5.0);
        let b = build(15.0);
        let (sa, sb) = (a.subtree_signatures(), b.subtree_signatures());
        let item = a.owner["prize"].0;
        let mut changed = 0;
        for n in 0..sa.len() {
            if a.subtree[n].contains(&item) {
                assert_ne!(sa[n], sb[n], "node {n} covers the filtered relation");
                changed += 1;
            } else {
                assert_eq!(sa[n], sb[n], "node {n} is residual and must be reusable");
            }
        }
        assert!(changed >= 2, "Item and the root both rescan");
        assert!(changed < sa.len(), "some subtree must be residual");
        // Same batch, same data → identical signatures throughout.
        let c = build(5.0);
        assert_eq!(sa, c.subtree_signatures());
        // A mutated relation refreshes every signature that covers it.
        let mut db2 = db;
        let row = db2.get("Weather").unwrap().row_vec(0);
        db2.get_mut("Weather").unwrap().push_row(&row).unwrap();
        let rels2 = rels;
        let mut plan2 = Plan::build(&db2, &rels2).unwrap();
        let root2 = plan2.root;
        let mut batch = crate::batch::AggBatch::new();
        batch.push(Aggregate::count());
        batch.push(Aggregate::sum("inventoryunits").filtered("prize", FilterOp::Ge(5.0)));
        batch.push(Aggregate::count().by(&["rain"]));
        for (i, agg) in batch.aggs.iter().enumerate() {
            plan2.decompose(agg, i, root2, true).unwrap();
        }
        plan2.finalize(&relations(&db2, &rels2).unwrap(), 1024);
        let s2 = plan2.subtree_signatures();
        let weather = plan2.owner["rain"].0;
        for n in 0..s2.len() {
            if plan2.subtree[n].contains(&weather) {
                assert_ne!(s2[n], sa[n], "node {n} covers the mutated relation");
            }
        }
        // The maintenance path's keys: bumping only the mutated relation's
        // id and re-signing its path reproduces the cold plan byte for byte.
        let mut a = a;
        a.ids[weather] = db2.get("Weather").unwrap().data_id();
        let mut inc = sa;
        for &n in &a.order {
            if a.subtree[n].contains(&weather) {
                inc[n] = a.node_signature(n, &inc);
            }
        }
        assert_eq!(inc, s2);
    }
}
