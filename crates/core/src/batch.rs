//! The aggregate-batch IR.
//!
//! Every aggregate the paper derives for learning tasks (§2) has the form
//!
//! ```text
//! SELECT G, SUM(f1(A1) * … * fk(Ak))  FROM  Q  [WHERE cond]  GROUP BY G
//! ```
//!
//! where `Q` is the feature extraction join, the `Ai` are continuous
//! attributes with unary functions `fi` (identity or square), `G` is a set
//! of [`GroupKey`]s — categorical attributes (the sparse-tensor group-by
//! encoding of §2.1) or bucketed attributes (a threshold family's
//! histogram, §2.2) — and `cond` is a per-tuple threshold/membership
//! condition (decision-tree costs, §2.2).
//!
//! Each non-key attribute lives in exactly one relation of the join, which
//! is what lets the engine decompose a batch along the join tree.

/// A unary function applied to an attribute inside the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fn1 {
    /// `x`
    Ident,
    /// `x * x`
    Square,
}

impl Fn1 {
    /// Applies the function.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Fn1::Ident => x,
            Fn1::Square => x * x,
        }
    }
}

/// A filter condition on a single attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterOp {
    /// `attr >= t` for continuous attributes.
    Ge(f64),
    /// `attr < t` for continuous attributes.
    Lt(f64),
    /// `attr = v` for categorical codes.
    Eq(i64),
    /// `attr != v` for categorical codes (split negation in trees).
    Ne(i64),
    /// `attr ∈ set` for categorical codes (sorted).
    In(Vec<i64>),
}

/// One group-by key of an aggregate.
///
/// A key maps each tuple to an `i64` code: a categorical attribute's own
/// code, or the bucket a (continuous or integer) attribute falls in. Both
/// kinds group alike in every engine, so a family of threshold conditions
/// `x ≥ t_0 … x ≥ t_k` is one grouped aggregate plus a suffix sum over the
/// buckets instead of `k + 1` filtered copies.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupKey {
    /// The integer code of a categorical attribute.
    Attr(String),
    /// The bucket of `attr` among the sorted `cuts`: code
    /// `cuts.partition_point(|c| *c <= x)`, the number of cuts at or below
    /// `x`. So `x < cuts[0]`, `-inf` and NaN land in bucket 0, `+inf` in
    /// bucket `cuts.len()`, and the code domain is `[0, cuts.len()]`
    /// whatever the data. Duplicate cuts leave the codes between them
    /// empty.
    Bucket {
        /// The bucketed attribute.
        attr: String,
        /// Finite cut points, sorted ascending (duplicates allowed).
        cuts: Vec<f64>,
    },
}

impl GroupKey {
    /// The attribute the key reads.
    pub fn attr(&self) -> &str {
        match self {
            GroupKey::Attr(a) | GroupKey::Bucket { attr: a, .. } => a,
        }
    }

    /// The cuts of a bucket key (`None` for a categorical one).
    pub fn cuts(&self) -> Option<&[f64]> {
        match self {
            GroupKey::Attr(_) => None,
            GroupKey::Bucket { cuts, .. } => Some(cuts),
        }
    }

    /// The canonical name: the attribute itself, or for a bucket key the
    /// attribute plus the bit patterns of its cuts, so two cut sets never
    /// share a name. Result key order, plan signatures, view consolidation
    /// and view-cache keys all go by it.
    pub fn name(&self) -> String {
        match self {
            GroupKey::Attr(a) => a.clone(),
            GroupKey::Bucket { attr, cuts } => {
                let bits: Vec<String> = cuts.iter().map(|c| format!("{:x}", c.to_bits())).collect();
                format!("{attr}#b[{}]", bits.join(","))
            }
        }
    }

    /// The group code of one value, read as a float (`x_f`) and as an
    /// integer (`x_i`) the way the engines read columns.
    #[inline]
    pub fn code(&self, x_f: f64, x_i: i64) -> i64 {
        match self {
            GroupKey::Attr(_) => x_i,
            GroupKey::Bucket { cuts, .. } => bucket_code(cuts, x_f),
        }
    }
}

/// The bucket of `x` among sorted `cuts`: the number of cuts at or below
/// `x` (NaN compares below every cut).
#[inline]
pub fn bucket_code(cuts: &[f64], x: f64) -> i64 {
    cuts.partition_point(|c| *c <= x) as i64
}

/// `keys` sorted by canonical name with duplicates dropped — the key
/// order of every grouped result.
pub(crate) fn sorted_keys(keys: &[GroupKey]) -> Vec<GroupKey> {
    let mut named: Vec<(String, GroupKey)> = keys.iter().map(|k| (k.name(), k.clone())).collect();
    named.sort_by(|a, b| a.0.cmp(&b.0));
    named.dedup_by(|a, b| a.0 == b.0);
    named.into_iter().map(|(_, k)| k).collect()
}

/// The canonical names of `keys`, in order.
pub(crate) fn key_names(keys: &[GroupKey]) -> Vec<String> {
    keys.iter().map(GroupKey::name).collect()
}

/// One aggregate query of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Product factors `(attribute, function)`; empty means `SUM(1)`.
    pub factors: Vec<(String, Fn1)>,
    /// Group-by keys (empty = scalar aggregate).
    pub group_by: Vec<GroupKey>,
    /// Conjunctive filter conditions `(attribute, op)` — empty = no filter.
    /// Conjunctions let decision-tree learners express a node's full path
    /// condition (§2.2).
    pub filter: Vec<(String, FilterOp)>,
}

impl Aggregate {
    /// `SUM(1)`.
    pub fn count() -> Self {
        Self { factors: vec![], group_by: vec![], filter: vec![] }
    }

    /// `SUM(a)`.
    pub fn sum(a: &str) -> Self {
        Self { factors: vec![(a.into(), Fn1::Ident)], group_by: vec![], filter: vec![] }
    }

    /// `SUM(a * b)` (or `SUM(a²)` when `a == b`).
    pub fn sum_prod(a: &str, b: &str) -> Self {
        if a == b {
            Self { factors: vec![(a.into(), Fn1::Square)], group_by: vec![], filter: vec![] }
        } else {
            Self {
                factors: vec![(a.into(), Fn1::Ident), (b.into(), Fn1::Ident)],
                group_by: vec![],
                filter: vec![],
            }
        }
    }

    /// Sets the group-by keys to the categorical attributes `groups`.
    pub fn by(mut self, groups: &[&str]) -> Self {
        self.group_by = groups.iter().map(|s| GroupKey::Attr(s.to_string())).collect();
        self
    }

    /// Adds a group-by key on the bucket of `attr` among `cuts`.
    pub fn by_bucket(mut self, attr: &str, cuts: &[f64]) -> Self {
        self.group_by.push(GroupKey::Bucket { attr: attr.to_string(), cuts: cuts.to_vec() });
        self
    }

    /// Adds one filter condition (conjunctive with existing ones).
    pub fn filtered(mut self, attr: &str, op: FilterOp) -> Self {
        self.filter.push((attr.to_string(), op));
        self
    }

    /// All attribute names this aggregate touches.
    pub fn attrs(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.factors.iter().map(|(a, _)| a.as_str()).collect();
        v.extend(self.group_by.iter().map(GroupKey::attr));
        for (a, _) in &self.filter {
            v.push(a);
        }
        v
    }
}

/// An ordered batch of aggregates evaluated together.
#[derive(Debug, Clone, Default)]
pub struct AggBatch {
    /// The aggregates, in result order.
    pub aggs: Vec<Aggregate>,
}

impl AggBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an aggregate, returning its index in the batch.
    pub fn push(&mut self, agg: Aggregate) -> usize {
        self.aggs.push(agg);
        self.aggs.len() - 1
    }

    /// Number of aggregates (the Figure 5 statistic).
    pub fn len(&self) -> usize {
        self.aggs.len()
    }

    /// True if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.aggs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Aggregate::count().factors.len(), 0);
        assert_eq!(Aggregate::sum("x").factors, vec![("x".to_string(), Fn1::Ident)]);
        assert_eq!(Aggregate::sum_prod("x", "x").factors, vec![("x".to_string(), Fn1::Square)]);
        assert_eq!(Aggregate::sum_prod("x", "y").factors.len(), 2);
        let g = Aggregate::count()
            .by(&["c"])
            .filtered("x", FilterOp::Ge(1.0))
            .filtered("z", FilterOp::Eq(2));
        assert_eq!(g.group_by, vec![GroupKey::Attr("c".to_string())]);
        assert_eq!(g.filter.len(), 2);
        assert_eq!(g.attrs(), vec!["c", "x", "z"]);
        let b = Aggregate::count().by(&["c"]).by_bucket("x", &[1.0, 2.0]);
        assert_eq!(b.group_by.len(), 2);
        assert_eq!(b.group_by[1].cuts(), Some(&[1.0, 2.0][..]));
        assert_eq!(b.attrs(), vec!["c", "x"]);
    }

    #[test]
    fn bucket_codes_follow_the_definition() {
        let cuts = [1.0, 2.0, 2.0, 4.0];
        let code = |x: f64| bucket_code(&cuts, x);
        assert_eq!(code(f64::NEG_INFINITY), 0);
        assert_eq!(code(f64::NAN), 0);
        assert_eq!(code(0.5), 0);
        assert_eq!(code(1.0), 1);
        assert_eq!(code(1.5), 1);
        // Duplicate cuts: bucket 2 stays empty.
        assert_eq!(code(2.0), 3);
        assert_eq!(code(4.0), 4);
        assert_eq!(code(f64::INFINITY), 4);
        let key = GroupKey::Bucket { attr: "x".into(), cuts: cuts.to_vec() };
        assert_eq!(key.code(3.0, 3), 3);
        assert_eq!(GroupKey::Attr("g".into()).code(3.5, 7), 7);
    }

    #[test]
    fn canonical_names_tell_cut_sets_apart() {
        let a = GroupKey::Bucket { attr: "x".into(), cuts: vec![1.0, 2.0] };
        let b = GroupKey::Bucket { attr: "x".into(), cuts: vec![1.0, 3.0] };
        let z = GroupKey::Bucket { attr: "x".into(), cuts: vec![-0.0] };
        let pz = GroupKey::Bucket { attr: "x".into(), cuts: vec![0.0] };
        assert_ne!(a.name(), b.name());
        assert_ne!(z.name(), pz.name());
        assert_eq!(GroupKey::Attr("x".into()).name(), "x");
        let sorted = sorted_keys(&[b.clone(), GroupKey::Attr("x".into()), a.clone(), b.clone()]);
        assert_eq!(key_names(&sorted), vec!["x".to_string(), a.name(), b.name()]);
    }

    #[test]
    fn fn1_apply() {
        assert_eq!(Fn1::Ident.apply(3.0), 3.0);
        assert_eq!(Fn1::Square.apply(3.0), 9.0);
    }

    #[test]
    fn batch_push() {
        let mut b = AggBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.push(Aggregate::count()), 0);
        assert_eq!(b.push(Aggregate::sum("x")), 1);
        assert_eq!(b.len(), 2);
    }
}
