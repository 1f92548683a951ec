//! The covariance ring of paper §5.2.
//!
//! An element is a triple `(c, s, Q)`: a count scalar, a sum vector of the
//! `n` continuous features, and the (non-centred) second-moment matrix
//! `Q = Σ x xᵀ`, stored as the lower triangle of a symmetric `n×n` matrix.
//!
//! Operations (verbatim from the paper):
//! ```text
//! (c1,s1,Q1) + (c2,s2,Q2) = (c1+c2, s1+s2, Q1+Q2)
//! (c1,s1,Q1) * (c2,s2,Q2) = (c1·c2, c2·s1 + c1·s2,
//!                            c2·Q1 + c1·Q2 + s1·s2ᵀ + s2·s1ᵀ)
//! 0 = (0, 0ⁿ, 0ⁿˣⁿ)      1 = (1, 0ⁿ, 0ⁿˣⁿ)
//! ```
//! A base tuple with feature vector `x` is *lifted* to `(1, x, x xᵀ)`; the
//! sum-product over a (factorized) join then yields `SUM(1)`, `SUM(xᵢ)` and
//! `SUM(xᵢ·xⱼ)` for all pairs in one pass, sharing the lower-degree
//! aggregates inside the higher-degree ones — the sharing LMFAO and F-IVM
//! exploit (Figure 4).

use crate::{Ring, Semiring};

/// A covariance-ring element `(c, s, Q)` with `Q` stored lower-triangular:
/// entry `(i, j)` for `j <= i` lives at `q[i*(i+1)/2 + j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CovTriple {
    /// Count component `SUM(1)`.
    pub c: f64,
    /// Sum component `SUM(x_i)`, length `n`.
    pub s: Box<[f64]>,
    /// Second moments `SUM(x_i * x_j)`, lower triangle, length `n(n+1)/2`.
    pub q: Box<[f64]>,
}

impl CovTriple {
    /// Number of features `n`.
    pub fn dim(&self) -> usize {
        self.s.len()
    }

    /// The `(i, j)` entry of `Q` (symmetric access).
    #[inline]
    pub fn q_at(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.q[i * (i + 1) / 2 + j]
    }

    /// Dense `n×n` copy of `Q` (row-major), for linear-algebra consumers.
    pub fn q_dense(&self) -> Vec<f64> {
        let n = self.dim();
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                m[i * n + j] = self.q_at(i, j);
            }
        }
        m
    }
}

/// The covariance ring over `n` continuous features. The dimension is
/// runtime state of the ring object, so one generic evaluator serves any
/// feature count.
#[derive(Debug, Clone, Copy)]
pub struct CovRing {
    n: usize,
}

impl CovRing {
    /// A covariance ring over `n` features.
    pub fn new(n: usize) -> Self {
        Self { n }
    }

    /// The feature dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    fn tri_len(&self) -> usize {
        self.n * (self.n + 1) / 2
    }

    /// Lifts a full feature vector `x` to `(1, x, x xᵀ)`.
    pub fn lift(&self, x: &[f64]) -> CovTriple {
        assert_eq!(x.len(), self.n, "lift: wrong feature dimension");
        let mut q = vec![0.0; self.tri_len()];
        let mut k = 0;
        for i in 0..self.n {
            for j in 0..=i {
                q[k] = x[i] * x[j];
                k += 1;
            }
        }
        CovTriple { c: 1.0, s: x.to_vec().into(), q: q.into() }
    }

    /// Lifts a *partial* tuple that only provides the features at positions
    /// `idx` (all others contribute 0). This is how relations in a join each
    /// lift only their own attributes; the ring product assembles the
    /// cross-relation products (§5.2).
    pub fn lift_sparse(&self, idx: &[usize], vals: &[f64]) -> CovTriple {
        debug_assert_eq!(idx.len(), vals.len());
        let mut s = vec![0.0; self.n];
        let mut q = vec![0.0; self.tri_len()];
        for (&i, &v) in idx.iter().zip(vals) {
            s[i] = v;
        }
        for (a, &i) in idx.iter().enumerate() {
            for &j in &idx[..=a] {
                let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
                q[hi * (hi + 1) / 2 + lo] = s[i] * s[j];
            }
        }
        CovTriple { c: 1.0, s: s.into(), q: q.into() }
    }

    /// Accumulates the lift of a partial tuple directly into `acc` —
    /// algebraically `add_assign(acc, lift_sparse(idx, vals))` without
    /// materializing the triple. The factorized leaf loop calls this once
    /// per row, so eliding the two `tri_len`-sized allocations per call is
    /// the covariance payload-update kernel of the batch layer; the
    /// materializing composition stays as the baseline arm.
    pub fn add_lift_sparse(&self, acc: &mut CovTriple, idx: &[usize], vals: &[f64]) {
        debug_assert_eq!(idx.len(), vals.len());
        acc.c += 1.0;
        for (&i, &v) in idx.iter().zip(vals) {
            acc.s[i] += v;
        }
        for (a, (&i, &vi)) in idx.iter().zip(vals).enumerate() {
            for (&j, &vj) in idx[..=a].iter().zip(&vals[..=a]) {
                let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
                acc.q[hi * (hi + 1) / 2 + lo] += vi * vj;
            }
        }
    }
}

impl Semiring for CovRing {
    type Elem = CovTriple;

    fn zero(&self) -> CovTriple {
        CovTriple { c: 0.0, s: vec![0.0; self.n].into(), q: vec![0.0; self.tri_len()].into() }
    }

    fn one(&self) -> CovTriple {
        CovTriple { c: 1.0, s: vec![0.0; self.n].into(), q: vec![0.0; self.tri_len()].into() }
    }

    fn add(&self, a: &CovTriple, b: &CovTriple) -> CovTriple {
        let mut out = a.clone();
        self.add_assign(&mut out, b);
        out
    }

    fn add_assign(&self, a: &mut CovTriple, b: &CovTriple) {
        a.c += b.c;
        for (x, y) in a.s.iter_mut().zip(b.s.iter()) {
            *x += *y;
        }
        for (x, y) in a.q.iter_mut().zip(b.q.iter()) {
            *x += *y;
        }
    }

    fn mul(&self, a: &CovTriple, b: &CovTriple) -> CovTriple {
        // Row-sliced form of the paper's product: per triangle row `i`,
        // the inner `j` pass runs over three contiguous `i+1`-length
        // slices with the row-invariant scalars hoisted — a fused
        // multiply-add shape the autovectorizer handles.
        let n = self.n;
        let mut s = vec![0.0; n];
        for i in 0..n {
            s[i] = b.c * a.s[i] + a.c * b.s[i];
        }
        let mut q = vec![0.0; self.tri_len()];
        for i in 0..n {
            let row = i * (i + 1) / 2;
            let (ai, bi, ac, bc) = (a.s[i], b.s[i], a.c, b.c);
            let (aq, bq) = (&a.q[row..row + i + 1], &b.q[row..row + i + 1]);
            let qo = &mut q[row..row + i + 1];
            for j in 0..=i {
                qo[j] = bc * aq[j] + ac * bq[j] + ai * b.s[j] + bi * a.s[j];
            }
        }
        CovTriple { c: a.c * b.c, s: s.into(), q: q.into() }
    }

    fn is_zero(&self, a: &CovTriple) -> bool {
        a.c == 0.0 && a.s.iter().all(|&x| x == 0.0) && a.q.iter().all(|&x| x == 0.0)
    }
}

impl Ring for CovRing {
    fn neg(&self, a: &CovTriple) -> CovTriple {
        CovTriple {
            c: -a.c,
            s: a.s.iter().map(|x| -x).collect(),
            q: a.q.iter().map(|x| -x).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(a: &CovTriple, b: &CovTriple, eps: f64) -> bool {
        (a.c - b.c).abs() <= eps
            && a.s.iter().zip(b.s.iter()).all(|(x, y)| (x - y).abs() <= eps)
            && a.q.iter().zip(b.q.iter()).all(|(x, y)| (x - y).abs() <= eps)
    }

    #[test]
    fn lift_full_matches_outer_product() {
        let ring = CovRing::new(3);
        let t = ring.lift(&[1.0, 2.0, 3.0]);
        assert_eq!(t.c, 1.0);
        assert_eq!(&t.s[..], &[1.0, 2.0, 3.0]);
        assert_eq!(t.q_at(0, 0), 1.0);
        assert_eq!(t.q_at(1, 0), 2.0);
        assert_eq!(t.q_at(2, 1), 6.0);
        assert_eq!(t.q_at(1, 2), 6.0); // symmetric access
        assert_eq!(t.q_dense()[2 * 3 + 2], 9.0);
    }

    #[test]
    fn product_of_disjoint_lifts_equals_joint_lift() {
        // A tuple split across two relations: features {0} and {1, 2}.
        let ring = CovRing::new(3);
        let a = ring.lift_sparse(&[0], &[5.0]);
        let b = ring.lift_sparse(&[1, 2], &[2.0, 3.0]);
        let joint = ring.lift(&[5.0, 2.0, 3.0]);
        assert!(approx(&ring.mul(&a, &b), &joint, 1e-12));
    }

    #[test]
    fn paper_figure10_triples() {
        // Figure 10: SUM(1), SUM(price), SUM(price * dish) with one feature
        // "price" (n = 1); the dish indicator is modelled as a second
        // feature with f(burger) = 1.
        // Left branch under burger: 2 day-customer combinations -> (2, 0, 0).
        // Right branch: items patty/bun/onion with prices 6, 2, 2 ->
        // (3, 10, ...). Product: (6, 20, ...); matches the paper's numbers.
        let ring = CovRing::new(1);
        let left = crate::sum(&ring, [ring.lift_sparse(&[], &[]), ring.lift_sparse(&[], &[])]);
        assert_eq!(left.c, 2.0);
        let right = crate::sum(&ring, [6.0, 2.0, 2.0].iter().map(|&p| ring.lift(&[p])));
        assert_eq!(right.c, 3.0);
        assert_eq!(right.s[0], 10.0);
        let burger = ring.mul(&left, &right);
        assert_eq!(burger.c, 6.0);
        assert_eq!(burger.s[0], 20.0); // SUM(price) under burger
    }

    proptest! {
        #[test]
        fn ring_laws_exact_on_integer_floats(
            av in proptest::collection::vec(-9i32..9, 3),
            bv in proptest::collection::vec(-9i32..9, 3),
            cv in proptest::collection::vec(-9i32..9, 3),
        ) {
            let ring = CovRing::new(3);
            let a = ring.lift(&av.iter().map(|&x| x as f64).collect::<Vec<_>>());
            let b = ring.lift(&bv.iter().map(|&x| x as f64).collect::<Vec<_>>());
            let c = ring.lift(&cv.iter().map(|&x| x as f64).collect::<Vec<_>>());
            // + laws
            prop_assert!(approx(&ring.add(&a, &b), &ring.add(&b, &a), 0.0));
            prop_assert!(approx(
                &ring.add(&ring.add(&a, &b), &c),
                &ring.add(&a, &ring.add(&b, &c)),
                0.0
            ));
            prop_assert!(approx(&ring.add(&a, &ring.zero()), &a, 0.0));
            // * laws
            prop_assert!(approx(&ring.mul(&a, &b), &ring.mul(&b, &a), 0.0));
            prop_assert!(approx(
                &ring.mul(&ring.mul(&a, &b), &c),
                &ring.mul(&a, &ring.mul(&b, &c)),
                0.0
            ));
            prop_assert!(approx(&ring.mul(&a, &ring.one()), &a, 0.0));
            prop_assert!(ring.is_zero(&ring.mul(&a, &ring.zero())));
            // distributivity
            prop_assert!(approx(
                &ring.mul(&a, &ring.add(&b, &c)),
                &ring.add(&ring.mul(&a, &b), &ring.mul(&a, &c)),
                0.0
            ));
            // additive inverse
            prop_assert!(ring.is_zero(&ring.add(&a, &ring.neg(&a))));
        }

        /// The row-sliced product against the textbook formula (§5.2)
        /// `(c_a·c_b, c_b·s_a + c_a·s_b, c_b·Q_a + c_a·Q_b + s_a·s_bᵀ +
        /// s_b·s_aᵀ)`, entry by entry — exact equality, not tolerance.
        #[test]
        fn mul_matches_textbook_formula(
            av in proptest::collection::vec(-9i32..9, 4),
            bv in proptest::collection::vec(-9i32..9, 4),
            cv in proptest::collection::vec(-9i32..9, 4),
        ) {
            let ring = CovRing::new(4);
            let lift = |v: &[i32]| ring.lift(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
            // Sums of lifts, so counts and moments are not just rank one.
            let a = ring.add(&lift(&av), &lift(&cv));
            let b = lift(&bv);
            let got = ring.mul(&a, &b);
            prop_assert_eq!(got.c, a.c * b.c);
            for i in 0..4 {
                prop_assert_eq!(got.s[i], b.c * a.s[i] + a.c * b.s[i]);
                for j in 0..=i {
                    let want = b.c * a.q_at(i, j) + a.c * b.q_at(i, j)
                        + a.s[i] * b.s[j] + b.s[i] * a.s[j];
                    prop_assert_eq!(got.q_at(i, j), want, "q[{}][{}]", i, j);
                }
            }
        }

        /// Fused accumulate ≡ materialize-then-add, on random sparse rows
        /// (distinct feature positions, as the evaluator guarantees).
        #[test]
        fn add_lift_sparse_matches_composition(
            rows in proptest::collection::vec(
                proptest::collection::vec((0usize..5, -9i32..9), 0..5), 0..8),
        ) {
            let ring = CovRing::new(5);
            let mut fused = ring.zero();
            let mut composed = ring.zero();
            for row in &rows {
                // Dedupe positions (last write wins, as in a BTreeMap):
                // the evaluator only ever lifts distinct feature columns.
                let dedup: std::collections::BTreeMap<usize, i32> =
                    row.iter().copied().collect();
                let idx: Vec<usize> = dedup.keys().copied().collect();
                let vals: Vec<f64> = dedup.values().map(|&v| v as f64).collect();
                ring.add_lift_sparse(&mut fused, &idx, &vals);
                ring.add_assign(&mut composed, &ring.lift_sparse(&idx, &vals));
            }
            prop_assert!(approx(&fused, &composed, 0.0));
        }

        #[test]
        fn sum_of_lifts_matches_moments(
            rows in proptest::collection::vec(proptest::collection::vec(-10i32..10, 2), 1..20)
        ) {
            let ring = CovRing::new(2);
            let total = crate::sum(&ring, rows.iter().map(|r| {
                ring.lift(&[r[0] as f64, r[1] as f64])
            }));
            let count = rows.len() as f64;
            let s0: f64 = rows.iter().map(|r| r[0] as f64).sum();
            let q01: f64 = rows.iter().map(|r| (r[0] * r[1]) as f64).sum();
            prop_assert_eq!(total.c, count);
            prop_assert_eq!(total.s[0], s0);
            prop_assert_eq!(total.q_at(0, 1), q01);
        }
    }
}
