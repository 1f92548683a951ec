//! # fdb-ring
//!
//! The (semi)ring abstraction behind factorized computation (paper §3.1):
//! one aggregation engine, parameterized by a ring, computes counts, sums,
//! grouped maps, probabilistic inference-style products — and, with the
//! **covariance ring** of §5.2, entire covariance matrices in a single pass.
//!
//! Rings are *objects*, not just types: a ring instance carries runtime
//! context such as the feature dimension of the covariance ring. This is the
//! "ring as interpreter" style of the FAQ framework — swapping the ring
//! object swaps the semantics of the same sum-product computation.
//!
//! * [`Semiring`] — `(D, +, *, 0, 1)` with distributivity.
//! * [`Ring`] — a semiring with additive inverses; the additive inverse is
//!   what lets incremental view maintenance treat inserts and deletes
//!   uniformly (multiplicity `+1` / `-1`, §3.1 "Additive inverse").
//!
//! Implementations: integer/float scalar rings, the natural-number and
//! Boolean and min-plus (tropical) semirings, direct products, fixed-width
//! vector rings, and the covariance ring `(c, s, Q)`.

pub mod covariance;
pub mod dense;
pub mod grouped;
pub mod keyed;
pub mod product;
pub mod scalar;

pub use covariance::{CovRing, CovTriple};
pub use dense::{DenseGrouped, DenseKeyedRing};
pub use grouped::Grouped;
pub use keyed::{KeyedRing, FREE_SLOT};
pub use product::{PairRing, VecRing};
pub use scalar::{BoolSemiring, F64Ring, I64Ring, MinPlus, NatSemiring};

/// A commutative semiring `(D, +, *, 0, 1)`.
///
/// Implementors must satisfy, for all `a, b, c`:
/// associativity and commutativity of `+` and `*`, identity laws for
/// [`Semiring::zero`] and [`Semiring::one`], annihilation `0 * a = 0`, and
/// distributivity `a * (b + c) = a*b + a*c`. The property tests in this
/// crate check these laws on randomized elements for every implementation.
pub trait Semiring {
    /// The element type.
    type Elem: Clone + std::fmt::Debug;

    /// The additive identity.
    fn zero(&self) -> Self::Elem;

    /// The multiplicative identity.
    fn one(&self) -> Self::Elem;

    /// Addition.
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Multiplication.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// In-place addition; override when avoiding the temporary matters
    /// (the covariance ring does).
    fn add_assign(&self, a: &mut Self::Elem, b: &Self::Elem) {
        *a = self.add(a, b);
    }

    /// True if `a` is the additive identity. Used to prune zero entries
    /// from keyed maps so deleted tuples vanish from views.
    fn is_zero(&self, a: &Self::Elem) -> bool;
}

/// A semiring with additive inverses.
pub trait Ring: Semiring {
    /// The additive inverse of `a`.
    fn neg(&self, a: &Self::Elem) -> Self::Elem;

    /// `a - b`, defaulting to `a + (-b)`.
    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        let nb = self.neg(b);
        self.add(a, &nb)
    }
}

/// Sums an iterator of elements in the given (semi)ring.
pub fn sum<S: Semiring>(ring: &S, items: impl IntoIterator<Item = S::Elem>) -> S::Elem {
    let mut acc = ring.zero();
    for x in items {
        ring.add_assign(&mut acc, &x);
    }
    acc
}

/// Multiplies an iterator of elements in the given (semi)ring.
pub fn prod<S: Semiring>(ring: &S, items: impl IntoIterator<Item = S::Elem>) -> S::Elem {
    let mut acc = ring.one();
    for x in items {
        acc = ring.mul(&acc, &x);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_prod_helpers() {
        let r = I64Ring;
        assert_eq!(sum(&r, [1, 2, 3]), 6);
        assert_eq!(prod(&r, [2, 3, 4]), 24);
        assert_eq!(sum(&r, std::iter::empty()), 0);
        assert_eq!(prod(&r, std::iter::empty()), 1);
    }
}
