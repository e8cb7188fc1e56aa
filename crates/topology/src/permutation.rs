//! Interconnection permutations (paper Definitions 1 and 2).
//!
//! * The **i-th k-ary butterfly** `β_i^k` interchanges digit 0 and digit `i`
//!   of an address: `β_i(x_{n-1} … x_{i+1} x_i x_{i-1} … x_1 x_0) =
//!   x_{n-1} … x_{i+1} x_0 x_{i-1} … x_1 x_i`.
//! * The **perfect k-shuffle** `σ` rotates the digits left:
//!   `σ(x_{n-1} x_{n-2} … x_1 x_0) = x_{n-2} … x_1 x_0 x_{n-1}`.
//!
//! Both are permutations of the `N = k^n` wire/node addresses and are used
//! as the connection patterns `C_i` between adjacent stages of the MINs
//! (see [`crate::unidir`]) and as the fixed "permutation traffic" patterns
//! of the evaluation (§5.1).

use crate::address::{Geometry, NodeAddr, Radix};

/// A wiring permutation on k-ary addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Perm {
    /// The identity permutation (equals `β_0`).
    Identity,
    /// The i-th k-ary butterfly `β_i^k` (Definition 1). `Butterfly(0)` is
    /// the identity.
    Butterfly(u32),
    /// The perfect k-shuffle `σ` (Definition 2): left rotation of digits.
    PerfectShuffle,
    /// The inverse perfect k-shuffle `σ⁻¹`: right rotation of digits.
    InverseShuffle,
    /// Perfect k-shuffle of the `j` least significant digits (left
    /// rotation of the low-`j` subaddress); digits above are untouched.
    /// `SubShuffle(n)` equals `PerfectShuffle`.
    SubShuffle(u32),
    /// Inverse perfect k-shuffle of the `j` least significant digits —
    /// the connection pattern of the *baseline* network [Wu & Feng].
    SubInverseShuffle(u32),
}

impl Perm {
    /// Apply the permutation to address `a` under geometry `g` (or any
    /// other [`Radix`] of the same `k` and `n`).
    pub fn apply<R: Radix + ?Sized>(&self, g: &R, a: NodeAddr) -> NodeAddr {
        let (n, a) = (g.n(), a.0);
        debug_assert!(a < g.kpow(n));
        // The low `j` digits rotated one place left (`σ`: their top digit
        // becomes digit 0) or right (`σ⁻¹`); digits above them stay.
        let left = |j: u32| {
            debug_assert!(j >= 1 && j <= n, "shuffle width {j} out of range");
            let low = g.split(a, j).1;
            let (top, rest) = g.split(low, j - 1);
            a - low + rest * g.kpow(1) + top
        };
        let right = |j: u32| {
            debug_assert!(j >= 1 && j <= n, "shuffle width {j} out of range");
            let low = g.split(a, j).1;
            let (rest, d0) = g.split(low, 1);
            a - low + rest + d0 * g.kpow(j - 1)
        };
        NodeAddr(match *self {
            Perm::Identity | Perm::Butterfly(0) => a,
            Perm::Butterfly(i) => {
                debug_assert!(i < n, "butterfly index {i} out of range");
                // Each of the two digits moves to the other's weight
                // (digit `i` from two independent quotients: this is on
                // every unidirectional route lookup's critical path).
                let (d0, p) = (g.split(a, 1).1, g.kpow(i));
                let di = g.split(a, i).0 - g.split(a, i + 1).0 * g.kpow(1);
                a - d0 - di * p + di + d0 * p
            }
            Perm::PerfectShuffle => left(n),
            Perm::InverseShuffle => right(n),
            Perm::SubShuffle(j) => left(j),
            Perm::SubInverseShuffle(j) => right(j),
        })
    }

    /// The inverse permutation. Butterflies are involutions; the shuffles
    /// invert each other.
    pub fn inverse(&self) -> Perm {
        match *self {
            Perm::Identity => Perm::Identity,
            Perm::Butterfly(i) => Perm::Butterfly(i),
            Perm::PerfectShuffle => Perm::InverseShuffle,
            Perm::InverseShuffle => Perm::PerfectShuffle,
            Perm::SubShuffle(j) => Perm::SubInverseShuffle(j),
            Perm::SubInverseShuffle(j) => Perm::SubShuffle(j),
        }
    }

    /// Tabulate the permutation as a vector `v` with `v[a] = perm(a)`.
    pub fn table(&self, g: &Geometry) -> Vec<NodeAddr> {
        g.addresses().map(|a| self.apply(g, a)).collect()
    }

    /// Number of fixed points (`perm(a) == a`). Relevant for permutation
    /// *traffic*: a node mapped to itself generates no network traffic.
    pub fn fixed_points(&self, g: &Geometry) -> usize {
        g.addresses().filter(|&a| self.apply(g, a) == a).count()
    }
}

/// Check that a tabulated mapping is a bijection on `[0, N)`.
pub fn is_permutation(g: &Geometry, table: &[NodeAddr]) -> bool {
    if table.len() != g.nodes() as usize {
        return false;
    }
    let mut seen = vec![false; table.len()];
    for &t in table {
        if !g.contains(t) || std::mem::replace(&mut seen[t.as_usize()], true) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn butterfly_swaps_digits() {
        let g = Geometry::new(2, 3);
        // β_2(001) = 100
        let a = g.parse_addr("001").unwrap();
        assert_eq!(
            Perm::Butterfly(2).apply(&g, a),
            g.parse_addr("100").unwrap()
        );
        // β_1(011) = 011 with digits 0,1 swapped → 011 → digit0=1,digit1=1 → unchanged
        let b = g.parse_addr("011").unwrap();
        assert_eq!(Perm::Butterfly(1).apply(&g, b), b);
        // β_1(010) = 001
        let c = g.parse_addr("010").unwrap();
        assert_eq!(
            Perm::Butterfly(1).apply(&g, c),
            g.parse_addr("001").unwrap()
        );
    }

    #[test]
    fn butterfly_k4() {
        let g = Geometry::new(4, 3);
        // β_2(213) = 312
        let a = g.parse_addr("213").unwrap();
        assert_eq!(
            Perm::Butterfly(2).apply(&g, a),
            g.parse_addr("312").unwrap()
        );
    }

    #[test]
    fn butterfly_zero_is_identity() {
        let g = Geometry::new(4, 3);
        for a in g.addresses() {
            assert_eq!(Perm::Butterfly(0).apply(&g, a), a);
        }
    }

    #[test]
    fn shuffle_rotates_left() {
        let g = Geometry::new(2, 3);
        // σ(110) = 101 (left rotation of digit string)
        let a = g.parse_addr("110").unwrap();
        assert_eq!(
            Perm::PerfectShuffle.apply(&g, a),
            g.parse_addr("101").unwrap()
        );
        // σ(100) = 001
        let b = g.parse_addr("100").unwrap();
        assert_eq!(
            Perm::PerfectShuffle.apply(&g, b),
            g.parse_addr("001").unwrap()
        );
    }

    #[test]
    fn shuffle_k4() {
        let g = Geometry::new(4, 3);
        // σ(213) = 132
        let a = g.parse_addr("213").unwrap();
        assert_eq!(
            Perm::PerfectShuffle.apply(&g, a),
            g.parse_addr("132").unwrap()
        );
    }

    #[test]
    fn fixed_points_of_shuffle() {
        // Addresses with all digits equal are the fixed points of a full
        // rotation only if the rotation has order dividing 1 — for σ, fixed
        // points are exactly the constant-digit addresses.
        let g = Geometry::new(4, 3);
        assert_eq!(Perm::PerfectShuffle.fixed_points(&g), 4);
        assert_eq!(Perm::Butterfly(2).fixed_points(&g), 16); // digit2 == digit0
        assert_eq!(Perm::Identity.fixed_points(&g), 64);
    }

    #[test]
    fn tables_are_permutations() {
        for &(k, n) in &[(2, 3), (2, 4), (4, 2), (4, 3), (8, 2)] {
            let g = Geometry::new(k, n);
            for p in [
                Perm::Identity,
                Perm::PerfectShuffle,
                Perm::InverseShuffle,
                Perm::Butterfly(n - 1),
                Perm::Butterfly(1),
                Perm::SubShuffle(n),
                Perm::SubShuffle(1),
                Perm::SubInverseShuffle(n - 1),
            ] {
                assert!(is_permutation(&g, &p.table(&g)), "{p:?} on k={k},n={n}");
            }
        }
    }

    #[test]
    fn sub_shuffles() {
        let g = Geometry::new(2, 4);
        // SubShuffle over the full width equals the perfect shuffle …
        for a in g.addresses() {
            assert_eq!(
                Perm::SubShuffle(4).apply(&g, a),
                Perm::PerfectShuffle.apply(&g, a)
            );
            assert_eq!(
                Perm::SubInverseShuffle(4).apply(&g, a),
                Perm::InverseShuffle.apply(&g, a)
            );
            // … and width 1 is the identity (rotating one digit).
            assert_eq!(Perm::SubShuffle(1).apply(&g, a), a);
        }
        // Width-3 rotation leaves digit 3 alone: 1101 → 1 ∘ rot(101) = 1011.
        let a = g.parse_addr("1101").unwrap();
        assert_eq!(
            Perm::SubShuffle(3).apply(&g, a),
            g.parse_addr("1011").unwrap()
        );
        assert_eq!(
            Perm::SubInverseShuffle(3).apply(&g, a),
            g.parse_addr("1110").unwrap()
        );
    }

    #[test]
    fn is_permutation_rejects_non_bijections() {
        let g = Geometry::new(2, 2);
        assert!(!is_permutation(&g, &[NodeAddr(0); 4]));
        assert!(!is_permutation(&g, &[NodeAddr(0), NodeAddr(1)]));
        assert!(!is_permutation(
            &g,
            &[NodeAddr(0), NodeAddr(1), NodeAddr(2), NodeAddr(9)]
        ));
    }

    proptest! {
        #[test]
        fn prop_butterfly_is_involution(k in 2u32..6, n in 1u32..6, raw in 0u32..100_000, i in 0u32..6) {
            let g = Geometry::new(k, n);
            let a = NodeAddr(raw % g.nodes());
            let p = Perm::Butterfly(i % n);
            prop_assert_eq!(p.apply(&g, p.apply(&g, a)), a);
        }

        #[test]
        fn prop_shuffle_inverse(k in 2u32..6, n in 1u32..6, raw in 0u32..100_000) {
            let g = Geometry::new(k, n);
            let a = NodeAddr(raw % g.nodes());
            let s = Perm::PerfectShuffle.apply(&g, a);
            prop_assert_eq!(Perm::InverseShuffle.apply(&g, s), a);
        }

        #[test]
        fn prop_shuffle_order_n(k in 2u32..6, n in 1u32..6, raw in 0u32..100_000) {
            let g = Geometry::new(k, n);
            let mut a = NodeAddr(raw % g.nodes());
            let start = a;
            for _ in 0..n {
                a = Perm::PerfectShuffle.apply(&g, a);
            }
            prop_assert_eq!(a, start);
        }

        #[test]
        fn prop_inverse_round_trip(k in 2u32..6, n in 1u32..6, raw in 0u32..100_000, which in 0u32..4) {
            let g = Geometry::new(k, n);
            let a = NodeAddr(raw % g.nodes());
            let p = match which {
                0 => Perm::Identity,
                1 => Perm::Butterfly((raw / 7) % n),
                2 => Perm::PerfectShuffle,
                _ => Perm::InverseShuffle,
            };
            prop_assert_eq!(p.inverse().apply(&g, p.apply(&g, a)), a);
        }
    }
}
