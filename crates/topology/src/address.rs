//! k-ary node addresses and network geometry.
//!
//! Every network in the paper interconnects `N = k^n` nodes whose addresses
//! are written as k-ary numbers `x_{n-1} … x_1 x_0` (digit 0 is the least
//! significant). [`Geometry`] bundles `k` and `n` and provides digit-level
//! arithmetic on [`NodeAddr`] values.

use std::fmt;

/// A node address in `[0, k^n)`.
///
/// The address is stored as a plain integer; digit extraction and
/// substitution are done through a [`Geometry`], which knows the radix.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeAddr(pub u32);

impl NodeAddr {
    /// The raw integer value of the address.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// The raw value as a `usize`, for indexing.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeAddr({})", self.0)
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeAddr {
    fn from(v: u32) -> Self {
        NodeAddr(v)
    }
}

/// Upper bound on the digit count we support; keeps digit buffers on the
/// stack and `k^n` inside `u32`.
pub const MAX_DIGITS: u32 = 16;

/// The geometry of a k-ary n-stage network: `N = k^n` nodes built from
/// `k × k` switches in `n` stages.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Geometry {
    k: u32,
    n: u32,
}

impl Geometry {
    /// Create a geometry with radix `k` (switch arity) and `n` digits
    /// (stages) — the form for `k`, `n` that arrive from outside the
    /// program (argv, `.scn` files, the wire).
    ///
    /// # Errors
    ///
    /// `k < 2`, `n == 0`, `n > MAX_DIGITS`, or `k^n` overflowing `u32`;
    /// the message names the offending parameter first (`k = 1: …`).
    pub fn try_new(k: u32, n: u32) -> Result<Self, String> {
        if k < 2 {
            return Err(format!("k = {k}: switch arity k must be at least 2"));
        }
        if !(1..=MAX_DIGITS).contains(&n) {
            return Err(format!(
                "n = {n}: stage count n must be in 1..={MAX_DIGITS}"
            ));
        }
        match u64::from(k).checked_pow(n) {
            Some(nodes) if nodes <= u64::from(u32::MAX) => Ok(Geometry { k, n }),
            _ => Err(format!("k = {k}, n = {n}: k^n does not fit in u32")),
        }
    }

    /// [`Self::try_new`] for geometries written in code.
    ///
    /// # Panics
    ///
    /// Panics where `try_new` returns an error.
    pub fn new(k: u32, n: u32) -> Self {
        Self::try_new(k, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The switch arity `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The digit count / stage count `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Total node count `N = k^n`.
    #[inline]
    pub fn nodes(&self) -> u32 {
        self.k.pow(self.n)
    }

    /// `k^e` for `e <= n`.
    #[inline]
    pub fn kpow(&self, e: u32) -> u32 {
        debug_assert!(e <= self.n);
        self.k.pow(e)
    }

    /// Whether `a` is a valid address in this geometry.
    #[inline]
    pub fn contains(&self, a: NodeAddr) -> bool {
        a.0 < self.nodes()
    }

    /// Digit `i` (0 = least significant) of address `a`.
    #[inline]
    pub fn digit(&self, a: NodeAddr, i: u32) -> u32 {
        debug_assert!(i < self.n, "digit index {i} out of range (n = {})", self.n);
        (a.0 / self.k.pow(i)) % self.k
    }

    /// `a` with digit `i` replaced by `v`.
    #[inline]
    pub fn with_digit(&self, a: NodeAddr, i: u32, v: u32) -> NodeAddr {
        debug_assert!(i < self.n);
        debug_assert!(v < self.k, "digit value {v} out of range (k = {})", self.k);
        let p = self.k.pow(i);
        let old = (a.0 / p) % self.k;
        let res = a.0 as i64 + (v as i64 - old as i64) * p as i64;
        NodeAddr(res as u32)
    }

    /// Build an address from its digits, `digits[i]` being digit `i`
    /// (least significant first). Missing high digits are zero.
    ///
    /// # Panics
    ///
    /// Panics if more than `n` digits are given or any digit is `>= k`.
    pub fn from_digits(&self, digits: &[u32]) -> NodeAddr {
        assert!(digits.len() as u32 <= self.n);
        let mut v = 0u32;
        for (i, &d) in digits.iter().enumerate() {
            assert!(d < self.k, "digit {d} out of range");
            v += d * self.k.pow(i as u32);
        }
        NodeAddr(v)
    }

    /// The digits of `a`, least significant first, padded to `n` entries.
    pub fn digits(&self, a: NodeAddr) -> Vec<u32> {
        (0..self.n).map(|i| self.digit(a, i)).collect()
    }

    /// Render `a` as a k-ary digit string, most significant digit first
    /// (the paper's `x_{n-1} … x_0` notation). For `k > 10` digits are
    /// separated by dots.
    pub fn format_addr(&self, a: NodeAddr) -> String {
        let mut s = String::new();
        for i in (0..self.n).rev() {
            let d = self.digit(a, i);
            if self.k <= 10 {
                s.push(char::from_digit(d, 10).expect("digit < 10"));
            } else {
                if i != self.n - 1 {
                    s.push('.');
                }
                s.push_str(&d.to_string());
            }
        }
        s
    }

    /// Parse a k-ary digit string written most-significant-first
    /// (`"213"` for k ≤ 10, `"2.1.3"` otherwise). The inverse of
    /// [`Geometry::format_addr`].
    pub fn parse_addr(&self, s: &str) -> Option<NodeAddr> {
        let digits: Vec<u32> = if self.k <= 10 {
            s.chars().map(|c| c.to_digit(10)).collect::<Option<_>>()?
        } else {
            s.split('.')
                .map(|p| p.parse().ok())
                .collect::<Option<_>>()?
        };
        if digits.len() as u32 != self.n || digits.iter().any(|&d| d >= self.k) {
            return None;
        }
        // `digits` is most-significant-first; reverse for from_digits.
        let lsb_first: Vec<u32> = digits.into_iter().rev().collect();
        Some(self.from_digits(&lsb_first))
    }

    /// Iterate over every address in the geometry.
    pub fn addresses(&self) -> impl Iterator<Item = NodeAddr> {
        (0..self.nodes()).map(NodeAddr)
    }

    /// `FirstDifference(S, D)` of Definition 3: the position of the leftmost
    /// (most significant) digit where `s` and `d` differ, or `None` when
    /// `s == d`.
    pub fn first_difference(&self, s: NodeAddr, d: NodeAddr) -> Option<u32> {
        (0..self.n).rev().find(|&i| self.digit(s, i) != self.digit(d, i))
    }
}

/// A divisor fixed in advance, so that dividing by it is a multiplication:
/// with `m = ⌊(2^64 − 1) / d⌋`, `⌊m · (n + 1) / 2^64⌋ = ⌊n / d⌋` for every
/// `u32` `n` and `d ≥ 1`. The graph's closed forms take a channel id apart
/// by `k^i` and the dilation on every routing decision, and a chain of
/// dependent hardware divisions was most of a route lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Divisor {
    d: u32,
    m: u64,
}

impl Divisor {
    /// Prepare to divide by `d`; panics if `d == 0`.
    pub fn new(d: u32) -> Divisor {
        let m = u64::MAX.checked_div(u64::from(d)).expect("division by zero");
        Divisor { d, m }
    }

    /// The divisor.
    #[inline]
    pub fn get(self) -> u32 {
        self.d
    }

    /// `(n / d, n % d)`.
    #[inline]
    pub fn div_rem(self, n: u32) -> (u32, u32) {
        let q = ((u128::from(self.m) * (u128::from(n) + 1)) >> 64) as u32;
        (q, n - q * self.d)
    }
}

/// The digit arithmetic of `n`-digit k-ary addresses, as [`Perm::apply`]
/// computes with it: a [`Geometry`] divides; the powers `k^0 ..= k^n` as
/// a slice of [`Divisor`]s multiply.
///
/// [`Perm::apply`]: crate::permutation::Perm::apply
pub trait Radix {
    /// The digit count `n`.
    fn n(&self) -> u32;
    /// `k^e` for `e <= n`.
    fn kpow(&self, e: u32) -> u32;
    /// `(a / k^e, a % k^e)`.
    fn split(&self, a: u32, e: u32) -> (u32, u32);
}

impl Radix for Geometry {
    fn n(&self) -> u32 {
        self.n
    }
    fn kpow(&self, e: u32) -> u32 {
        self.k.pow(e)
    }
    fn split(&self, a: u32, e: u32) -> (u32, u32) {
        let p = self.k.pow(e);
        (a / p, a % p)
    }
}

impl Radix for [Divisor] {
    fn n(&self) -> u32 {
        self.len() as u32 - 1
    }
    #[inline]
    fn kpow(&self, e: u32) -> u32 {
        self[e as usize].get()
    }
    #[inline]
    fn split(&self, a: u32, e: u32) -> (u32, u32) {
        self[e as usize].div_rem(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_basics() {
        let g = Geometry::new(4, 3);
        assert_eq!(g.nodes(), 64);
        assert_eq!(g.k(), 4);
        assert_eq!(g.n(), 3);
        assert_eq!(g.kpow(2), 16);
    }

    #[test]
    fn try_new_names_the_offending_parameter() {
        assert_eq!(Geometry::try_new(4, 3), Ok(Geometry::new(4, 3)));
        assert_eq!(
            Geometry::try_new(2, MAX_DIGITS).map(|g| g.nodes()),
            Ok(1 << 16)
        );
        assert_eq!(
            Geometry::try_new(65_535, 2).map(|g| g.nodes()),
            Ok(65_535 * 65_535)
        );
        assert!(Geometry::try_new(1, 3).unwrap_err().starts_with("k = 1: "));
        assert!(Geometry::try_new(0, 3).unwrap_err().starts_with("k = 0: "));
        assert!(Geometry::try_new(4, 0).unwrap_err().starts_with("n = 0: "));
        assert!(Geometry::try_new(4, 17)
            .unwrap_err()
            .starts_with("n = 17: "));
        assert!(Geometry::try_new(32, 9)
            .unwrap_err()
            .starts_with("k = 32, n = 9: "));
        assert!(Geometry::try_new(65_536, 2)
            .unwrap_err()
            .contains("does not fit"));
        // Identity v1 hashes `Debug` of the geometry: two fields, this order.
        assert_eq!(
            format!("{:?}", Geometry::new(4, 3)),
            "Geometry { k: 4, n: 3 }"
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn geometry_rejects_k1() {
        let _ = Geometry::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn geometry_rejects_overflow() {
        let _ = Geometry::new(16, 16);
    }

    #[test]
    fn digit_extraction() {
        let g = Geometry::new(4, 3);
        // 2*16 + 1*4 + 3 = 39 → digits "213"
        let a = NodeAddr(39);
        assert_eq!(g.digit(a, 0), 3);
        assert_eq!(g.digit(a, 1), 1);
        assert_eq!(g.digit(a, 2), 2);
        assert_eq!(g.format_addr(a), "213");
        assert_eq!(g.parse_addr("213"), Some(a));
    }

    #[test]
    fn with_digit_replaces() {
        let g = Geometry::new(4, 3);
        let a = NodeAddr(39); // 213
        assert_eq!(g.with_digit(a, 1, 0), NodeAddr(35)); // 203
        assert_eq!(g.with_digit(a, 2, 0), NodeAddr(7)); // 013
        assert_eq!(g.with_digit(a, 0, 3), a); // unchanged
    }

    #[test]
    fn from_digits_round_trip() {
        let g = Geometry::new(2, 3);
        assert_eq!(g.from_digits(&[1, 0, 1]), NodeAddr(5));
        assert_eq!(g.digits(NodeAddr(5)), vec![1, 0, 1]);
        assert_eq!(g.format_addr(NodeAddr(5)), "101");
    }

    #[test]
    fn parse_addr_rejects_bad_input() {
        let g = Geometry::new(4, 3);
        assert_eq!(g.parse_addr("44"), None); // wrong length
        assert_eq!(g.parse_addr("194"), None); // digit out of range
        assert_eq!(g.parse_addr(""), None);
    }

    #[test]
    fn parse_addr_large_radix() {
        let g = Geometry::new(16, 2);
        assert_eq!(g.parse_addr("15.3"), Some(NodeAddr(15 * 16 + 3)));
        assert_eq!(g.format_addr(NodeAddr(15 * 16 + 3)), "15.3");
    }

    #[test]
    fn first_difference_examples() {
        // The paper's Fig. 8 example: FirstDifference(001, 101) = 2 (k = 2).
        let g = Geometry::new(2, 3);
        let s = g.parse_addr("001").unwrap();
        let d = g.parse_addr("101").unwrap();
        assert_eq!(g.first_difference(s, d), Some(2));
        assert_eq!(g.first_difference(s, s), None);
        // Differ only in digit 0.
        let d0 = g.parse_addr("000").unwrap();
        assert_eq!(g.first_difference(s, d0), Some(0));
    }

    #[test]
    fn addresses_iterates_all() {
        let g = Geometry::new(2, 3);
        let all: Vec<_> = g.addresses().collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], NodeAddr(0));
        assert_eq!(all[7], NodeAddr(7));
    }

    proptest! {
        #[test]
        fn prop_divisor_is_hardware_division(
            d in prop_oneof![
                Just(1u32), Just(2), Just(3), Just(256), Just(1 << 31), Just(u32::MAX), 1u32..=u32::MAX
            ],
            raw in 0u32..=u32::MAX,
            near in 0u32..3,
        ) {
            // The quotient steps at multiples of `d`: probe both sides of
            // one, the extremes, and anywhere.
            let step = (raw / d).saturating_mul(d);
            for n in [0, u32::MAX, raw, step.saturating_sub(1), step.saturating_add(near)] {
                prop_assert_eq!(Divisor::new(d).div_rem(n), (n / d, n % d), "{} / {}", n, d);
            }
        }

        #[test]
        fn prop_digit_round_trip(k in 2u32..9, n in 1u32..6, raw in 0u32..100_000) {
            let g = Geometry::new(k, n);
            let a = NodeAddr(raw % g.nodes());
            let digits = g.digits(a);
            prop_assert_eq!(g.from_digits(&digits), a);
        }

        #[test]
        fn prop_with_digit_then_digit(k in 2u32..9, n in 1u32..6, raw in 0u32..100_000, i in 0u32..6, v in 0u32..9) {
            let g = Geometry::new(k, n);
            let a = NodeAddr(raw % g.nodes());
            let i = i % n;
            let v = v % k;
            let b = g.with_digit(a, i, v);
            prop_assert_eq!(g.digit(b, i), v);
            for j in 0..n {
                if j != i {
                    prop_assert_eq!(g.digit(b, j), g.digit(a, j));
                }
            }
        }

        #[test]
        fn prop_format_parse_round_trip(k in 2u32..9, n in 1u32..6, raw in 0u32..100_000) {
            let g = Geometry::new(k, n);
            let a = NodeAddr(raw % g.nodes());
            prop_assert_eq!(g.parse_addr(&g.format_addr(a)), Some(a));
        }

        #[test]
        fn prop_first_difference_is_leftmost(k in 2u32..5, n in 2u32..5, x in 0u32..100_000, y in 0u32..100_000) {
            let g = Geometry::new(k, n);
            let s = NodeAddr(x % g.nodes());
            let d = NodeAddr(y % g.nodes());
            match g.first_difference(s, d) {
                None => prop_assert_eq!(s, d),
                Some(t) => {
                    prop_assert_ne!(g.digit(s, t), g.digit(d, t));
                    for j in t + 1..n {
                        prop_assert_eq!(g.digit(s, j), g.digit(d, j));
                    }
                }
            }
        }
    }
}
