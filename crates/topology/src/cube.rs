//! k-ary m-cube clusters (paper Definitions 5 and 6) and binary cubes.
//!
//! A **k-ary m-cube** in an `N = k^n` node system is the set of `k^m`
//! addresses that agree on `n - m` *fixed* digits, in any positions; the
//! remaining `m` positions are *free*. A **base cube** fixes the `n - m`
//! most significant digits. When `k = 2^j`, the digit restriction can be
//! relaxed to the *bit* level — a **binary cube** fixes an arbitrary subset
//! of the `n·j` address bits (Theorem 2 shows the cube MIN partitions
//! contention-free into binary cubes).

use crate::address::{Geometry, NodeAddr};

/// One digit position of a [`CubeSpec`]: either pinned to a value or free.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DigitSpec {
    /// The digit must equal this value.
    Fixed(u32),
    /// The digit ranges over all of `[0, k)`.
    Free,
}

/// A k-ary m-cube: a pattern over the `n` digit positions.
///
/// `spec[i]` constrains digit `i` (least significant first). The paper
/// writes these patterns most-significant-first with `*`/`X` for free
/// digits, e.g. `21**` or `3*1*`; see [`CubeSpec::parse`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CubeSpec {
    spec: Vec<DigitSpec>,
}

impl CubeSpec {
    /// Parse the paper's pattern notation, most significant digit first:
    /// `'*'` or `'X'`/`'x'` is a free digit, a decimal digit is fixed.
    /// Only radices up to 10 are supported by this notation.
    ///
    /// ```
    /// use minnet_topology::{Geometry, CubeSpec};
    /// let g = Geometry::new(4, 4);
    /// let c = CubeSpec::parse(&g, "21**").unwrap();
    /// assert_eq!(c.dimension(), 2);
    /// assert_eq!(c.members(&g).len(), 16);
    /// ```
    pub fn parse(g: &Geometry, pattern: &str) -> Option<CubeSpec> {
        if g.k() > 10 || pattern.chars().count() as u32 != g.n() {
            return None;
        }
        let mut spec = Vec::with_capacity(pattern.len());
        for c in pattern.chars().rev() {
            // reverse: store least significant first
            match c {
                '*' | 'X' | 'x' => spec.push(DigitSpec::Free),
                d => {
                    let v = d.to_digit(10)?;
                    if v >= g.k() {
                        return None;
                    }
                    spec.push(DigitSpec::Fixed(v));
                }
            }
        }
        Some(CubeSpec { spec })
    }

    /// Render in the paper's most-significant-first notation.
    pub fn pattern(&self) -> String {
        self.spec
            .iter()
            .rev()
            .map(|d| match d {
                DigitSpec::Free => 'X'.to_string(),
                DigitSpec::Fixed(v) => v.to_string(),
            })
            .collect()
    }

    /// The constraint on digit `i`.
    pub fn digit_spec(&self, i: u32) -> DigitSpec {
        self.spec[i as usize]
    }

    /// The cube dimension `m` = number of free digits.
    pub fn dimension(&self) -> u32 {
        self.spec
            .iter()
            .filter(|d| matches!(d, DigitSpec::Free))
            .count() as u32
    }

    /// Whether this is a *base* cube (Definition 6): all fixed digits are in
    /// the most significant positions.
    pub fn is_base(&self) -> bool {
        let mut seen_fixed = false;
        // Scan from most significant down: once a free digit appears, no
        // fixed digit may follow.
        let mut seen_free = false;
        for d in self.spec.iter().rev() {
            match d {
                DigitSpec::Fixed(_) => {
                    if seen_free {
                        return false;
                    }
                    seen_fixed = true;
                }
                DigitSpec::Free => seen_free = true,
            }
        }
        let _ = seen_fixed;
        true
    }

    /// Whether address `a` belongs to the cube.
    pub fn contains(&self, g: &Geometry, a: NodeAddr) -> bool {
        self.spec.iter().enumerate().all(|(i, d)| match d {
            DigitSpec::Free => true,
            DigitSpec::Fixed(v) => g.digit(a, i as u32) == *v,
        })
    }

    /// Enumerate all `k^m` member addresses, in increasing order.
    pub fn members(&self, g: &Geometry) -> Vec<NodeAddr> {
        g.addresses().filter(|&a| self.contains(g, a)).collect()
    }

    /// Whether two cubes are disjoint as address sets.
    pub fn disjoint(&self, g: &Geometry, other: &CubeSpec) -> bool {
        // Disjoint iff some digit is fixed to different values in both.
        for i in 0..g.n() {
            if let (DigitSpec::Fixed(a), DigitSpec::Fixed(b)) =
                (self.digit_spec(i), other.digit_spec(i))
            {
                if a != b {
                    return true;
                }
            }
        }
        false
    }
}

/// A binary cube over the bit representation of node addresses.
///
/// Requires `k = 2^j`; addresses then have `n·j` bits, and the cube fixes
/// the bits selected by `mask` to the corresponding bits of `value`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BitCube {
    mask: u32,
    value: u32,
    nbits: u32,
}

impl BitCube {
    /// A binary cube fixing the bits in `mask` to the bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a power of two, or `value` has bits outside
    /// `mask`, or `mask` has bits outside the address width.
    pub fn new(g: &Geometry, mask: u32, value: u32) -> Self {
        assert!(
            g.k().is_power_of_two(),
            "binary cubes require k to be a power of two"
        );
        let j = g.k().trailing_zeros();
        let nbits = g.n() * j;
        let width_mask = if nbits >= 32 { u32::MAX } else { (1 << nbits) - 1 };
        assert_eq!(mask & !width_mask, 0, "mask exceeds address width");
        assert_eq!(value & !mask, 0, "value has bits outside mask");
        BitCube { mask, value, nbits }
    }

    /// Parse an MSB-first bit pattern such as `"0XX"` or `"1X0"` (Fig. 14).
    /// The string must have exactly `n·j` characters.
    pub fn parse(g: &Geometry, pattern: &str) -> Option<BitCube> {
        if !g.k().is_power_of_two() {
            return None;
        }
        let j = g.k().trailing_zeros();
        let nbits = g.n() * j;
        if pattern.chars().count() as u32 != nbits {
            return None;
        }
        let mut mask = 0u32;
        let mut value = 0u32;
        for (pos, c) in pattern.chars().enumerate() {
            let bit = nbits - 1 - pos as u32;
            match c {
                'X' | 'x' | '*' => {}
                '0' => mask |= 1 << bit,
                '1' => {
                    mask |= 1 << bit;
                    value |= 1 << bit;
                }
                _ => return None,
            }
        }
        Some(BitCube { mask, value, nbits })
    }

    /// Render as an MSB-first bit pattern.
    pub fn pattern(&self) -> String {
        (0..self.nbits)
            .rev()
            .map(|b| {
                if self.mask >> b & 1 == 0 {
                    'X'
                } else if self.value >> b & 1 == 1 {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }

    /// The cube dimension (number of free bits).
    pub fn dimension(&self) -> u32 {
        self.nbits - self.mask.count_ones()
    }

    /// Whether address `a` belongs to the cube.
    #[inline]
    pub fn contains(&self, a: NodeAddr) -> bool {
        a.0 & self.mask == self.value
    }

    /// Enumerate all member addresses, in increasing order.
    pub fn members(&self, g: &Geometry) -> Vec<NodeAddr> {
        g.addresses().filter(|&a| self.contains(a)).collect()
    }

    /// Whether two binary cubes are disjoint.
    pub fn disjoint(&self, other: &BitCube) -> bool {
        let common = self.mask & other.mask;
        (self.value & common) != (other.value & common)
    }
}

/// Check that a family of binary cubes partitions the whole address space
/// (pairwise disjoint and jointly exhaustive).
pub fn is_bitcube_partition(g: &Geometry, cubes: &[BitCube]) -> bool {
    let total: usize = cubes.iter().map(|c| 1usize << c.dimension()).sum();
    if total != g.nodes() as usize {
        return false;
    }
    for (i, a) in cubes.iter().enumerate() {
        for b in &cubes[i + 1..] {
            if !a.disjoint(b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples_def5() {
        // "Consider a system with N = 4^4 nodes. The cluster (21**) has 16
        // nodes ranging from (2100) to (2133) and is a base four-ary
        // two-cube. The cluster (3*1*) has 16 nodes ranging from (3010) to
        // (3313) and is a four-ary two-cube."
        let g = Geometry::new(4, 4);
        let c1 = CubeSpec::parse(&g, "21**").unwrap();
        assert_eq!(c1.dimension(), 2);
        assert!(c1.is_base());
        let m1 = c1.members(&g);
        assert_eq!(m1.len(), 16);
        assert_eq!(g.format_addr(m1[0]), "2100");
        assert_eq!(g.format_addr(*m1.last().unwrap()), "2133");

        let c2 = CubeSpec::parse(&g, "3*1*").unwrap();
        assert_eq!(c2.dimension(), 2);
        assert!(!c2.is_base());
        let m2 = c2.members(&g);
        assert_eq!(m2.len(), 16);
        assert_eq!(g.format_addr(m2[0]), "3010");
        assert_eq!(g.format_addr(*m2.last().unwrap()), "3313");

        assert!(c1.disjoint(&g, &c2));
    }

    #[test]
    fn disjointness_requires_conflicting_fixed_digit() {
        let g = Geometry::new(4, 3);
        let a = CubeSpec::parse(&g, "0**").unwrap();
        let b = CubeSpec::parse(&g, "**0").unwrap();
        // Overlap at 000, 010, ...
        assert!(!a.disjoint(&g, &b));
        let c = CubeSpec::parse(&g, "1**").unwrap();
        assert!(a.disjoint(&g, &c));
    }

    #[test]
    fn pattern_round_trip() {
        let g = Geometry::new(4, 3);
        for p in ["0XX", "X1X", "231", "XXX"] {
            let c = CubeSpec::parse(&g, p).unwrap();
            assert_eq!(c.pattern(), p.replace('x', "X"));
        }
        assert!(CubeSpec::parse(&g, "9XX").is_none());
        assert!(CubeSpec::parse(&g, "XX").is_none());
    }

    #[test]
    fn base_cube_detection() {
        let g = Geometry::new(2, 4);
        assert!(CubeSpec::parse(&g, "10XX").unwrap().is_base());
        assert!(CubeSpec::parse(&g, "XXXX").unwrap().is_base());
        assert!(CubeSpec::parse(&g, "1011").unwrap().is_base());
        assert!(!CubeSpec::parse(&g, "1X0X").unwrap().is_base());
        assert!(!CubeSpec::parse(&g, "XXX0").unwrap().is_base());
    }

    #[test]
    fn bitcube_fig14_clusters() {
        // Fig. 14: an 8-node cube MIN partitioned into 0XX, 1X0, 1X1.
        let g = Geometry::new(2, 3);
        let c0 = BitCube::parse(&g, "0XX").unwrap();
        let c1 = BitCube::parse(&g, "1X0").unwrap();
        let c2 = BitCube::parse(&g, "1X1").unwrap();
        assert_eq!(c0.members(&g).len(), 4);
        assert_eq!(c1.members(&g).len(), 2);
        assert_eq!(c2.members(&g).len(), 2);
        assert!(is_bitcube_partition(&g, &[c0, c1, c2]));
        assert_eq!(c1.pattern(), "1X0");
    }

    #[test]
    fn bitcube_k4_digit_and_halfdigit() {
        // 64-node k=4 system: addresses have 6 bits; cluster "0XX" in digit
        // notation is bits "00XXXX".
        let g = Geometry::new(4, 3);
        let c = BitCube::parse(&g, "00XXXX").unwrap();
        assert_eq!(c.dimension(), 4);
        assert_eq!(c.members(&g).len(), 16);
        assert!(c.contains(NodeAddr(15)));
        assert!(!c.contains(NodeAddr(16)));
        // cluster-32 halves: top bit fixed.
        let lo = BitCube::parse(&g, "0XXXXX").unwrap();
        let hi = BitCube::parse(&g, "1XXXXX").unwrap();
        assert!(is_bitcube_partition(&g, &[lo, hi]));
        assert_eq!(lo.members(&g).len(), 32);
    }

    #[test]
    fn bitcube_partition_rejects_overlap_and_gap() {
        let g = Geometry::new(2, 3);
        let a = BitCube::parse(&g, "0XX").unwrap();
        let b = BitCube::parse(&g, "XX0").unwrap();
        assert!(!a.disjoint(&b));
        assert!(!is_bitcube_partition(&g, &[a, b]));
        assert!(!is_bitcube_partition(&g, &[a]));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bitcube_rejects_non_power_of_two_k() {
        let g = Geometry::new(3, 2);
        let _ = BitCube::new(&g, 0, 0);
    }

    #[test]
    fn members_agree_between_digit_and_bit_specs() {
        let g = Geometry::new(4, 3);
        let digit = CubeSpec::parse(&g, "2XX").unwrap();
        let bits = BitCube::parse(&g, "10XXXX").unwrap();
        assert_eq!(digit.members(&g), bits.members(&g));
    }
}
