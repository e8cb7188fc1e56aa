//! Output arbitration.
//!
//! When several requests compete for one resource (a free lane of a dilated
//! port, a virtual channel, an output of a BMIN switch during the forward
//! phase), an arbiter picks the winner. The paper specifies *random*
//! selection ("packets destined for a particular output port are randomly
//! distributed to one of the free channels of that port"; forward-channel
//! choice "resolved by randomly selecting from among those … not
//! blocked"). A round-robin arbiter is provided as an ablation arm of
//! the reference engine.

use rand::{Rng, RngExt};

/// The arbitration policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArbiterKind {
    /// Uniform random among eligible requests (the paper's policy).
    Random,
    /// Cyclic priority: first eligible at or after the last grant + 1.
    RoundRobin,
}

/// A stateful arbiter over a fixed-size request vector.
#[derive(Clone, Debug)]
pub struct Arbiter {
    kind: ArbiterKind,
    ptr: usize,
}

impl Arbiter {
    /// Create an arbiter with the given policy.
    pub fn new(kind: ArbiterKind) -> Self {
        Arbiter { kind, ptr: 0 }
    }

    /// Grant one of the eligible slots (`eligible[i] == true`), or `None`
    /// if none is eligible. `rng` is only consulted by the random policy.
    pub fn pick<R: Rng>(&mut self, eligible: &[bool], rng: &mut R) -> Option<usize> {
        let count = eligible.iter().filter(|&&e| e).count();
        if count == 0 {
            return None;
        }
        match self.kind {
            ArbiterKind::Random => {
                let mut nth = rng.random_range(0..count);
                for (i, &e) in eligible.iter().enumerate() {
                    if e {
                        if nth == 0 {
                            return Some(i);
                        }
                        nth -= 1;
                    }
                }
                unreachable!("counted an eligible slot that disappeared")
            }
            ArbiterKind::RoundRobin => {
                let n = eligible.len();
                for off in 0..n {
                    let i = (self.ptr + off) % n;
                    if eligible[i] {
                        self.ptr = (i + 1) % n;
                        return Some(i);
                    }
                }
                unreachable!("count > 0 but no eligible slot found")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_and_none_eligible() {
        let mut rng = SmallRng::seed_from_u64(1);
        for kind in [ArbiterKind::Random, ArbiterKind::RoundRobin] {
            let mut a = Arbiter::new(kind);
            assert_eq!(a.pick(&[], &mut rng), None);
            assert_eq!(a.pick(&[false, false], &mut rng), None);
        }
    }

    #[test]
    fn single_eligible_always_wins() {
        let mut rng = SmallRng::seed_from_u64(2);
        for kind in [ArbiterKind::Random, ArbiterKind::RoundRobin] {
            let mut a = Arbiter::new(kind);
            for _ in 0..10 {
                assert_eq!(a.pick(&[false, true, false], &mut rng), Some(1));
            }
        }
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut a = Arbiter::new(ArbiterKind::RoundRobin);
        let all = [true, true, true];
        let picks: Vec<_> = (0..6).map(|_| a.pick(&all, &mut rng).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_ineligible() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut a = Arbiter::new(ArbiterKind::RoundRobin);
        assert_eq!(a.pick(&[true, false, true], &mut rng), Some(0));
        assert_eq!(a.pick(&[true, false, true], &mut rng), Some(2));
        assert_eq!(a.pick(&[true, false, true], &mut rng), Some(0));
    }

    #[test]
    fn random_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut a = Arbiter::new(ArbiterKind::Random);
        let mut counts = [0u32; 4];
        let trials = 40_000;
        for _ in 0..trials {
            let i = a.pick(&[true, true, true, true], &mut rng).unwrap();
            counts[i] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.25).abs() < 0.02, "skewed arbiter: {counts:?}");
        }
    }

    #[test]
    fn random_respects_eligibility() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut a = Arbiter::new(ArbiterKind::Random);
        for _ in 0..1000 {
            let i = a.pick(&[false, true, false, true], &mut rng).unwrap();
            assert!(i == 1 || i == 3);
        }
    }
}
