//! Virtual-channel multiplexing of a physical channel (paper §2.2).
//!
//! Several virtual channels share one physical channel; each cycle the
//! physical channel transmits at most one flit. "To guarantee fairness,
//! channel multiplexing is usually accomplished at the flit level" — the
//! default [`VcMuxPolicy::RoundRobin`] rotates among the *ready* VCs, so
//! `k` active VCs each receive `W/k` of the bandwidth. The alternative
//! [`VcMuxPolicy::WinnerHolds`] keeps serving one worm until it blocks,
//! which is unfair but keeps whole worms together — the `ablation_vc_mux`
//! bench quantifies the difference (it is the mechanism behind the VMIN's
//! poor showing under permutation traffic, §5.3.3).

/// How a physical channel chooses among ready virtual channels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VcMuxPolicy {
    /// Fair flit-level round-robin (the paper's model).
    RoundRobin,
    /// Keep serving the last winner while it stays ready.
    WinnerHolds,
}

impl VcMuxPolicy {
    /// [`VcMux::select`] on packed state: bit `i` of `ready` ⟺ VC `i` of
    /// `n ≤ 64` is ready (no bit at or above `n` may be set), and `last`
    /// is the multiplexer's whole memory — one byte per physical channel
    /// for a caller that keeps the policy elsewhere. Same choice, same
    /// state update, for every input.
    #[inline]
    pub fn select_mask(self, last: &mut u8, ready: u64, n: u32) -> Option<u32> {
        if ready == 0 || n == 0 {
            return None;
        }
        let start = match self {
            VcMuxPolicy::RoundRobin => (u32::from(*last) + 1) % n,
            VcMuxPolicy::WinnerHolds => u32::from(*last) % n,
        };
        // First ready VC at or after `start`, else wrap to the lowest.
        let from_start = ready >> start << start;
        let i = if from_start != 0 { from_start } else { ready }.trailing_zeros();
        *last = i as u8;
        Some(i)
    }
}

/// Multiplexer state for one physical channel.
#[derive(Clone, Debug)]
pub struct VcMux {
    policy: VcMuxPolicy,
    /// Index of the VC that transmitted last.
    last: usize,
}

impl VcMux {
    /// New multiplexer (initial priority at VC 0).
    pub fn new(policy: VcMuxPolicy) -> Self {
        VcMux { policy, last: 0 }
    }

    /// The policy in use.
    pub fn policy(&self) -> VcMuxPolicy {
        self.policy
    }

    /// Choose the VC to transmit this cycle among the `ready` ones (ready =
    /// has a flit to send and downstream buffer space). Returns `None`
    /// when no VC is ready. Updates internal priority state.
    pub fn select(&mut self, ready: &[bool]) -> Option<usize> {
        let n = ready.len();
        if n == 0 {
            return None;
        }
        let start = match self.policy {
            // Round-robin: lowest priority to the last winner.
            VcMuxPolicy::RoundRobin => (self.last + 1) % n,
            // Winner-holds: highest priority to the last winner.
            VcMuxPolicy::WinnerHolds => self.last % n,
        };
        for off in 0..n {
            let i = (start + off) % n;
            if ready[i] {
                self.last = i;
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_alternates_between_two_ready_vcs() {
        // Both VCs always ready → strict alternation → each gets W/2.
        let mut m = VcMux::new(VcMuxPolicy::RoundRobin);
        let seq: Vec<_> = (0..6).map(|_| m.select(&[true, true]).unwrap()).collect();
        assert_eq!(seq, vec![1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn round_robin_full_bandwidth_when_alone() {
        // A single active VC gets every cycle — "each active virtual
        // channel should have an effective bandwidth of W/k".
        let mut m = VcMux::new(VcMuxPolicy::RoundRobin);
        for _ in 0..5 {
            assert_eq!(m.select(&[false, true]), Some(1));
        }
    }

    #[test]
    fn round_robin_three_way_fairness() {
        let mut m = VcMux::new(VcMuxPolicy::RoundRobin);
        let mut counts = [0u32; 3];
        for _ in 0..300 {
            counts[m.select(&[true, true, true]).unwrap()] += 1;
        }
        assert_eq!(counts, [100, 100, 100]);
    }

    #[test]
    fn winner_holds_sticks_until_blocked() {
        let mut m = VcMux::new(VcMuxPolicy::WinnerHolds);
        assert_eq!(m.select(&[true, true]), Some(0));
        assert_eq!(m.select(&[true, true]), Some(0));
        // VC 0 blocks → switch to VC 1 and stay there.
        assert_eq!(m.select(&[false, true]), Some(1));
        assert_eq!(m.select(&[true, true]), Some(1));
    }

    #[test]
    fn select_mask_equals_select_on_every_input() {
        for policy in [VcMuxPolicy::RoundRobin, VcMuxPolicy::WinnerHolds] {
            for n in 1..=6u32 {
                for last in 0..n {
                    for mask in 0..1u64 << n {
                        let mut m = VcMux { policy, last: last as usize };
                        let ready: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                        let mut packed = last as u8;
                        let got = policy.select_mask(&mut packed, mask, n);
                        assert_eq!(got.map(|i| i as usize), m.select(&ready));
                        assert_eq!(packed as usize, m.last, "{policy:?} n={n} last={last} mask={mask:b}");
                    }
                }
            }
        }
        let mut last = 63u8;
        assert_eq!(VcMuxPolicy::RoundRobin.select_mask(&mut last, 1 << 63 | 1, 64), Some(0));
        assert_eq!(VcMuxPolicy::WinnerHolds.select_mask(&mut last, 0, 0), None);
    }

    #[test]
    fn none_when_nothing_ready() {
        for p in [VcMuxPolicy::RoundRobin, VcMuxPolicy::WinnerHolds] {
            let mut m = VcMux::new(p);
            assert_eq!(m.select(&[false, false]), None);
            assert_eq!(m.select(&[]), None);
        }
    }
}
