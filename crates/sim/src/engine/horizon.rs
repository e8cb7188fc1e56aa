//! The event-horizon fast-forward (see the `engine` module header): a
//! quiescent run jumps straight to its next traffic event.

use super::{Engine, Traffic};
use std::cmp::Reverse;

impl Engine<'_> {
    /// Whether no phase can do any work this cycle: no active worms and
    /// no queued messages — everything waits on a future traffic event.
    #[inline]
    pub(super) fn quiescent(&self) -> bool {
        let q = self.st.pkts.active.is_empty() && self.st.src.queued == 0;
        // Quiescence implies empty occupancy sets; the word-level
        // emptiness scans keep this fast-forward gate honest without
        // iterating members.
        debug_assert!(
            !q || (self.st.src.injectable.is_empty_set() && self.st.lanes.owned.is_empty_set()),
            "quiescent run with live occupancy bits"
        );
        q
    }

    /// The fast-forward jump target for a quiescent run: the earliest
    /// pending traffic-event key, clamped to the horizon. `None` means a
    /// drained finite source — no jump; one last cycle must run so the
    /// drain break ends the run at the same count as the slow path. A
    /// silent Poisson workload stays quiescent forever, so its target is
    /// the horizon itself.
    pub(super) fn ff_target(&self) -> Option<u64> {
        let src = &self.st.src;
        let next = match self.traffic {
            Traffic::Poisson(_) => src.arrivals.peek().map(|&Reverse(key)| src.keys.split(key).0),
            Traffic::Script(s) => s.msgs.get(src.cursor).map(|m| m.time),
            Traffic::Chain(_) => src.releases.peek().map(|&Reverse((t, _))| t),
        };
        match next {
            Some(t) => Some(t.min(self.st.end)),
            None => matches!(self.traffic, Traffic::Poisson(_)).then_some(self.st.end),
        }
    }

    /// Jump a quiescent run straight to `target`, which must not exceed
    /// its [`ff_target`](Self::ff_target). Returns whether any cycle was
    /// skipped (`false`: run the cycle normally).
    ///
    /// **Bitwise-identity argument.** In a quiescent cycle the three
    /// phases make *zero* RNG draws (the request shuffle iterates
    /// `(1..len).rev()` over an empty list, heap peeks draw nothing) and
    /// the only observable effect is one mean-queue sample of zero while
    /// measuring. The jump therefore adds exactly those samples — the
    /// cycles in `[max(now, warmup), target)` join `queue_cycles` while
    /// the zero queue leaves `queue_sum` untouched — and nothing else,
    /// so the report is bit-identical to the cycle-by-cycle path
    /// (enforced against the never-skipping reference engine). For the
    /// same reason a jump cut short — `run` stops one at an armed cycle
    /// budget — lands in exactly the state the cycle-by-cycle path has
    /// there, so the budget's partial report equals a run configured to
    /// end at that cycle. The jump never passes an event: the target is
    /// capped by the earliest heap/script key, and `generate_arrivals`
    /// debug-asserts every matured entry fires on its exact cycle.
    pub(super) fn jump_to(&mut self, target: u64) -> bool {
        debug_assert!(self.quiescent());
        debug_assert!(
            self.ff_target().is_some_and(|t| target <= t),
            "fast-forward jumped past the run's own event horizon"
        );
        if target <= self.st.now {
            return false;
        }
        let measured_from = self.st.now.max(self.cfg.warmup);
        if target > measured_from {
            self.st.meas.queue_cycles += target - measured_from;
        }
        self.st.now = target;
        true
    }
}
