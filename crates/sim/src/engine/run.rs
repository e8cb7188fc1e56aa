//! The cycle loop — fast-forward or one full cycle per iteration — with
//! its budget cuts and the no-progress watchdog, and the report a run
//! finishes with. The loop owns what a run measures, [`Measure`].

use super::{Engine, Traffic};
use crate::config::{Delivery, EngineConfig, SimReport};
use crate::error::{BudgetKind, PartialReport, SimError};
use crate::stats::{BatchMeans, LatencyHistogram, Welford};
use crate::trace::Observer;

/// What a run measures: packet and flit counts, latency statistics, the
/// mean-queue sums, the delivery log, and the watchdog's progress signal.
#[derive(Debug, Default)]
pub(super) struct Measure {
    pub(super) generated_pkts: u64,
    pub(super) generated_flits: u64,
    pub(super) delivered_pkts: u64,
    pub(super) delivered_flits: u64,
    /// Measured packets aborted by fault epochs.
    pub(super) aborted_pkts: u64,
    /// Measured messages refused at injection as undeliverable.
    pub(super) undeliverable_pkts: u64,
    pub(super) latency: Welford,
    pub(super) latency_hist: LatencyHistogram,
    pub(super) latency_batches: BatchMeans,
    /// Exact integer accumulator behind `mean_queue`: the sum of queued
    /// messages over measured cycles plus the measured-cycle count.
    /// Integer sums make the fast-forward contribution O(1) — a skipped
    /// quiescent stretch adds `k` cycles of zero queue, which leaves the
    /// sum untouched — where the previous float Welford accumulator had
    /// to replay `k` pushes one by one to stay bit-identical.
    pub(super) queue_sum: u64,
    pub(super) queue_cycles: u64,
    pub(super) max_queue: usize,
    pub(super) deliveries: Option<Vec<Delivery>>,
    /// Flits moved in the current cycle (watchdog progress signal).
    pub(super) moved: u32,
    /// Last cycle that saw flit movement (or had no active packets).
    pub(super) last_progress: u64,
}

impl Measure {
    /// Forget everything measured, for a run of `cfg`; `deterministic`
    /// enables the per-message delivery log (finite scripted/chained
    /// runs).
    pub(super) fn reset(&mut self, cfg: &EngineConfig, deterministic: bool) {
        for count in [
            &mut self.generated_pkts, &mut self.generated_flits, &mut self.delivered_pkts,
            &mut self.delivered_flits, &mut self.aborted_pkts, &mut self.undeliverable_pkts,
            &mut self.queue_sum, &mut self.queue_cycles, &mut self.last_progress,
        ] {
            *count = 0;
        }
        (self.max_queue, self.moved) = (0, 0);
        self.latency.reset();
        self.latency_hist.reset();
        self.latency_batches.reset(16, 64.max(cfg.measure / 2048));
        self.deliveries = deterministic.then(Vec::new);
    }
}

impl<O: Observer> Engine<'_, O> {
    /// Run to the horizon (a finite source: to its drain), a budget cut
    /// or an error. An iteration either fast-forwards a quiescent run or
    /// executes one full cycle: fault-epoch catch-up, the three phases,
    /// the no-progress watchdog, the mean-queue sample, the clock tick.
    ///
    /// Kept out of line, as one symbol an observer type: CI counts its
    /// copies in the release binaries, which must hold the unit
    /// observer's alone.
    #[inline(never)]
    pub(super) fn run(mut self) -> Result<SimReport, SimError> {
        let budget = self.cfg.budget;
        // A jump stops at an armed cycle budget, so the cut lands on it
        // exactly (see `jump_to`).
        let jump_cap = if budget.max_cycles > 0 { budget.max_cycles } else { u64::MAX };
        // Wall-clock budgets pay for an Instant only when armed; the
        // elapsed check runs every 1024 iterations so it stays invisible
        // in the hot loop — and after every fast-forward jump (the count
        // restarts), because one jump can swallow an arbitrarily long
        // simulated stretch.
        let wall_start = (budget.max_wall_ms > 0).then(std::time::Instant::now);
        let mut executed: u64 = 0;
        while self.st.now < self.st.end {
            // Budget checks sit at the loop top so a fast-forward jump
            // that lands exactly on the horizon still completes normally
            // (the `while` condition wins).
            if budget.max_cycles > 0 && self.st.now >= budget.max_cycles {
                return Err(self.budget_cut(BudgetKind::Cycles, budget.max_cycles));
            }
            if let Some(start) = wall_start {
                if executed & 0x3FF == 0
                    && start.elapsed().as_millis() as u64 >= budget.max_wall_ms
                {
                    return Err(self.budget_cut(BudgetKind::WallClock, budget.max_wall_ms));
                }
                executed += 1;
            }
            // After a jump, back to the top: the end and budget checks
            // run before another cycle does.
            if self.quiescent()
                && self.ff_target().is_some_and(|t| self.jump_to(t.min(jump_cap)))
            {
                executed = 0;
                continue;
            }
            // Bring the fault epoch up to date *before* the phases so the
            // whole cycle — injection refusal, routing, transmission —
            // sees one consistent mask (a fast-forward jump may cross
            // several boundaries at once; casualties are aborted here).
            if self.faults.is_some() {
                self.advance_epoch()?;
            }
            self.generate_arrivals();
            self.allocate()?;
            self.transmit()?;
            // No-progress watchdog: a full window of cycles with active
            // packets but zero flit movement can only mean a wedged
            // network (in a healthy run the downstream-most flit of some
            // worm always moves — see `EngineConfig::watchdog_window`).
            let watchdog = self.cfg.watchdog_window;
            if watchdog > 0 {
                if self.st.meas.moved == 0 && !self.st.pkts.active.is_empty() {
                    if self.st.now - self.st.meas.last_progress >= watchdog {
                        return Err(SimError::NoProgress(Box::new(self.diagnose_stall())));
                    }
                } else {
                    self.st.meas.last_progress = self.st.now;
                }
                self.st.meas.moved = 0;
            }
            if self.measuring() {
                self.st.meas.queue_sum += self.st.src.queued;
                self.st.meas.queue_cycles += 1;
            }
            // Sampled mask-exactness audit (debug builds only): maintenance
            // bugs persist in the masks, so a periodic full check catches
            // them without multiplying test wall time by the lane count.
            #[cfg(debug_assertions)]
            if self.st.now & 63 == 0 {
                self.check_kernel_masks();
            }
            self.st.now += 1;
            if self.st.pkts.active.is_empty() && self.drained() {
                break;
            }
        }
        Ok(self.finish())
    }

    /// Package the current state as a [`SimError::BudgetExceeded`]: the
    /// same finalization path as a completed run, so the partial report
    /// is a valid truncated sample (rates normalized over the cycles
    /// actually measured).
    fn budget_cut(self, kind: BudgetKind, limit: u64) -> SimError {
        let spent_cycles = self.st.now;
        let report = self.finish();
        SimError::BudgetExceeded(Box::new(PartialReport { kind, limit, spent_cycles, report }))
    }

    /// Whether a finite (scripted/chained) traffic source has nothing left
    /// to inject; a Poisson source never drains, its run ends at the
    /// horizon.
    fn drained(&self) -> bool {
        let cursor = self.st.src.cursor;
        self.st.src.queued == 0
            && match self.traffic {
                Traffic::Poisson(_) => false,
                Traffic::Script(s) => cursor == s.msgs.len(),
                Traffic::Chain(c) => cursor == c.msgs.len(),
            }
    }

    fn finish(self) -> SimReport {
        let st = self.st;
        let m = &mut st.meas;
        let n_nodes = self.net.geometry.nodes() as f64;
        // Normalize by the cycles actually measured, not the configured
        // window: finite runs drain early (`engine` module header,
        // "Measurement accounting").
        let measured_cycles = st.now.saturating_sub(self.cfg.warmup);
        let window = measured_cycles as f64;
        let per_cycle = |n: u64, per: f64| if measured_cycles == 0 { 0.0 } else { n as f64 / per };
        SimReport {
            cycles: st.now,
            measured_cycles,
            generated_packets: m.generated_pkts,
            delivered_packets: m.delivered_pkts,
            offered_flits_per_node_cycle: per_cycle(m.generated_flits, n_nodes * window),
            accepted_flits_per_node_cycle: per_cycle(m.delivered_flits, n_nodes * window),
            mean_latency_cycles: m.latency.mean(),
            latency_ci95_cycles: m.latency_batches.ci95_half_width(),
            p50_latency_cycles: m.latency_hist.quantile(0.50),
            p95_latency_cycles: m.latency_hist.quantile(0.95),
            p99_latency_cycles: m.latency_hist.quantile(0.99),
            max_latency_cycles: m.latency_hist.max(),
            mean_queue: if m.queue_cycles == 0 {
                0.0
            } else {
                m.queue_sum as f64 / m.queue_cycles as f64
            },
            max_queue: m.max_queue,
            sustainable: m.max_queue <= self.cfg.queue_limit,
            steady: m.delivered_flits as f64 >= 0.95 * m.generated_flits as f64,
            in_flight_at_end: st.pkts.active.len() as u64 + st.src.queued,
            aborted_packets: m.aborted_pkts,
            undeliverable_packets: m.undeliverable_pkts,
            channel_utilization: None,
            deliveries: m.deliveries.take(),
            trace: None,
        }
    }
}
