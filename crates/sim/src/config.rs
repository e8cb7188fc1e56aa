//! Engine configuration and the simulation report.

/// Duration of one simulation cycle in microseconds. All channels run at
/// the paper's 20 flits/µs, so one flit time is 0.05 µs.
pub const CYCLE_US: f64 = 0.05;

/// Hard resource limits for one simulation run — the campaign layer's
/// defence against *legitimately unbounded* work (a sweep point pushed
/// far past saturation keeps thousands of worms in flight and crawls in
/// wall-clock terms even though its cycle count is finite). This is a
/// different failure class from what the no-progress watchdog catches:
/// the watchdog fires on **zero** flit movement (a wedged network), the
/// budget on a run that is making progress but costing more than the
/// caller is willing to pay.
///
/// A tripped budget is not a lost run: the engine returns
/// [`crate::SimError::BudgetExceeded`] carrying a
/// [`crate::PartialReport`] with every statistic accumulated so far, so
/// a campaign can record the point as *partial* instead of aborting.
///
/// `max_cycles` trips deterministically, at exactly that cycle even when
/// a fast-forward jump would cross it (same seed, same partial report,
/// bit for bit); `max_wall_ms` depends on the host and is checked every
/// 1024 loop iterations and after every jump to keep the hot loop clean.
/// Either limit at `0` is unlimited. A `max_cycles` at or above the
/// run's horizon (`warmup + measure`) never trips — completing is
/// always preferred to truncating.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum simulated cycles before the run is cut short (0 = no
    /// limit). Deterministic.
    pub max_cycles: u64,
    /// Maximum wall-clock milliseconds before the run is cut short
    /// (0 = no limit). Host-dependent by nature.
    pub max_wall_ms: u64,
}

impl RunBudget {
    /// No limits — the default.
    pub const UNLIMITED: RunBudget = RunBudget {
        max_cycles: 0,
        max_wall_ms: 0,
    };

    /// Whether both limits are disabled.
    pub fn is_unlimited(&self) -> bool {
        self.max_cycles == 0 && self.max_wall_ms == 0
    }
}

/// Simulation-engine parameters.
#[derive(Clone)]
pub struct EngineConfig {
    /// Virtual channels per physical channel (1 = TMIN/DMIN/BMIN, 2 =
    /// the paper's VMIN; larger values model the §6 extension). Any
    /// count in `1..=64` runs: a channel's lanes share one group of a
    /// 64-bit occupancy word in the engine, which is the upper limit.
    pub vcs: u8,
    /// Flit-buffer depth of every (virtual) channel. The paper's model —
    /// and one of the conditions its conclusions rest on — is a single
    /// flit buffer; deeper buffers release blocked channel chains
    /// earlier (the `ext_buffers` study quantifies it).
    pub buffer_depth: u16,
    /// Warm-up cycles excluded from measurement.
    pub warmup: u64,
    /// Measured cycles after warm-up.
    pub measure: u64,
    /// RNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Source-queue sustainability limit (paper: 100 messages).
    pub queue_limit: usize,
    /// Collect per-channel utilization (busy fraction over the window).
    pub collect_channel_util: bool,
    /// Record a [`crate::trace::Trace`] of message events (queue, inject,
    /// per-hop channel claims, delivery). Intended for deterministic or
    /// short runs — the log grows with every header movement.
    pub collect_trace: bool,
    /// No-progress watchdog window: if this many consecutive cycles pass
    /// with active packets but **zero** flit movement, the run terminates
    /// with [`crate::SimError::NoProgress`] and a structured
    /// [`crate::StallDiagnostic`]. In a healthy network the condition is
    /// unreachable (the downstream-most flit of some worm can always
    /// move), so the watchdog is on by default without affecting any
    /// fault-free run. `0` disables it. Default: 10 000.
    pub watchdog_window: u64,
    /// Whether a worm that a fault epoch leaves holding a dead lane — or
    /// routed into a corner with no live continuation — is *aborted*: its
    /// buffered flits drained, its lanes released, and its source freed.
    /// Turning this off leaves such worms wedged in place (blocking
    /// everything behind them) until the watchdog fires: the `.scn` key
    /// `fault_abort`, which the scenario library's watchdog-trip fixture
    /// uses to show a wedged network end in a stall diagnostic. Default: on.
    pub fault_abort: bool,
    /// Per-run resource limits (simulated cycles / wall-clock time); see
    /// [`RunBudget`]. Default: unlimited.
    pub budget: RunBudget,
    /// Cell cap on the **dense masked tables of fault epochs**: a fault
    /// plan compiles each faulted epoch into a `channels × nodes`-cell
    /// [`minnet_routing::RouteTable::masked`] table, and
    /// [`crate::CompiledNet::compile_faults`] refuses — before allocating
    /// anything — a network whose cell count exceeds this. It selects no
    /// routing mode: healthy routing uses the compact table at every
    /// size. `0` = unlimited. Default: `1 << 25` (32 Mi cells ≈ 128 MB of
    /// offsets per faulted epoch — the 1024-node BMIN fits, 4096 nodes
    /// and up cannot run faults).
    pub route_table_max_cells: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            vcs: 1,
            buffer_depth: 1,
            warmup: 50_000,
            measure: 200_000,
            seed: 0x5EED,
            queue_limit: 100,
            collect_channel_util: false,
            collect_trace: false,
            watchdog_window: 10_000,
            fault_abort: true,
            budget: RunBudget::UNLIMITED,
            route_table_max_cells: 1 << 25,
        }
    }
}

/// The text `minnet::campaign::config_hash` hashes into every checkpoint
/// header, journal key and `minnetd` job id (through `Experiment`'s
/// derived `Debug`). Identity v1 is *defined* as this rendering — field
/// names and order included — so it is written out, not derived. Seven
/// entries name knobs the engine no longer has (`alloc`, `vc_mux`,
/// `transmit_order`, `fast_forward`, `word_kernels`,
/// `validate_crossbars`, `table_build_threads`); they stay as frozen
/// literals — the values every production run had — at their old
/// positions to keep those hashes stable.
impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("vcs", &self.vcs)
            .field("buffer_depth", &self.buffer_depth)
            .field("warmup", &self.warmup)
            .field("measure", &self.measure)
            .field("seed", &self.seed)
            .field("queue_limit", &self.queue_limit)
            .field("alloc", &format_args!("Random"))
            .field("vc_mux", &format_args!("RoundRobin"))
            .field("transmit_order", &format_args!("ReverseTopo"))
            .field("fast_forward", &true)
            .field("word_kernels", &true)
            .field("collect_channel_util", &self.collect_channel_util)
            .field("collect_trace", &self.collect_trace)
            .field("validate_crossbars", &false)
            .field("watchdog_window", &self.watchdog_window)
            .field("fault_abort", &self.fault_abort)
            .field("budget", &self.budget)
            .field("route_table_max_cells", &self.route_table_max_cells)
            .field("table_build_threads", &1u32)
            .finish()
    }
}

impl EngineConfig {
    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<(), crate::SimError> {
        self.check().map_err(|(_, why)| crate::SimError::Config(why.to_string()))
    }

    /// [`EngineConfig::validate`] with the field at fault named: the
    /// first field no run can use (`vcs`, `buffer_depth`, `measure`) and
    /// why.
    pub fn check(&self) -> Result<(), (&'static str, &'static str)> {
        let refusals = [
            (self.vcs == 0, "vcs", "at least one virtual channel per physical channel"),
            (self.vcs > 64, "vcs", "at most 64 virtual channels per physical channel"),
            (self.buffer_depth == 0, "buffer_depth", "channel buffers must hold at least one flit"),
            (self.measure == 0, "measure", "measurement window must be nonempty"),
        ];
        match refusals.into_iter().find(|r| r.0) {
            Some((_, field, why)) => Err((field, why)),
            None => Ok(()),
        }
    }
}

/// Results of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total simulated cycles (warmup + measure).
    pub cycles: u64,
    /// Cycles actually spent measuring: `cycles - warmup`. Equal to the
    /// configured `measure` for stochastic runs; smaller when a finite
    /// (scripted/chained) run drains early. Rates are normalized by this
    /// value, not the configured window.
    pub measured_cycles: u64,
    /// Messages generated during the measurement window.
    pub generated_packets: u64,
    /// Messages fully delivered during the measurement window.
    pub delivered_packets: u64,
    /// Flits generated per node per cycle during the window (measured
    /// offered load).
    pub offered_flits_per_node_cycle: f64,
    /// Flits delivered per node per cycle during the window (accepted
    /// throughput; 1.0 = every ejection channel busy every cycle).
    pub accepted_flits_per_node_cycle: f64,
    /// Mean message latency in cycles (generation → tail ejected), over
    /// messages generated in the window and delivered before the end.
    pub mean_latency_cycles: f64,
    /// Approximate 95% CI half-width of the mean latency (batch means).
    pub latency_ci95_cycles: f64,
    /// Median latency (log-bucketed histogram, ≲6% relative error).
    pub p50_latency_cycles: u64,
    /// 95th percentile latency.
    pub p95_latency_cycles: u64,
    /// 99th percentile latency.
    pub p99_latency_cycles: u64,
    /// Largest observed latency (exact).
    pub max_latency_cycles: u64,
    /// Time-averaged total queued messages across all sources.
    pub mean_queue: f64,
    /// Largest single source queue observed during the window.
    pub max_queue: usize,
    /// Whether no source queue ever exceeded the configured limit — the
    /// paper's sustainability criterion.
    pub sustainable: bool,
    /// Whether the run looks steady-state: delivery kept up with
    /// generation over the window (accepted ≥ 95% of offered). The queue
    /// criterion alone can miss slowly-building backlogs on short
    /// windows; saturation searches require both flags.
    pub steady: bool,
    /// Packets still in flight (in network or queued) when the run ended.
    pub in_flight_at_end: u64,
    /// Measured packets aborted mid-flight because a fault epoch killed a
    /// lane they held (or their only continuations). Always 0 without an
    /// active fault schedule.
    pub aborted_packets: u64,
    /// Measured messages refused at injection because no live route to
    /// their destination existed under the current fault epoch. Always 0
    /// without an active fault schedule.
    pub undeliverable_packets: u64,
    /// Per-channel busy fraction over the window, when collection was
    /// enabled.
    pub channel_utilization: Option<Vec<f64>>,
    /// Per-message completion records, populated for scripted runs.
    pub deliveries: Option<Vec<Delivery>>,
    /// The event trace, when collection was enabled.
    pub trace: Option<crate::trace::Trace>,
}

/// Completion record for one message (populated for scripted runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Length in flits.
    pub len: u32,
    /// Cycle the message became available.
    pub gen_time: u64,
    /// Cycle the tail flit was consumed (end-of-cycle timestamp).
    pub done_time: u64,
    /// Script/chain entry index for deterministic runs (`u32::MAX` for
    /// Poisson traffic).
    pub tag: u32,
}

impl SimReport {
    /// Mean latency in microseconds (20 flits/µs channels).
    pub fn mean_latency_us(&self) -> f64 {
        self.mean_latency_cycles * CYCLE_US
    }

    /// Accepted throughput as a percentage of the one-port bound.
    pub fn throughput_percent(&self) -> f64 {
        self.accepted_flits_per_node_cycle * 100.0
    }

    /// Bit-exact equality: every integer field equal and every float field
    /// identical down to its bit pattern (`f64::to_bits`, so `0.0 != -0.0`
    /// and NaNs compare by representation). This is the determinism
    /// contract the differential tests enforce between the optimized and
    /// reference engines — plain `==` on floats would accept reordered
    /// arithmetic, which is exactly what must not happen.
    pub fn bitwise_eq(&self, other: &SimReport) -> bool {
        fn f(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits()
        }
        fn fv(a: &Option<Vec<f64>>, b: &Option<Vec<f64>>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => {
                    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| f(*p, *q))
                }
                _ => false,
            }
        }
        self.cycles == other.cycles
            && self.measured_cycles == other.measured_cycles
            && self.generated_packets == other.generated_packets
            && self.delivered_packets == other.delivered_packets
            && f(
                self.offered_flits_per_node_cycle,
                other.offered_flits_per_node_cycle,
            )
            && f(
                self.accepted_flits_per_node_cycle,
                other.accepted_flits_per_node_cycle,
            )
            && f(self.mean_latency_cycles, other.mean_latency_cycles)
            && f(self.latency_ci95_cycles, other.latency_ci95_cycles)
            && self.p50_latency_cycles == other.p50_latency_cycles
            && self.p95_latency_cycles == other.p95_latency_cycles
            && self.p99_latency_cycles == other.p99_latency_cycles
            && self.max_latency_cycles == other.max_latency_cycles
            && f(self.mean_queue, other.mean_queue)
            && self.max_queue == other.max_queue
            && self.sustainable == other.sustainable
            && self.steady == other.steady
            && self.in_flight_at_end == other.in_flight_at_end
            && self.aborted_packets == other.aborted_packets
            && self.undeliverable_packets == other.undeliverable_packets
            && fv(&self.channel_utilization, &other.channel_utilization)
            && self.deliveries == other.deliveries
            && self.trace == other.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = EngineConfig {
            vcs: 0,
            ..EngineConfig::default()
        };
        assert!(c.validate().is_err());
        let c = EngineConfig {
            vcs: 65,
            ..EngineConfig::default()
        };
        assert!(matches!(c.validate(), Err(crate::SimError::Config(_))));
        let c = EngineConfig {
            measure: 0,
            ..EngineConfig::default()
        };
        assert!(c.validate().is_err());
    }

    /// Identity v1 is this string's FNV hash (through `Experiment`'s
    /// `Debug`): the frozen literals of deleted knobs must not drift.
    #[test]
    fn debug_rendering_is_identity_v1() {
        assert_eq!(
            format!("{:?}", EngineConfig::default()),
            "EngineConfig { vcs: 1, buffer_depth: 1, warmup: 50000, measure: 200000, \
             seed: 24301, queue_limit: 100, alloc: Random, vc_mux: RoundRobin, \
             transmit_order: ReverseTopo, fast_forward: true, word_kernels: true, \
             collect_channel_util: false, collect_trace: false, validate_crossbars: false, \
             watchdog_window: 10000, fault_abort: true, budget: RunBudget { max_cycles: 0, \
             max_wall_ms: 0 }, route_table_max_cells: 33554432, table_build_threads: 1 }"
        );
    }

    #[test]
    fn unit_conversions() {
        let r = SimReport {
            cycles: 0,
            measured_cycles: 0,
            generated_packets: 0,
            delivered_packets: 0,
            offered_flits_per_node_cycle: 0.5,
            accepted_flits_per_node_cycle: 0.4,
            mean_latency_cycles: 1000.0,
            latency_ci95_cycles: 0.0,
            p50_latency_cycles: 0,
            p95_latency_cycles: 0,
            p99_latency_cycles: 0,
            max_latency_cycles: 0,
            mean_queue: 0.0,
            max_queue: 0,
            sustainable: true,
            steady: true,
            in_flight_at_end: 0,
            aborted_packets: 0,
            undeliverable_packets: 0,
            channel_utilization: None,
            deliveries: None,
            trace: None,
        };
        assert!((r.mean_latency_us() - 50.0).abs() < 1e-12);
        assert!((r.throughput_percent() - 40.0).abs() < 1e-12);
    }
}
