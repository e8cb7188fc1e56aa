//! The flit-level wormhole simulation engine.
//!
//! # Model
//!
//! Time advances in **cycles**; one cycle is the time a channel needs to
//! transmit one flit (all channels share the paper's 20 flits/µs
//! bandwidth). Every physical channel carries `vcs` virtual lanes; each
//! lane has a one-flit buffer at its receiving end and is owned by at most
//! one worm at a time. Dilated channels are separate physical channels in
//! the graph, so "lane" uniformly means *(channel, vc)*.
//!
//! Each cycle has three phases:
//!
//! 1. **Arrivals** — Poisson (or scripted) messages join their source's
//!    FCFS queue.
//! 2. **Routing & allocation** — every header flit sitting in the buffer at
//!    a switch input looks up its candidate output channels
//!    ([`RouteTable`]) and tries to claim a free lane; queued messages
//!    try to claim the injection channel (one packet per source at a
//!    time — the one-port architecture transmits packets in sequence).
//!    Requests are served in random order; lane choice among free
//!    candidates is random (the paper's policy).
//! 3. **Transmission** — every physical channel forwards at most one flit,
//!    chosen among its ready lanes by the VC multiplexer. Channels are
//!    processed downstream-first (reverse topological order), so an
//!    unblocked worm advances over its entire span in one cycle — the
//!    paper's synchronized-worm behaviour. A flit moving into a channel
//!    whose destination is a node is consumed immediately ("messages
//!    arriving at a destination node are immediately consumed").
//!
//! A worm thus occupies a chain of lanes from its tail to its head; when
//! the tail flit leaves a lane's buffer the lane is released. Ownership
//! plus the acyclic channel-dependency graph (`minnet-routing`) make the
//! simulation deadlock-free by construction.
//!
//! # Compile-once / run-many split
//!
//! Everything about a run that depends only on the *network and engine
//! configuration* — the ejection-plane mask and the routing table (digit
//! rows choosing among the port spans the graph computes, `n · nodes`
//! bytes: 115 KB at 16k terminals; the transmit order is a closed form
//! of the channel id and is not stored) — lives in an immutable
//! [`CompiledNet`], built once and shared (`Arc`-held network) across
//! however many runs and threads a sweep needs. Everything that changes
//! over a run — lanes, queues, heaps, statistics, the RNG — lives in a
//! reusable [`EngineState`], whose
//! `reset(seed)` path restores the exact fresh-construction state while
//! keeping every allocation. One run is one call of the one run entry,
//! [`CompiledNet::run`]: the compiled network × a [`Traffic`] source (a
//! Poisson [`minnet_traffic::Workload`], a [`Script`] or a [`Chain`]) ×
//! an optional fault schedule × a seed × the caller's `EngineState`.
//! Whoever owns the state decides how long its allocations live: a sweep
//! worker keeps one for all of its points, a one-shot caller passes a
//! fresh one.
//!
//! There is no other entry: a caller that runs a network once compiles
//! a [`CompiledNet`] and runs it on a fresh state, so there is one
//! routing representation and one engine path at every size. The
//! closed-form [`minnet_routing::RouteLogic`] is the table's *definition*
//! — the routing crate's exhaustive tests hold the table to it, and the
//! `reference` engine keeps routing through it.
//!
//! # Occupancy-scaled scheduling
//!
//! The per-cycle cost of all three phases tracks *occupancy* — in-flight
//! worms, nonempty source queues, claimed channels — not network size.
//! An idle 1024-node network costs near nothing per cycle. The engine
//! maintains:
//!
//! * an **arrival heap** (Poisson) keyed `(⌈next_arrival⌉, node)` with one
//!   outstanding entry per generating node, and a **release heap**
//!   (chained traffic) keyed `(release_time, index)` — arrivals phase work
//!   is O(log n) per event, not O(nodes) or O(messages) per cycle;
//! * an **injectable-source bitset**: bit `n` set iff node `n`'s queue is
//!   nonempty while nothing is injecting there (`injecting == NONE`),
//!   updated at each of the three transitions (arrival into an idle-
//!   injector queue; injection start; injection end with a nonempty
//!   queue). The allocation phase reads injection requests off this set
//!   instead of scanning every source;
//! * dense **lane masks** (`owned`, `has-input`, `full`, `dead`) indexed
//!   by *plane* — a channel's transmit-order position times the lane
//!   group width (`vcs` rounded up to a power of two) plus the lane, so
//!   ascending bit order is the sweep order and a channel's lanes share
//!   one aligned group of a mask word; pad bits of a group are never set.
//!   The lane arrays share the index (`Planes`), so a served bit *is*
//!   the lane. Every claim, push, pop and release updates its bits in
//!   place, and the transmission phase serves `owned ∧ has-input ∧ ¬full
//!   ∧ ¬dead` one `u64` word at a time with `trailing_zeros` — exactly the
//!   lanes the reference's every-channel scan finds ready, in that order;
//! * an **advance mask** over packet slots: bit `p` is set while `p`'s
//!   header sits in its head lane's buffer short of the ejection channel,
//!   so the allocation phase tests one bit per active worm;
//! * a **running queued-message counter** for the per-cycle mean-queue
//!   sample, the drain check of finite runs, and the end-of-run backlog.
//!
//! # Event-horizon fast-forward
//!
//! When the network is **fully quiescent** — no active worms *and* no
//! queued messages (which implies empty injectable and owned sets) —
//! no phase can do any work until the next traffic event matures. The
//! loop then jumps `now` straight to the earliest pending event key
//! (arrival heap, script cursor, or release heap; clamped to the
//! horizon and to an armed cycle budget) instead of spinning empty
//! cycles — always; there is no switch. Quiescent cycles make zero RNG
//! draws and their only observable effect is the zero mean-queue
//! sample, which the jump replays in bulk (the mean-queue statistic is
//! an integer `queue_sum / queue_cycles` pair precisely so a jump of any
//! length — or one cut short at the budget — contributes exactly O(1)
//! work and the exact same bits) — so reports stay **bit-identical** to a
//! cycle-by-cycle run, which the `reference` engine is: it never skips,
//! and `tests/engine_equivalence.rs` holds the two equal on gap- and
//! drain-heavy shapes. The win scales with idle time: gaps in
//! scripted/chained workloads, drain tails, and very low Poisson loads.
//!
//! # Hot state on a byte budget
//!
//! Lane, node and packet state are parallel dense arrays with no
//! per-entity heap allocation: 14 bytes a lane at any `buffer_depth` and
//! 24 a node, held by `tests/footprint.rs`. ("Lane" is a plane: at a `vcs`
//! of 3, 5 or 6 — test-only — the arrays carry each group's pad planes.)
//!
//! | array | B | per | what it is for; when it exists |
//! |---|---|---|---|
//! | `lane_owner` | 4 | lane | owning packet slot, `NONE` when free |
//! | `lane_upstream` | 4 | lane | packed: plane / `NONE` = exhausted / bit 31 + node |
//! | `lane_downstream` | 4 | lane | inverse link along the worm's chain |
//! | `lane_bufs` | 2 | lane | buffer occupancy — a counter: a lane holds a run of its owner's flits, and which is a header or a tail follows from the chain (`move_flit`) |
//! | `mux_last` | 1 | channel | VC multiplexer memory; only when `vcs > 1` |
//! | the four plane masks | ½ | plane | `owned` / `has-input` / `full` / `dead` bits |
//! | `src_injecting` | 4 | node | packet drawing from the source, else `NONE` |
//! | `src_next_arrival` | 8 | node | next Poisson arrival time |
//! | `queues` head, tail, len | 12 | node | FCFS list ends in the one message slab |
//! | `queues` slab | 28 | queued message | `active::MsgQueues`; freed slots are reused first |
//! | `pkt_*`, `PktMeta` | 64 | packet slot | hot fields the sweeps touch, cold meta apart |
//!
//! A packet's slot index is stable for its lifetime and freed slots are
//! recycled through a free list, so no RNG-visible ordering depends on
//! the layout. The arrays stay parallel on purpose: the sweeps walk them
//! in ascending plane order, so they stream, and one interleaved
//! 32-byte record per lane measured slower (ROADMAP item 3).
//!
//! # Determinism contract
//!
//! Same seed + same build ⇒ bit-identical [`SimReport`], regardless of
//! how many sweep threads call the engine (each run owns its RNG), and
//! of whether the state is freshly allocated or reused through `reset`
//! (reset restores every observable field the fresh constructor
//! produces). The active sets are pure bookkeeping: every request list,
//! lane choice and RNG draw happens in exactly the order the
//! scan-everything reference engine (`reference` module, feature
//! `reference-engine`) produces, which
//! `tests/engine_equivalence.rs` enforces report-for-report with
//! [`SimReport::bitwise_eq`]. The load-bearing orderings are: bitset
//! iteration is ascending (= the reference's node scan); every heap entry
//! due at cycle `t` carries key `t` exactly — entries are pushed with
//! future keys and popped the cycle they mature — so pops are
//! node-/index-ascending within a cycle; and a lane claim draws one
//! `random_range(0..n)` over its `n` free candidates — the stream the
//! oracle's random arbiter draws over an all-`true` flag slice.
//!
//! # Measurement accounting
//!
//! Offered/accepted flit rates and channel utilization are normalized by
//! the cycles *actually measured* (`SimReport::measured_cycles` =
//! `cycles - warmup`), not the configured `measure` window — a finite
//! scripted/chained run that drains early reports true rates.
//! `delivered_flits` (and hence accepted throughput and the `steady`
//! flag) counts flits of **measured packets only** — packets generated at
//! or after the end of warmup — mirroring `delivered_pkts`; flits of
//! warmup-generated packets that land inside the window are excluded,
//! just as their latencies are.

use crate::active::{refill, trim, DenseBitSet, LaneBufs, MsgQueues, QueuedMsg};
use crate::config::{EngineConfig, SimReport};
use crate::error::{BudgetKind, PartialReport, SimError, StallDiagnostic, StalledPacket};
use crate::fault::CompiledFaults;
use crate::stats::{BatchMeans, LatencyHistogram, Welford};
use crate::trace::{Trace, TraceEvent};
use minnet_routing::{find_cycle, Route, RouteTable};
use minnet_topology::{ChannelId, FaultPlan, Geometry, LevelPositions, NetworkGraph, PortSpan};
use minnet_traffic::Workload;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

const NONE: u32 = u32::MAX;

/// [`Engine::move_flit`] feedback: "no lane ahead of the cursor changed
/// readiness" (the move pulled from a source).
const NO_FEEDBACK: u32 = u32::MAX;
/// Feedback low bits: the popped upstream lane's plane. Bit 31 carries
/// its recomputed ready state; [`check_index_range`] keeps planes below
/// 2³¹.
const PLANE_MASK: u32 = 0x7FFF_FFFF;
/// Where a lane's next flit comes from, as one `lane_upstream` word: bit
/// 31 clear = the buffer of the lane at that plane; [`NONE`] = exhausted
/// (the tail is already buffered here, or the lane is free); else
/// `UP_SOURCE | node` = that node's source queue. Readers test in that
/// order — two plain branches; decoding into an enum first cost the
/// `vcs == 1` kernel 3–5 %.
const UP_SOURCE: u32 = 1 << 31;

/// The index ranges the packed words rest on: planes (bit 31 of the
/// transmit feedback is a flag, bit 31 of a `lane_upstream` word a tag)
/// and node ids (which share that word) must all stay below 2³¹.
fn check_index_range(channels: usize, vcs: u8, nodes: u32) -> Result<(), SimError> {
    let planes = (channels as u64) << vcs_shift(vcs);
    if planes >= 1 << 31 || nodes >= 1 << 31 {
        return Err(SimError::Config(format!(
            "{channels} channels × {vcs} lanes ({planes} planes) and {nodes} nodes \
             must each stay below 2^31"
        )));
    }
    Ok(())
}

/// The cold per-packet fields — touched at injection and completion, not
/// by the per-cycle allocate/transmit sweeps. The hot fields (`head_lane`,
/// `sent`, `len`, `delivered`) live in parallel dense arrays on
/// [`EngineState`], indexed by packet slot, so the sweeps touch
/// contiguous memory (see the module header's struct-of-arrays notes).
#[derive(Clone, Copy, Debug)]
struct PktMeta {
    src: u32,
    dst: u32,
    gen_time: u64,
    /// Whether this message counts toward latency statistics.
    measured: bool,
    /// Script/chain index (NONE for Poisson traffic).
    tag: u32,
}

/// A message injected at a fixed time — deterministic test workloads.
#[derive(Clone, Copy, Debug)]
pub struct ScriptedMsg {
    /// Cycle at which the message becomes available at the source.
    pub time: u64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Length in flits.
    pub len: u32,
}

pub use crate::config::Delivery;

/// A message that becomes available only after another message completes
/// — the building block for software multicast and other dependent
/// communication (paper §6 / ref \[32\]).
#[derive(Clone, Copy, Debug)]
pub struct ChainedMsg {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Length in flits.
    pub len: u32,
    /// Earliest availability (absolute cycle).
    pub earliest: u64,
    /// Index (into the message array) of the message that must be fully
    /// delivered before this one becomes available; `None` = a root.
    /// Must reference an *earlier* array entry, which keeps the
    /// dependency graph acyclic by construction.
    pub after: Option<usize>,
}

/// A validated, time-sorted scripted workload, reusable across runs
/// ([`Traffic::Script`]). Compiling once moves the sort and the checks
/// out of the run-many loop. The script pins the geometry it was
/// validated against so it cannot silently be replayed on a network with
/// fewer nodes.
#[derive(Clone, Debug)]
pub struct Script {
    geometry: Geometry,
    msgs: Vec<ScriptedMsg>,
}

impl Script {
    /// Validate and time-sort `msgs` for networks of geometry `g`.
    ///
    /// # Errors
    ///
    /// Reports self-sends, out-of-range nodes, and zero-length messages.
    pub fn compile(g: Geometry, msgs: &[ScriptedMsg]) -> Result<Script, SimError> {
        let mut sorted: Vec<ScriptedMsg> = msgs.to_vec();
        sorted.sort_by_key(|m| m.time);
        for m in &sorted {
            if m.src == m.dst {
                return Err(SimError::Config(format!("scripted message {m:?} sends to itself")));
            }
            if m.src >= g.nodes() || m.dst >= g.nodes() {
                return Err(SimError::Config(format!("scripted message {m:?} addresses a missing node")));
            }
            if m.len == 0 {
                return Err(SimError::Config(format!("scripted message {m:?} has no flits")));
            }
        }
        Ok(Script {
            geometry: g,
            msgs: sorted,
        })
    }

    /// The messages, sorted by injection time.
    #[cfg(feature = "reference-engine")]
    pub fn msgs(&self) -> &[ScriptedMsg] {
        &self.msgs
    }
}

/// A validated chained (dependent-message) workload with its dependency
/// fan-out and root release times precomputed, reusable across runs
/// ([`Traffic::Chain`]); a run copies only the release times.
#[derive(Clone, Debug)]
pub struct Chain {
    geometry: Geometry,
    msgs: Vec<ChainedMsg>,
    /// `dependents[i]` lists the messages released by `i`'s delivery.
    dependents: Vec<Vec<u32>>,
    /// Initial release times: roots at their `earliest`, dependents
    /// `None` until their parent delivers.
    roots: Vec<Option<u64>>,
    /// Software overhead at the relay: cycles between receiving the
    /// parent message and making the dependent available.
    overhead: u64,
}

impl Chain {
    /// Validate `msgs` (parents must precede children) and precompute the
    /// dependency fan-out for networks of geometry `g`.
    ///
    /// # Errors
    ///
    /// Reports self-sends, out-of-range nodes, zero-length messages, and
    /// forward dependency references.
    pub fn compile(g: Geometry, msgs: &[ChainedMsg], overhead: u64) -> Result<Chain, SimError> {
        let mut dependents = vec![Vec::new(); msgs.len()];
        let mut roots = vec![None; msgs.len()];
        for (i, m) in msgs.iter().enumerate() {
            if m.src == m.dst {
                return Err(SimError::Config(format!("chained message {i} sends to itself")));
            }
            if m.src >= g.nodes() || m.dst >= g.nodes() {
                return Err(SimError::Config(format!("chained message {i} addresses a missing node")));
            }
            if m.len == 0 {
                return Err(SimError::Config(format!("chained message {i} has no flits")));
            }
            match m.after {
                None => roots[i] = Some(m.earliest),
                Some(parent) if parent < i => dependents[parent].push(i as u32),
                Some(parent) => {
                    return Err(SimError::Config(format!(
                        "chained message {i} depends on later entry {parent}; \
                         order messages so parents precede children"
                    )));
                }
            }
        }
        Ok(Chain {
            geometry: g,
            msgs: msgs.to_vec(),
            dependents,
            roots,
            overhead,
        })
    }

    /// The chained messages, in entry order.
    #[cfg(feature = "reference-engine")]
    pub fn msgs(&self) -> &[ChainedMsg] {
        &self.msgs
    }
}

/// The traffic one [`CompiledNet::run`] carries. Each source was compiled
/// for one [`Geometry`]; a run on a network of another is refused with
/// [`SimError::GeometryMismatch`].
#[derive(Clone, Copy, Debug)]
pub enum Traffic<'a> {
    /// Poisson arrivals from a compiled workload. The source never
    /// drains: the run ends at `warmup + measure`.
    Poisson(&'a Workload),
    /// Messages injected at fixed cycles. The run ends when every message
    /// is delivered, or at the horizon; the report logs each delivery.
    Script(&'a Script),
    /// Dependent messages: a message is released `overhead` cycles after
    /// its parent is delivered (roots at their `earliest`). The run ends
    /// when every message is delivered, or at the horizon.
    ///
    /// Only a delivery releases dependents. Under faults, a message that
    /// an epoch aborts or that is refused at injection as undeliverable
    /// is never delivered, so its dependents never release and the run
    /// does not drain: it goes on to the horizon.
    Chain(&'a Chain),
}

/// A run's cursor into its [`Traffic`]: a script's next index, a chain's
/// release times and undelivered count.
enum Feed<'a> {
    Poisson(&'a Workload),
    Scripted {
        msgs: &'a [ScriptedMsg],
        next: usize,
    },
    Chained {
        msgs: &'a [ChainedMsg],
        /// `dependents[i]` lists the messages released by `i`'s delivery.
        dependents: &'a [Vec<u32>],
        /// Release time per message (None = dependency not yet met).
        /// The release *heap* on the engine drives scheduling; this array
        /// only backs the double-release assertion.
        release: Vec<Option<u64>>,
        /// Messages not yet delivered.
        remaining: usize,
        /// Software overhead at the relay (see [`Chain`]).
        overhead: u64,
    },
}

#[derive(Clone, Copy, Debug)]
enum Req {
    Inject(u32),
    Advance(u32),
}

/// The network- and config-derived constants of a run: the ejection
/// mask and the routing table — built **once**, immutable, and shared
/// across every run (and thread) of a sweep.
///
/// [`CompiledNet::run`] on a (resettable) [`EngineState`] with a
/// [`Traffic`] source is one simulation run; see the module header's
/// compile-once / run-many notes. The per-run `seed` argument overrides
/// `config.seed`, so one compiled network serves a whole replicated
/// sweep.
#[derive(Clone, Debug)]
pub struct CompiledNet {
    net: Arc<NetworkGraph>,
    cfg: EngineConfig,
    routes: RouteTable,
    /// Bit `plane` ⟺ the lane's channel ends at a node.
    eject: DenseBitSet,
}

/// Flit-level round-robin among a channel's ready virtual channels (§2.2:
/// `k` active VCs each get `W/k`): bit `i` of `ready` ⟺ VC `i` of `n ≤
/// 64` is ready (no bit at or above `n` set), and `last`, the VC that
/// transmitted last, is the multiplexer's whole memory. The first ready
/// VC after `last`, wrapping to the lowest; `None` when none is ready.
#[inline]
pub(crate) fn round_robin_select(last: &mut u8, ready: u64, n: u32) -> Option<u32> {
    if ready == 0 {
        return None;
    }
    let start = (u32::from(*last) + 1) % n;
    let from_start = ready >> start << start;
    let i = if from_start != 0 { from_start } else { ready }.trailing_zeros();
    *last = i as u8;
    Some(i)
}

/// `log2` of the plane-group width: `vcs` rounded up to a power of two,
/// so a channel's lanes never straddle a mask word (`vcs <= 64` is
/// validated).
fn vcs_shift(vcs: u8) -> u32 {
    u32::from(vcs).next_power_of_two().trailing_zeros()
}

/// The engine's one index space. A lane's **plane** is `(pos << shift) |
/// vc`: `pos` its channel's place in the reverse-topological transmit
/// order (a closed form of the id, [`NetworkGraph::position`]), `1 <<
/// shift` the lane-group width — at a `vcs` not a power of two the
/// group's top planes belong to no lane. Every per-lane array and mask is
/// indexed by plane and every lane word holds one, so the sweeps
/// translate nothing; an id becomes a plane where a claim gathers its
/// candidates, a plane an id only where a route is looked up or on cold
/// paths (traces, diagnostics).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Planes<'a> {
    net: &'a NetworkGraph,
    pub(crate) vcs: u8,
    shift: u32,
}

impl<'a> Planes<'a> {
    pub(crate) fn new(net: &'a NetworkGraph, cfg: &EngineConfig) -> Planes<'a> {
        Planes {
            net,
            vcs: cfg.vcs,
            shift: vcs_shift(cfg.vcs),
        }
    }

    /// Number of planes: one group per channel.
    pub(crate) fn count(self) -> usize {
        self.net.num_channels() << self.shift
    }

    /// The id → position map shared by the channels of `ch`'s level and
    /// direction — every candidate of one routing decision.
    #[inline]
    fn level(self, ch: ChannelId) -> LevelPositions {
        self.net.level_positions(ch)
    }

    /// The plane of lane `vc` of channel `ch`.
    #[inline]
    pub(crate) fn of(self, ch: ChannelId, vc: u32) -> u32 {
        (self.level(ch).of(ch) << self.shift) | vc
    }

    /// The channel the lane at plane `pl` belongs to.
    #[inline]
    fn channel(self, pl: u32) -> ChannelId {
        self.net.channel_at(pl >> self.shift)
    }
}

impl CompiledNet {
    /// Compile `net` under `cfg`: validate the configuration, mark the
    /// ejection planes, and build the routing table — at every size; the
    /// table is `O(stages × nodes)` bytes (see [`RouteTable`]).
    ///
    /// # Errors
    ///
    /// Reports invalid configurations, a radix the table cannot hold, and
    /// a network past the 2³¹ planes / nodes the packed state can index.
    pub fn new(net: Arc<NetworkGraph>, cfg: EngineConfig) -> Result<CompiledNet, SimError> {
        cfg.validate()?;
        check_index_range(net.num_channels(), cfg.vcs, net.geometry.nodes())?;
        let routes = RouteTable::build(&net).map_err(SimError::Routing)?;
        let planes = Planes::new(&net, &cfg);
        let mut eject = DenseBitSet::with_capacity(planes.count());
        // Exactly the per-node ejection channels (`NetworkGraph::validate`).
        for c in net.ejects() {
            (0..cfg.vcs).for_each(|vc| eject.set(planes.of(c, vc.into())));
        }
        Ok(CompiledNet {
            net,
            cfg,
            routes,
            eject,
        })
    }

    /// The shared network graph.
    pub fn network(&self) -> &Arc<NetworkGraph> {
        &self.net
    }

    /// The routing table. Always `Some` — every compiled network has one;
    /// the `Option` survives only because the frozen `benchmark/` matches
    /// on it.
    pub fn routes(&self) -> Option<&RouteTable> {
        Some(&self.routes)
    }

    /// Compile a [`FaultPlan`] against this network: per-epoch dead-lane
    /// masks plus deliverability-pruned routing tables (with a masked-CDG
    /// deadlock re-check per epoch). The result is read-only and reusable
    /// across runs and threads, like the `CompiledNet` itself.
    ///
    /// # Errors
    ///
    /// Reports out-of-range fault targets, inverted repair windows, a
    /// (defensive) masked CDG cycle, and — before anything is allocated —
    /// a network whose dense masked tables (`channels × nodes` cells per
    /// faulted epoch) would exceed
    /// [`EngineConfig::route_table_max_cells`].
    pub fn compile_faults(&self, plan: &FaultPlan) -> Result<CompiledFaults, SimError> {
        let cap = self.cfg.route_table_max_cells;
        let ncells = self.net.num_channels() as u64 * u64::from(self.net.geometry.nodes());
        if cap != 0 && ncells > cap {
            return Err(SimError::Routing(format!(
                "fault epochs need dense masked route tables, but {} channels × {} nodes \
                 exceeds route_table_max_cells ({cap}); raise the cap to run faults",
                self.net.num_channels(),
                self.net.geometry.nodes(),
            )));
        }
        CompiledFaults::compile(&self.net, &self.routes, plan, Planes::new(&self.net, &self.cfg))
    }

    /// Run `traffic` on `st` with the given seed under a fault schedule —
    /// the engine's one run entry. `st` is reset first, keeping its
    /// allocations; `None` (or a trivial schedule) runs the fault-free
    /// path bit for bit.
    ///
    /// # Errors
    ///
    /// Reports traffic compiled for a different geometry, a watchdog trip
    /// ([`SimError::NoProgress`]) or a budget cut
    /// ([`SimError::BudgetExceeded`]).
    // Inline: once a caller's variant is known the check is one compare,
    // and the engine start stays out of line in `start`. The split also
    // keeps the benchmark harness's text layout (EXPERIMENTS.md "One run
    // entry").
    #[inline]
    pub fn run(
        &self,
        traffic: Traffic<'_>,
        faults: Option<&CompiledFaults>,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        let (what, got) = match traffic {
            Traffic::Poisson(wl) => ("workload", wl.geometry()),
            Traffic::Script(s) => ("script", s.geometry),
            Traffic::Chain(c) => ("chain", c.geometry),
        };
        if got != self.net.geometry {
            return Err(SimError::GeometryMismatch { what, expected: self.net.geometry, got });
        }
        self.start(traffic, faults, seed, st)
    }

    /// Reset `st` for `seed`, prime the traffic source's event heaps, and
    /// run the engine to its end.
    fn start(
        &self,
        traffic: Traffic<'_>,
        faults: Option<&CompiledFaults>,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        let traffic = match traffic {
            Traffic::Poisson(wl) => Feed::Poisson(wl),
            Traffic::Script(s) => Feed::Scripted { msgs: &s.msgs, next: 0 },
            Traffic::Chain(c) => Feed::Chained {
                msgs: &c.msgs,
                dependents: &c.dependents,
                release: c.roots.clone(),
                remaining: c.msgs.len(),
                overhead: c.overhead,
            },
        };
        let CompiledNet {
            net,
            cfg,
            routes,
            eject,
        } = self;
        // A trivial schedule (no epoch kills any lane) is indistinguishable
        // from no schedule; normalizing it to `None` here *guarantees* the
        // empty-plan path is the untouched fast path, bit for bit.
        let faults = faults.filter(|f| !f.is_trivial());
        let deterministic = !matches!(traffic, Feed::Poisson(_));
        st.reset(net, cfg, seed, deterministic);

        // Prime the event heaps. Poisson: one initial arrival per generating
        // node, drawn in ascending node order — the first draws of the run's
        // RNG stream, exactly as the reference engine makes them.
        match &traffic {
            Feed::Poisson(wl) => {
                for node in 0..net.geometry.nodes() {
                    let rate = wl.message_rate(node);
                    if rate > 0.0 {
                        let u: f64 = 1.0 - st.rng.random::<f64>();
                        let t = -u.ln() / rate;
                        st.src_next_arrival[node as usize] = t;
                        st.arrivals.push(Reverse((t.ceil() as u64, node)));
                    }
                }
            }
            Feed::Scripted { .. } => {}
            Feed::Chained { release, .. } => {
                for (i, r) in release.iter().enumerate() {
                    if let Some(t) = r {
                        st.releases.push(Reverse((*t, i as u32)));
                    }
                }
            }
        }

        let mut e = Engine {
            net,
            cfg,
            routes,
            planes: Planes::new(net, cfg),
            eject,
            traffic,
            faults,
            epoch: 0,
            st,
        };
        e.init_kernel_masks();
        e.run()
    }

    /// `run(Traffic::Poisson(workload), None, seed, st)`, for
    /// `benchmark/src/replay.rs` only; ROADMAP 2(d) deletes it.
    ///
    /// # Errors
    ///
    /// As [`CompiledNet::run`].
    pub fn run_poisson(
        &self,
        workload: &Workload,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        self.run(Traffic::Poisson(workload), None, seed, st)
    }

    /// `run(Traffic::Poisson(workload), faults, seed, st)`, for
    /// `benchmark/src/replay.rs` only; ROADMAP 2(d) deletes it.
    ///
    /// # Errors
    ///
    /// As [`CompiledNet::run`].
    pub fn run_poisson_faulted(
        &self,
        workload: &Workload,
        faults: Option<&CompiledFaults>,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        self.run(Traffic::Poisson(workload), faults, seed, st)
    }

    /// One Poisson [`CompiledNet::run`] per seed, on `st`, in order, for
    /// `benchmark/src/replay.rs` only; ROADMAP 2(d) deletes it with
    /// [`LockstepState`](crate::LockstepState).
    pub fn run_poisson_lockstep(
        &self,
        workload: &Workload,
        seeds: &[u64],
        _threads: usize,
        st: &mut EngineState,
    ) -> Vec<Result<SimReport, SimError>> {
        let wl = Traffic::Poisson(workload);
        seeds.iter().map(|&seed| self.run(wl, None, seed, st)).collect()
    }
}

/// The mutable half of a simulation run: lanes, queues, heaps, packets,
/// statistics, scratch buffers, and the RNG. Reusing one `EngineState`
/// across runs (its `reset` restores the exact fresh state while keeping
/// every allocation) removes the ~20 vector allocations a fresh engine
/// pays per run — the dominant fixed cost of short sweep probes.
///
/// States are interchangeable between networks and configurations; the
/// reset path re-dimensions every container. Determinism does not depend
/// on *which* state a run uses — the differential tests drive the same
/// run through fresh and heavily-reused states and require bit-identical
/// reports.
#[derive(Debug)]
pub struct EngineState {
    // Lane state, parallel dense arrays indexed by plane (byte table in
    // the module header; [`Planes`] is the index space).
    lane_owner: Vec<u32>,
    /// Packed upstream words (see [`UP_SOURCE`]).
    lane_upstream: Vec<u32>,
    lane_bufs: LaneBufs,
    /// Inverse of `lane_upstream` along a worm's chain: the plane of the
    /// lane that consumes this lane's buffer; `NONE` at the head, and on
    /// every free lane.
    lane_downstream: Vec<u32>,
    /// Per channel position, the VC that transmitted last (flit-level
    /// round-robin, [`round_robin_select`]). Dimensioned only when `vcs >
    /// 1`.
    mux_last: Vec<u8>,
    // Packet state, struct-of-arrays by slot: the hot fields the sweeps
    // touch every cycle, plus a cold `PktMeta` array for the rest.
    pkt_head_lane: Vec<u32>,
    pkt_sent: Vec<u32>,
    pkt_len: Vec<u32>,
    /// Destination node, duplicated out of `PktMeta` so the allocate
    /// phase's per-request routing lookup stays off the cold array.
    pkt_dst: Vec<u32>,
    /// Cache of the head's routing decision — its candidates' transmit
    /// positions, a progression like the ids they map — refreshed
    /// whenever the head advances. A blocked worm re-requests every
    /// cycle; the cached span skips the `(at, dst)` lookup's chain of
    /// dependent loads and the level arithmetic. Fault-free path only.
    pkt_cand: Vec<PortSpan>,
    pkt_delivered: Vec<u32>,
    /// Index of the slot in `active` while the packet is in flight, so
    /// retirement is O(1).
    pkt_active_pos: Vec<u32>,
    pkt_meta: Vec<PktMeta>,
    free_slots: Vec<u32>,
    active: Vec<u32>,
    // Source state by node: the packet drawing flits from the source
    // (one-port rule), the absolute time of the next Poisson arrival
    // (`f64::INFINITY` for silent nodes and scripted runs), the queues.
    src_injecting: Vec<u32>,
    src_next_arrival: Vec<f64>,
    queues: MsgQueues,
    rng: SmallRng,
    now: u64,
    end: u64,
    // occupancy structures (see module header)
    /// Pending Poisson arrivals: one `(⌈next_arrival⌉, node)` entry per
    /// node with a finite next arrival. Keys of due entries always equal
    /// the current cycle, so pops are node-ascending within a cycle.
    arrivals: BinaryHeap<Reverse<(u64, u32)>>,
    /// Pending chained-message releases, keyed `(release_time, index)`.
    releases: BinaryHeap<Reverse<(u64, u32)>>,
    /// Bit `n` ⟺ source `n` has a queued message and an idle injector.
    injectable: DenseBitSet,
    // Lane masks (see the module header), indexed by plane like the lane
    // arrays: ascending bit order *is* the transmit sweep order.
    /// Bit `plane` ⟺ the lane is owned by a worm.
    k_owned: DenseBitSet,
    /// Bit `plane` ⟺ the lane's upstream input is available (a source
    /// with flits left to emit, or a nonempty upstream lane buffer).
    k_has_input: DenseBitSet,
    /// Bit `plane` ⟺ the lane's own buffer is full. Ejection lanes are
    /// never pushed (the destination absorbs flits immediately), so
    /// their bits stay 0 forever — which is why the ready combine needs
    /// no separate ejection mask: `eject ∨ ¬full` ≡ `¬full`.
    k_full: DenseBitSet,
    /// Bit `plane` ⟺ the lane is dead in the current fault epoch
    /// (loaded at epoch boundaries from `CompiledEpoch::dead_planes`).
    k_dead: DenseBitSet,
    /// Bit `p` (a packet slot) ⟺ packet `p`'s head lane is off the
    /// ejection channel **and** buffers `p`'s header — exactly the
    /// reference allocate phase's advance-request predicate.
    k_advance: DenseBitSet,
    /// Messages sitting in source queues, across all sources.
    queued_msgs: u64,
    // fault / watchdog state
    /// Flits moved in the current cycle (watchdog progress signal).
    moved: u32,
    /// Last cycle that saw flit movement (or had no active packets).
    last_progress: u64,
    /// Measured packets aborted by fault epochs.
    aborted_pkts: u64,
    /// Measured messages refused at injection as undeliverable.
    undeliverable_pkts: u64,
    // measurement state
    generated_pkts: u64,
    generated_flits: u64,
    delivered_pkts: u64,
    delivered_flits: u64,
    latency: Welford,
    latency_hist: LatencyHistogram,
    latency_batches: BatchMeans,
    /// Exact integer accumulator behind `mean_queue`: the sum of
    /// `queued_msgs` over measured cycles plus the measured-cycle count.
    /// Integer sums make the fast-forward contribution O(1) — a skipped
    /// quiescent stretch adds `k` cycles of zero queue, which leaves the
    /// sum untouched — where the previous float Welford accumulator had
    /// to replay `k` pushes one by one to stay bit-identical.
    queue_sum: u64,
    queue_cycles: u64,
    max_queue: usize,
    util: Vec<u64>,
    deliveries: Option<Vec<Delivery>>,
    trace: Option<Trace>,
    // scratch buffers
    elig: Vec<u32>,
    reqs: Vec<Req>,
}

impl EngineState {
    /// An empty state; the first run dimensions it.
    pub fn new() -> EngineState {
        EngineState {
            lane_owner: Vec::new(),
            lane_upstream: Vec::new(),
            lane_bufs: LaneBufs::default(),
            lane_downstream: Vec::new(),
            mux_last: Vec::new(),
            pkt_head_lane: Vec::new(),
            pkt_sent: Vec::new(),
            pkt_len: Vec::new(),
            pkt_dst: Vec::new(),
            pkt_cand: Vec::new(),
            pkt_delivered: Vec::new(),
            pkt_active_pos: Vec::new(),
            pkt_meta: Vec::new(),
            free_slots: Vec::new(),
            active: Vec::new(),
            src_injecting: Vec::new(),
            src_next_arrival: Vec::new(),
            queues: MsgQueues::default(),
            rng: SmallRng::seed_from_u64(0),
            now: 0,
            end: 0,
            arrivals: BinaryHeap::new(),
            releases: BinaryHeap::new(),
            injectable: DenseBitSet::with_capacity(0),
            k_owned: DenseBitSet::with_capacity(0),
            k_has_input: DenseBitSet::with_capacity(0),
            k_full: DenseBitSet::with_capacity(0),
            k_dead: DenseBitSet::with_capacity(0),
            k_advance: DenseBitSet::with_capacity(0),
            queued_msgs: 0,
            moved: 0,
            last_progress: 0,
            aborted_pkts: 0,
            undeliverable_pkts: 0,
            generated_pkts: 0,
            generated_flits: 0,
            delivered_pkts: 0,
            delivered_flits: 0,
            latency: Welford::new(),
            latency_hist: LatencyHistogram::new(),
            latency_batches: BatchMeans::new(2, 1),
            queue_sum: 0,
            queue_cycles: 0,
            max_queue: 0,
            util: Vec::new(),
            deliveries: None,
            trace: None,
            elig: Vec::new(),
            reqs: Vec::new(),
        }
    }

    /// Approximate footprint in bytes — capacities × element size, message
    /// slab included, the convention of `NetworkGraph::approx_bytes`. (The
    /// fixed-size statistics accumulators, ≈ 9 KB, are not counted.)
    pub fn approx_bytes(&self) -> usize {
        let u32s = [
            &self.lane_owner, &self.lane_upstream, &self.lane_downstream, &self.pkt_head_lane,
            &self.pkt_sent, &self.pkt_len, &self.pkt_dst, &self.pkt_delivered,
            &self.pkt_active_pos, &self.free_slots, &self.active, &self.src_injecting, &self.elig,
        ];
        let masks = [
            &self.injectable, &self.k_owned, &self.k_has_input, &self.k_full, &self.k_dead,
            &self.k_advance,
        ];
        let u64s = self.src_next_arrival.capacity() + self.util.capacity() + self.reqs.capacity();
        std::mem::size_of::<Self>()
            + u32s.iter().map(|v| v.capacity() * 4).sum::<usize>()
            + masks.iter().map(|m| m.approx_bytes()).sum::<usize>()
            + self.lane_bufs.approx_bytes() + self.queues.approx_bytes() + self.mux_last.capacity()
            + u64s * 8
            + self.pkt_cand.capacity() * std::mem::size_of::<PortSpan>()
            + self.pkt_meta.capacity() * std::mem::size_of::<PktMeta>()
            + (self.arrivals.capacity() + self.releases.capacity()) * 16
    }

    /// Restore the exact state a fresh engine construction produces for
    /// `(net, cfg, seed)`, keeping allocations wherever dimensions allow.
    /// `deterministic` enables the per-message delivery log (finite
    /// scripted/chained runs).
    fn reset(&mut self, net: &NetworkGraph, cfg: &EngineConfig, seed: u64, deterministic: bool) {
        let nch = net.num_channels();
        let n_nodes = net.geometry.nodes() as usize;

        self.rng = SmallRng::seed_from_u64(seed);

        // Every container goes through `refill` / `trim` (`crate::active`'s
        // shrink rule): per-lane and per-node arrays at their new size, the
        // ones a run grows — packet slots, heaps, scratch — against the
        // node count they scale with.
        let want_lanes = Planes::new(net, cfg).count();
        refill(&mut self.lane_owner, want_lanes, NONE);
        refill(&mut self.lane_upstream, want_lanes, NONE);
        self.lane_bufs.reset(want_lanes, cfg.buffer_depth);
        refill(&mut self.lane_downstream, want_lanes, NONE);
        refill(&mut self.mux_last, if cfg.vcs > 1 { nch } else { 0 }, 0);

        for v in [
            &mut self.pkt_head_lane, &mut self.pkt_sent, &mut self.pkt_len, &mut self.pkt_dst,
            &mut self.pkt_delivered, &mut self.pkt_active_pos, &mut self.free_slots,
            &mut self.active, &mut self.elig,
        ] {
            trim(v, n_nodes);
        }
        trim(&mut self.pkt_cand, n_nodes);
        trim(&mut self.pkt_meta, n_nodes);
        trim(&mut self.reqs, n_nodes);

        refill(&mut self.src_injecting, n_nodes, NONE);
        refill(&mut self.src_next_arrival, n_nodes, f64::INFINITY);
        self.queues.reset(n_nodes);

        self.now = 0;
        self.end = cfg.warmup + cfg.measure;
        for heap in [&mut self.arrivals, &mut self.releases] {
            let mut v = std::mem::take(heap).into_vec();
            trim(&mut v, n_nodes);
            *heap = BinaryHeap::from(v);
        }
        self.injectable.reset(n_nodes);
        // The plane masks are (re)dimensioned by `Engine::init_kernel_masks`.
        self.queued_msgs = 0;
        self.moved = 0;
        self.last_progress = 0;
        self.aborted_pkts = 0;
        self.undeliverable_pkts = 0;

        self.generated_pkts = 0;
        self.generated_flits = 0;
        self.delivered_pkts = 0;
        self.delivered_flits = 0;
        self.latency.reset();
        self.latency_hist.reset();
        self.latency_batches.reset(16, 64.max(cfg.measure / 2048));
        self.queue_sum = 0;
        self.queue_cycles = 0;
        self.max_queue = 0;
        refill(&mut self.util, if cfg.collect_channel_util { nch } else { 0 }, 0);
        self.deliveries = if deterministic { Some(Vec::new()) } else { None };
        self.trace = if cfg.collect_trace {
            Some(Trace::default())
        } else {
            None
        };
    }

    /// Arrivals-phase enqueue of one message at `node`, the same for all
    /// three traffic kinds.
    fn enqueue(&mut self, node: u32, msg: QueuedMsg, now: u64, measuring: bool) {
        let QueuedMsg { dst, len, tag, .. } = msg;
        let queued = self.queues.push_back(node, msg);
        if let Some(tr) = &mut self.trace {
            tr.events.push(TraceEvent::Queued { tag, time: now, src: node, dst, len });
        }
        if measuring {
            self.generated_pkts += 1;
            self.generated_flits += u64::from(len);
            self.max_queue = self.max_queue.max(queued);
        }
        self.queued_msgs += 1;
        if self.src_injecting[node as usize] == NONE {
            self.injectable.set(node);
        }
    }
}

impl Default for EngineState {
    fn default() -> Self {
        EngineState::new()
    }
}

struct Engine<'a> {
    net: &'a NetworkGraph,
    cfg: &'a EngineConfig,
    routes: &'a RouteTable,
    planes: Planes<'a>,
    eject: &'a DenseBitSet,
    traffic: Feed<'a>,
    /// Active fault schedule; `None` is the fault-free fast path (trivial
    /// schedules are normalized to `None` in `CompiledNet::run`).
    faults: Option<&'a CompiledFaults>,
    /// Index of the current fault epoch in `faults`.
    epoch: usize,
    st: &'a mut EngineState,
}

impl<'a> Engine<'a> {
    #[inline]
    fn measuring(&self) -> bool {
        self.st.now >= self.cfg.warmup
    }

    // ---- plane masks --------------------------------------------------

    /// Dimension and seed the plane masks for a fresh run: everything
    /// empty except the epoch-0 dead mask.
    fn init_kernel_masks(&mut self) {
        let planes = self.planes.count();
        self.st.k_owned.reset(planes);
        self.st.k_has_input.reset(planes);
        self.st.k_full.reset(planes);
        // Grows with the slot table; starting at the node count (not 0)
        // keeps the shrink rule from freeing it on every same-sized rerun.
        self.st.k_advance.reset(self.net.geometry.nodes() as usize);
        self.st.k_dead.reset(planes);
        if let Some(f) = self.faults {
            self.st.k_dead.load(&f.epochs[self.epoch].dead_planes);
        }
    }

    /// Debug-only exactness audit: every mask bit must equal the
    /// per-lane predicate it mirrors. Called periodically from the cycle
    /// loop in debug builds; incremental-maintenance bugs persist in the
    /// masks, so a sampled check still catches them.
    /// It also holds what the flit-less buffers rest on ([`Self::move_flit`]):
    /// a free or pad plane buffers nothing and links nowhere; a worm is one
    /// chain, upstream and downstream words inverse, sweep positions
    /// descending toward the head (the reverse-topological order).
    #[cfg(debug_assertions)]
    fn check_kernel_masks(&self) {
        let st = &*self.st;
        for pl in 0..self.planes.count() as u32 {
            let li = pl as usize;
            let owned = st.lane_owner[li] != NONE;
            assert_eq!(st.k_owned.contains(pl), owned, "k_owned plane {pl}");
            assert_eq!(st.k_full.contains(pl), st.lane_bufs.is_full(li), "k_full plane {pl}");
            assert_eq!(st.k_has_input.contains(pl), self.has_input(li), "k_has_input plane {pl}");
            let unlinked = st.lane_upstream[li] == NONE && st.lane_downstream[li] == NONE;
            assert!(owned || (st.lane_bufs.is_empty(li) && unlinked), "free plane {pl} holds state");
        }
        let epoch = self.faults.map(|f| &f.epochs[self.epoch]);
        for w in 0..st.k_dead.num_words() {
            assert_eq!(st.k_dead.word(w), epoch.map_or(0, |ep| ep.dead_planes[w]), "k_dead word {w}");
        }
        let shift = self.planes.shift;
        for (i, &p) in st.active.iter().enumerate() {
            assert_eq!(st.pkt_active_pos[p as usize], i as u32, "pkt_active_pos packet {p}");
            let head = st.pkt_head_lane[p as usize];
            assert_eq!(st.lane_downstream[head as usize], NONE, "head of packet {p} feeds a lane");
            let mut li = head;
            loop {
                assert_eq!(st.lane_owner[li as usize], p, "chain of packet {p} at plane {li}");
                let up = st.lane_upstream[li as usize];
                if up & UP_SOURCE != 0 {
                    break;
                }
                assert_eq!(st.lane_downstream[up as usize], li, "chain of packet {p} at plane {up}");
                assert!(up >> shift > li >> shift, "chain of packet {p} ascends at plane {li}");
                li = up;
            }
            let want = !self.eject.contains(head) && !st.lane_bufs.is_empty(head as usize);
            assert_eq!(st.k_advance.contains(p), want, "k_advance packet {p}");
            if self.faults.is_none() {
                let at_ch = self.planes.channel(head);
                let route = self.routes.route(at_ch, st.pkt_dst[p as usize]);
                let want: Vec<u32> = route.map(|c| self.net.position(c)).collect();
                assert_eq!(st.pkt_cand[p as usize].collect::<Vec<_>>(), want, "pkt_cand packet {p}");
            }
        }
    }

    // ---- phase 1: arrivals -------------------------------------------

    fn generate_arrivals(&mut self) {
        let now = self.st.now;
        let now_f = now as f64;
        let measuring = self.measuring();
        match &mut self.traffic {
            Feed::Poisson(wl) => {
                // Pop every matured node. A due entry's key always equals
                // `now` (keys are ⌈next_arrival⌉ computed when the arrival
                // was strictly in the future, and nothing is left behind a
                // cycle), so matured nodes come out in ascending node
                // order — the reference engine's scan order.
                while let Some(&Reverse((fire, node))) = self.st.arrivals.peek() {
                    if fire > now {
                        break;
                    }
                    self.st.arrivals.pop();
                    debug_assert_eq!(fire, now, "arrival missed its cycle");
                    while self.st.src_next_arrival[node as usize] <= now_f {
                        let dst = wl.draw_destination(node, &mut self.st.rng);
                        let len = wl.draw_length(&mut self.st.rng);
                        let msg = QueuedMsg { dst, len, gen_time: now, tag: NONE };
                        self.st.enqueue(node, msg, now, measuring);
                        let rate = wl.message_rate(node);
                        let u: f64 = 1.0 - self.st.rng.random::<f64>();
                        self.st.src_next_arrival[node as usize] += -u.ln() / rate;
                    }
                    let next = self.st.src_next_arrival[node as usize];
                    self.st.arrivals.push(Reverse((next.ceil() as u64, node)));
                }
            }
            Feed::Scripted { msgs, next } => {
                while *next < msgs.len() && msgs[*next].time <= now {
                    let m = msgs[*next];
                    let msg = QueuedMsg { dst: m.dst, len: m.len, gen_time: m.time, tag: *next as u32 };
                    *next += 1;
                    self.st.enqueue(m.src, msg, now, measuring);
                }
            }
            Feed::Chained { msgs, .. } => {
                // Due entries carry key == now (roots mature untouched;
                // dependents are released at ≥ delivery cycle + 1), so
                // pops are index-ascending — the reference's scan order.
                while let Some(&Reverse((t, i))) = self.st.releases.peek() {
                    if t > now {
                        break;
                    }
                    self.st.releases.pop();
                    let m = msgs[i as usize];
                    let msg = QueuedMsg { dst: m.dst, len: m.len, gen_time: t, tag: i };
                    self.st.enqueue(m.src, msg, now, measuring);
                }
            }
        }
    }

    // ---- phase 2: routing and lane allocation ------------------------

    fn allocate(&mut self) -> Result<(), SimError> {
        let mut reqs = std::mem::take(&mut self.st.reqs);
        reqs.clear();
        self.st
            .injectable
            .for_each(|node| reqs.push(Req::Inject(node)));
        // The advance-request predicate is tracked incrementally in
        // `k_advance` (set when the header flit lands in the head lane's
        // buffer, cleared when a claim moves the head), so the scan costs
        // one bit test per active packet instead of a head-lane /
        // ejection / buffer-front load chain. The `active` vec still
        // drives the scan — request order (injectable ascending, then
        // `active` insertion order) feeds the request shuffle and must
        // stay identical to the reference engine's.
        for &p in &self.st.active {
            if self.st.k_advance.contains(p) {
                reqs.push(Req::Advance(p));
            }
        }
        // Serve requests in random order (distributed arbitration).
        let n = reqs.len();
        for i in (1..n).rev() {
            let j = self.st.rng.random_range(0..=i);
            reqs.swap(i, j);
        }
        let mut result = Ok(());
        for &req in &reqs {
            result = match req {
                Req::Inject(node) => self.try_inject(node),
                Req::Advance(p) => self.try_advance(p),
            };
            if result.is_err() {
                break;
            }
        }
        self.st.reqs = reqs;
        result
    }

    /// Collect the planes of the free lanes of the candidate channels at
    /// transmit `positions` into the eligibility scratch: where a routing
    /// decision enters plane space — the cached progression on the
    /// fault-free path, a masked cell mapped channel by channel under a
    /// fault schedule, where dead lanes are not eligible.
    fn gather_free(&mut self, positions: impl Iterator<Item = u32>) {
        self.st.elig.clear();
        let (Planes { vcs, shift, .. }, faulted) = (self.planes, self.faults.is_some());
        for pos in positions {
            let group = pos << shift;
            for pl in group..group + u32::from(vcs) {
                if self.st.lane_owner[pl as usize] == NONE
                    && !(faulted && self.st.k_dead.contains(pl))
                {
                    self.st.elig.push(pl);
                }
            }
        }
    }

    /// Claim one of the gathered free lanes for `owner`, uniformly at
    /// random (the paper's policy); returns its plane.
    fn claim_gathered(&mut self, owner: u32) -> Option<u32> {
        if self.st.elig.is_empty() {
            return None;
        }
        let idx = self.st.rng.random_range(0..self.st.elig.len());
        let lane = self.st.elig[idx];
        self.st.lane_owner[lane as usize] = owner;
        self.st.k_owned.set(lane);
        Some(lane)
    }

    /// Pop undeliverable messages off `node`'s queue head: under the
    /// current fault epoch no live route from the injection channel
    /// reaches their destination, so injecting them could only wedge the
    /// network. Counted (when measured) in `undeliverable_pkts`; the
    /// queue is self-cleaning because the next allocation phase sees the
    /// next message. Returns whether a deliverable message remains.
    fn refuse_undeliverable(&mut self, node: u32, inj: ChannelId) -> bool {
        let Some(f) = self.faults else { return true };
        let ep = &f.epochs[self.epoch];
        if !ep.any_dead {
            return true;
        }
        let warmup = self.cfg.warmup;
        loop {
            let Some(&msg) = self.st.queues.front(node) else {
                self.st.injectable.clear(node);
                return false;
            };
            // The masked table's injection cell is nonempty iff a live
            // path to the destination exists (deliverability pruning).
            if ep.routes.route(inj, msg.dst).len() > 0 {
                return true;
            }
            self.st.queues.pop_front(node);
            self.st.queued_msgs -= 1;
            if msg.gen_time >= warmup {
                self.st.undeliverable_pkts += 1;
            }
            if let Some(tr) = &mut self.st.trace {
                tr.events.push(TraceEvent::Refused {
                    tag: msg.tag,
                    time: self.st.now,
                });
            }
        }
    }

    fn try_inject(&mut self, node: u32) -> Result<(), SimError> {
        let inj = self.net.inject(node);
        if !self.refuse_undeliverable(node, inj) {
            return Ok(());
        }
        self.gather_free(std::iter::once(self.net.position(inj)));
        // Claim with a placeholder owner; fixed up after slot allocation.
        let Some(lane) = self.claim_gathered(NONE - 1) else {
            return Ok(());
        };
        let Some(msg) = self.st.queues.pop_front(node) else {
            return Err(SimError::Internal {
                what: "inject request without a queued message",
            });
        };
        self.st.queued_msgs -= 1;
        self.st.injectable.clear(node);
        let meta = PktMeta {
            src: node,
            dst: msg.dst,
            gen_time: msg.gen_time,
            measured: msg.gen_time >= self.cfg.warmup,
            tag: msg.tag,
        };
        let slot = match self.st.free_slots.pop() {
            Some(s) => {
                let si = s as usize;
                self.st.pkt_head_lane[si] = lane;
                self.st.pkt_sent[si] = 0;
                self.st.pkt_len[si] = msg.len;
                self.st.pkt_dst[si] = msg.dst;
                self.st.pkt_delivered[si] = 0;
                self.st.pkt_active_pos[si] = self.st.active.len() as u32;
                self.st.pkt_meta[si] = meta;
                s
            }
            None => {
                self.st.pkt_head_lane.push(lane);
                self.st.pkt_sent.push(0);
                self.st.pkt_len.push(msg.len);
                self.st.pkt_dst.push(msg.dst);
                self.st.pkt_cand.push(PortSpan::default());
                self.st.pkt_delivered.push(0);
                self.st.pkt_active_pos.push(self.st.active.len() as u32);
                self.st.pkt_meta.push(meta);
                (self.st.pkt_meta.len() - 1) as u32
            }
        };
        self.st.lane_owner[lane as usize] = slot;
        self.st.lane_upstream[lane as usize] = UP_SOURCE | node;
        // A source with a packet to emit is available input
        // (`sent == 0 < len`); the fresh head lane's buffer is empty,
        // so no advance request until the header lands in it.
        debug_assert!(self.st.pkt_len[slot as usize] >= 1);
        self.st.k_has_input.set(lane);
        self.st.k_advance.grow(self.st.pkt_meta.len());
        self.st.k_advance.clear(slot);
        if self.faults.is_none() {
            self.st.pkt_cand[slot as usize] = self.route(inj, msg.dst);
        }
        self.st.src_injecting[node as usize] = slot;
        self.st.active.push(slot);
        if let Some(tr) = &mut self.st.trace {
            let tag = self.st.pkt_meta[slot as usize].tag;
            tr.events.push(TraceEvent::Injected {
                tag,
                time: self.st.now,
            });
            tr.events.push(TraceEvent::Hop {
                tag,
                time: self.st.now,
                channel: inj,
            });
        }
        Ok(())
    }

    /// The routing decision of a header arriving over `at` for `dst`, as
    /// its candidates' transmit positions: the table's span moved by its
    /// level's map — empty at the ejection channel, where no advance
    /// request is raised.
    fn route(&self, at: ChannelId, dst: u32) -> PortSpan {
        match self.routes.route(at, dst) {
            Route::Span(ids) => ids.get(0).map_or(ids, |c| self.planes.level(c).of_span(ids)),
            Route::Cell(_) => unreachable!("a compiled network's table is the built, compact one"),
        }
    }

    fn try_advance(&mut self, p: u32) -> Result<(), SimError> {
        // The destination comes from the hot SoA copy; the cold `PktMeta`
        // record is only touched on the rare paths that need more
        // (tracing wants `tag`).
        let dst = self.st.pkt_dst[p as usize];
        let at_lane = self.st.pkt_head_lane[p as usize];
        match self.faults {
            // Fault epochs route through the masked table: candidates
            // are live *and* deliverable.
            Some(f) => {
                let at_ch = self.planes.channel(at_lane);
                let cands = f.epochs[self.epoch].routes.route(at_ch, dst);
                let Some(first) = cands.clone().next() else {
                    // Disconnected mid-route: the current epoch left this
                    // worm no live continuation toward its destination.
                    // `advance_epoch` aborts such worms at the boundary
                    // when `fault_abort` is on, so reaching this with the
                    // knob on means the worm arrived here within the
                    // epoch — abort it now; with the knob off it wedges
                    // in place for the watchdog to diagnose.
                    if self.cfg.fault_abort {
                        self.abort_packet(p)?;
                    }
                    return Ok(());
                };
                let at = self.planes.level(first);
                self.gather_free(cands.map(|c| at.of(c)));
            }
            None => {
                let positions = self.st.pkt_cand[p as usize];
                debug_assert!(positions.len > 0, "advance request at the destination");
                self.gather_free(positions);
            }
        }
        let Some(lane) = self.claim_gathered(p) else {
            return Ok(()); // blocked; the worm holds its lanes and waits
        };
        // The one id a hop needs: the new head's, to look its route up.
        let new_ch = self.planes.channel(lane);
        self.st.lane_upstream[lane as usize] = at_lane;
        self.st.lane_downstream[at_lane as usize] = lane;
        self.st.pkt_head_lane[p as usize] = lane;
        // The advance request came off a nonempty `at_lane` buffer (its
        // front is the header), so the new head has input; its own empty
        // buffer holds no header yet.
        debug_assert!(!self.st.lane_bufs.is_empty(at_lane as usize));
        self.st.k_has_input.set(lane);
        self.st.k_advance.clear(p);
        // New head, new candidate cell: refresh the cache once per hop.
        if self.faults.is_none() {
            self.st.pkt_cand[p as usize] = self.route(new_ch, dst);
        }
        if let Some(tr) = &mut self.st.trace {
            tr.events.push(TraceEvent::Hop {
                tag: self.st.pkt_meta[p as usize].tag,
                time: self.st.now,
                channel: new_ch,
            });
        }
        Ok(())
    }

    // ---- phase 3: transmission ---------------------------------------

    /// Word-parallel transmit: combine the lane masks into an **exact**
    /// per-word ready mask — `owned ∧ has_input ∧ ¬full ∧ ¬dead`, bit
    /// for bit the [`lane_ready`](Self::lane_ready) predicate (its
    /// `eject ∨ ¬full` term collapses to `¬full` because ejection-lane
    /// buffers are never pushed, and the `¬dead` term is folded only
    /// when a fault plan is loaded — without one `k_dead` is identically
    /// zero) — and serve its set bits with `trailing_zeros`. Planes are
    /// sweep-position-major, so ascending bit order *is* the reference
    /// engine's every-channel scan order with the channels that have no
    /// ready lane left out — and such a visit touches neither mux nor
    /// RNG nor report state, so every move and every mux selection is
    /// identical, in identical order. For `vcs > 1` a channel's lanes
    /// are one aligned group of `1 << vcs_shift` bits; the group's low
    /// `vcs` bits are the `ready` bool array the reference builds for the
    /// channel's VC mux, which is consulted only when some lane is ready,
    /// and the cursor advances a whole group at a time (one flit per
    /// channel per cycle).
    ///
    /// Kept out of line: inlined into the cycle loop of `run` the kernels
    /// share a frame with the allocation phase, and an unrelated edit
    /// there (the route lookup of ISSUE 15) re-allocated their registers
    /// for a measured −6 % on 64-node sweeps. One call per cycle buys
    /// codegen that only changes when this code does.
    #[inline(never)]
    fn transmit(&mut self) -> Result<(), SimError> {
        let nw = self.st.k_owned.num_words();
        let faulted = self.faults.is_some();
        if self.planes.vcs == 1 {
            self.transmit_kernel_vc1(nw, faulted)
        } else {
            self.transmit_kernel_vcn(nw, faulted)
        }
    }

    /// The saturation-critical kernel: `vcs == 1`. Each mask word is
    /// combined **once**; the set bits are then consumed low-to-high with
    /// no re-read, because under the reverse-topological order a move
    /// can change the readiness of at most one lane *ahead* of the
    /// cursor — the popped upstream lane `u` (its
    /// full-bit falls; every other mask transition lands at an earlier
    /// position: the pushed-into lane is the bit just consumed, and the
    /// downstream lane gaining input sits before it). [`Self::move_flit`]
    /// reports `u`'s plane and recomputed ready bit, and the loop patches
    /// the resident word directly — turning the per-move mask re-read
    /// into a register operation. Bits that *fall* ahead of the cursor
    /// cannot happen: a released upstream lane had no input (its worm's
    /// tail was the popped flit), so its bit was never set.
    fn transmit_kernel_vc1(&mut self, nw: usize, faulted: bool) -> Result<(), SimError> {
        for w in 0..nw {
            let mut ready =
                self.st.k_owned.word(w) & self.st.k_has_input.word(w) & !self.st.k_full.word(w);
            if faulted {
                ready &= !self.st.k_dead.word(w);
            }
            let eject = self.eject.word(w);
            while ready != 0 {
                let b = ready.trailing_zeros();
                ready &= ready - 1;
                let pl = (w * 64) as u32 + b;
                debug_assert!(self.lane_ready(pl));
                let fb = self.move_flit(pl, eject >> b & 1 != 0)?;
                if fb != NO_FEEDBACK && (fb & PLANE_MASK) >> 6 == w as u32 {
                    debug_assert!(fb & PLANE_MASK > pl, "upstream behind the cursor");
                    let bit = 1u64 << (fb & 63);
                    if fb >> 31 != 0 {
                        ready |= bit;
                    } else {
                        ready &= !bit;
                    }
                }
            }
        }
        Ok(())
    }

    /// The `vcs > 1` twin of [`Self::transmit_kernel_vc1`]: the same
    /// combine-once / patch-on-feedback cursor, consuming a whole
    /// aligned lane group per visit (one flit per channel per cycle).
    /// The ahead-patch argument is unchanged — the popped upstream lane
    /// belongs to a strictly-upstream *channel*, so its plane lands in a
    /// strictly later group than the one just consumed.
    fn transmit_kernel_vcn(&mut self, nw: usize, faulted: bool) -> Result<(), SimError> {
        let shift = self.planes.shift;
        let gw = 1u32 << shift;
        let gmask = u64::MAX >> (64 - gw);
        for w in 0..nw {
            let mut ready =
                self.st.k_owned.word(w) & self.st.k_has_input.word(w) & !self.st.k_full.word(w);
            if faulted {
                ready &= !self.st.k_dead.word(w);
            }
            let eject = self.eject.word(w);
            while ready != 0 {
                let b = ready.trailing_zeros();
                let g0 = b & !(gw - 1);
                let group = (ready >> g0) & gmask;
                ready &= !(gmask << g0);
                let base = (w * 64) as u32 + g0;
                let vc = self.mux_select(base >> shift, group)?;
                let fb = self.move_flit(base + vc, eject >> g0 & 1 != 0)?;
                if fb != NO_FEEDBACK && (fb & PLANE_MASK) >> 6 == w as u32 {
                    debug_assert!(fb & PLANE_MASK > base + gw - 1);
                    let bit = 1u64 << (fb & 63);
                    if fb >> 31 != 0 {
                        ready |= bit;
                    } else {
                        ready &= !bit;
                    }
                }
            }
        }
        Ok(())
    }

    /// The VC multiplexer of the channel at sweep position `pos` (`vcs >
    /// 1`): pick among the group's ready lanes — bit `vc` of `group` — and
    /// remember the winner.
    #[inline]
    fn mux_select(&mut self, pos: u32, group: u64) -> Result<u32, SimError> {
        let last = &mut self.st.mux_last[pos as usize];
        let vc = round_robin_select(last, group, self.planes.vcs.into());
        vc.ok_or(SimError::Internal { what: "a ready lane must be selectable" })
    }

    /// The per-lane readiness predicate, as the reference engine
    /// evaluates it; the sweeps debug-assert it of every lane they serve.
    #[inline]
    fn lane_ready(&self, pl: u32) -> bool {
        let li = pl as usize;
        // A dead lane transmits nothing. With `fault_abort` on, owned
        // lanes are never dead (casualties are aborted at the epoch
        // boundary); this check matters for the wedge-the-network test
        // knob. (`k_dead` is identically zero without a fault plan.)
        self.st.lane_owner[li] != NONE
            && !self.st.k_dead.contains(pl)
            && self.has_input(li)
            && (self.eject.contains(pl) || !self.st.lane_bufs.is_full(li))
    }

    /// Whether lane `li`'s upstream can supply a flit — the predicate the
    /// `k_has_input` mask mirrors.
    fn has_input(&self, li: usize) -> bool {
        let up = self.st.lane_upstream[li];
        if up & UP_SOURCE == 0 {
            return !self.st.lane_bufs.is_empty(up as usize);
        }
        let p = self.st.lane_owner[li] as usize;
        up != NONE && self.st.pkt_sent[p] < self.st.pkt_len[p]
    }

    /// Move one flit into the lane at plane `pl` — the bit the sweep just
    /// served, and the lane's index in every array; `eject`: whether its
    /// channel ends at a node.
    ///
    /// No flit is stored: a lane buffers a run of its owner's flits, in
    /// order, so the one moving is the **tail** iff nothing can follow it
    /// — it left a source that has now sent the whole packet, or emptied
    /// an upstream lane that is itself exhausted — and the **header** iff
    /// nothing went before it: it lands in an empty lane no downstream
    /// lane has yet drawn from, which is the worm's head.
    ///
    /// Returns the cursor-patch feedback the transmit kernels consume:
    /// [`NO_FEEDBACK`], or the popped upstream lane's plane in the low
    /// bits with its recomputed ready state in bit 31.
    #[inline]
    fn move_flit(&mut self, pl: u32, eject: bool) -> Result<u32, SimError> {
        let li = pl as usize;
        let p = self.st.lane_owner[li];
        let up = self.st.lane_upstream[li];
        let pi = p as usize;
        let mut fb = NO_FEEDBACK;
        let is_tail = if up & UP_SOURCE == 0 {
            if !self.st.lane_bufs.pop(up as usize) {
                return Err(SimError::Internal {
                    what: "ready lane lost its upstream flit",
                });
            }
            debug_assert_eq!(self.st.lane_owner[up as usize], p, "foreign upstream lane");
            // The pop leaves `up`'s buffer non-full; if it also drained
            // it, this lane's input is gone.
            fb = up;
            self.st.k_full.clear(up);
            let drained = self.st.lane_bufs.is_empty(up as usize);
            if drained {
                self.st.k_has_input.clear(pl);
            }
            drained && self.st.lane_upstream[up as usize] == NONE
        } else if up != NONE {
            let node = up & !UP_SOURCE;
            self.st.pkt_sent[pi] += 1;
            let sent_all = self.st.pkt_sent[pi] == self.st.pkt_len[pi];
            if sent_all {
                self.st.src_injecting[node as usize] = NONE;
                if self.st.queues.front(node).is_some() {
                    self.st.injectable.set(node);
                }
            }
            sent_all
        } else {
            return Err(SimError::Internal {
                what: "exhausted lanes are never ready",
            });
        };
        self.st.moved += 1;
        if !self.st.util.is_empty() && self.measuring() {
            self.st.util[li >> self.planes.shift] += 1;
        }
        if is_tail {
            if up & UP_SOURCE == 0 {
                self.release_lane(up);
            }
            self.st.lane_upstream[li] = NONE;
            self.st.k_has_input.clear(pl);
        }
        if eject {
            // The cold packet meta is only needed on the ejection path
            // (delivery accounting and completion); deferring the load
            // here keeps the ~80% of moves that just forward a flit off
            // the cold array entirely.
            let PktMeta {
                gen_time, measured, ..
            } = self.st.pkt_meta[pi];
            // Consumption: the destination absorbs the flit immediately.
            self.st.pkt_delivered[pi] += 1;
            // Count flits of *measured* packets, matching delivered_pkts
            // (see the module header's measurement-accounting notes).
            if measured {
                self.st.delivered_flits += 1;
            }
            if is_tail {
                self.release_lane(pl);
                self.complete_packet(p, gen_time, measured)?;
            }
        } else if let Some(buffered) = self.st.lane_bufs.push(li) {
            if self.st.lane_bufs.is_full(li) {
                self.st.k_full.set(pl);
            }
            // The flit just buffered in `li` is input for the downstream
            // lane that pulls from `li` (if the worm has advanced past it).
            let d = self.st.lane_downstream[li];
            if d != NONE {
                self.st.k_has_input.set(d);
            } else if buffered == 1 {
                // The header: it only ever lands in the worm's current
                // head lane (the downstream consumer that pops it exists
                // only after a later claim moves the head), so this push
                // is exactly the advance-request-becomes-true event — and
                // this branch never runs for the ejection channel.
                debug_assert_eq!(self.st.pkt_head_lane[pi], pl);
                self.st.k_advance.set(p);
            }
        } else {
            return Err(SimError::Internal {
                what: "flit moved into a full lane buffer",
            });
        }
        if fb != NO_FEEDBACK {
            // Recompute the popped upstream lane's ready bit for the
            // cursor patch: the pop just cleared its full-bit, it is
            // still owned unless the tail released it (and a released
            // lane had no input left either way), so readiness reduces
            // to its own input being available — plus aliveness under an
            // active fault plan.
            if !is_tail
                && self.st.k_has_input.contains(fb)
                && !(self.faults.is_some() && self.st.k_dead.contains(fb))
            {
                fb |= 1 << 31;
            }
        }
        Ok(fb)
    }

    fn release_lane(&mut self, li: u32) {
        debug_assert!(
            self.st.lane_bufs.is_empty(li as usize),
            "releasing a lane with a buffered flit"
        );
        debug_assert_ne!(self.st.lane_owner[li as usize], NONE, "double lane release");
        self.st.lane_owner[li as usize] = NONE;
        self.st.lane_upstream[li as usize] = NONE;
        self.st.lane_downstream[li as usize] = NONE;
        self.st.k_owned.clear(li);
        self.st.k_has_input.clear(li);
        // `k_full` needs no touch: the buffer is empty (asserted above),
        // so the last pop already cleared it.
    }

    fn complete_packet(&mut self, p: u32, gen_time: u64, measured: bool) -> Result<(), SimError> {
        let done = self.st.now + 1; // flit arrives at the end of this cycle
        if measured {
            let lat = (done - gen_time) as f64;
            self.st.latency.push(lat);
            self.st.latency_hist.record(done - gen_time);
            self.st.latency_batches.push(lat);
            self.st.delivered_pkts += 1;
        }
        let tag = self.st.pkt_meta[p as usize].tag;
        if let Feed::Chained {
            msgs,
            dependents,
            release,
            remaining,
            overhead,
        } = &mut self.traffic
        {
            *remaining -= 1;
            for &d in &dependents[tag as usize] {
                debug_assert!(release[d as usize].is_none(), "double release");
                let t = (done + *overhead).max(msgs[d as usize].earliest);
                release[d as usize] = Some(t);
                self.st.releases.push(Reverse((t, d)));
            }
        }
        if let Some(tr) = &mut self.st.trace {
            tr.events.push(TraceEvent::Delivered { tag, time: done });
        }
        if let Some(log) = &mut self.st.deliveries {
            let meta = &self.st.pkt_meta[p as usize];
            log.push(Delivery {
                src: meta.src,
                dst: meta.dst,
                len: self.st.pkt_len[p as usize],
                gen_time,
                done_time: done,
                tag,
            });
        }
        self.retire(p, "completing an inactive packet")
    }

    /// Take `p` off `active` and recycle its slot, in O(1): `swap_remove`
    /// at the recorded position, re-recording the element it moves.
    /// (`active`'s order feeds the request shuffle, so how it is permuted
    /// here is part of the determinism contract.)
    fn retire(&mut self, p: u32, what: &'static str) -> Result<(), SimError> {
        let idx = self.st.pkt_active_pos[p as usize] as usize;
        if self.st.active.get(idx) != Some(&p) {
            return Err(SimError::Internal { what });
        }
        self.st.active.swap_remove(idx);
        if let Some(&moved) = self.st.active.get(idx) {
            self.st.pkt_active_pos[moved as usize] = idx as u32;
        }
        // Already clear on completion (the bit dies with the claim of the
        // ejection lane), but slot-recycling hygiene is cheap to make total.
        self.st.k_advance.clear(p);
        self.st.free_slots.push(p);
        Ok(())
    }

    // ---- fault handling ----------------------------------------------

    /// Advance the fault epoch to match `now` (several boundaries may
    /// pass at once after a fast-forward jump). On a change, with
    /// `fault_abort` on, sweep the active packets and abort every
    /// casualty: worms holding a now-dead lane, and worms whose head has
    /// no live continuation under the new masked table.
    fn advance_epoch(&mut self) -> Result<(), SimError> {
        let Some(f) = self.faults else { return Ok(()) };
        let mut changed = false;
        while self.epoch + 1 < f.epochs.len() && f.epochs[self.epoch + 1].start <= self.st.now {
            self.epoch += 1;
            changed = true;
        }
        if !changed {
            return Ok(());
        }
        // A boundary can resurrect lanes (dead in the old epoch, live in
        // the new one). Readiness is recomputed from the masks on every
        // word read, so loading the new dead mask is all it takes.
        self.st.k_dead.load(&f.epochs[self.epoch].dead_planes);
        if !self.cfg.fault_abort {
            return Ok(());
        }
        let ep = &f.epochs[self.epoch];
        // Identify casualties first (ascending slot order for
        // determinism), then abort — aborting mutates `active`.
        let mut victims: Vec<u32> = Vec::new();
        for &p in &self.st.active {
            let pi = p as usize;
            let head = self.st.pkt_head_lane[pi];
            let chain_dead = self.chain_holds_dead_lane(p);
            let disconnected = !self.eject.contains(head)
                && ep.routes.route(self.planes.channel(head), self.st.pkt_meta[pi].dst).len() == 0;
            if chain_dead || disconnected {
                victims.push(p);
            }
        }
        victims.sort_unstable();
        for p in victims {
            self.abort_packet(p)?;
        }
        // Epoch changes (and any aborts they caused) are progress as far
        // as the watchdog is concerned: the network's constraints just
        // changed, so give the new epoch a full window.
        self.st.last_progress = self.st.now;
        Ok(())
    }

    /// Whether any lane in `p`'s held chain (head back to tail) is dead.
    fn chain_holds_dead_lane(&self, p: u32) -> bool {
        let mut li = self.st.pkt_head_lane[p as usize];
        loop {
            if self.st.k_dead.contains(li) {
                return true;
            }
            li = self.st.lane_upstream[li as usize];
            if li & UP_SOURCE != 0 {
                return false;
            }
        }
    }

    /// Abort-and-drain: walk `p`'s lane chain from head to tail, drain
    /// every buffered flit, release every lane, restore the source
    /// injector, and retire the slot. Debug builds check conservation of
    /// flits: every flit the source emitted was either delivered or
    /// drained here.
    fn abort_packet(&mut self, p: u32) -> Result<(), SimError> {
        let pi = p as usize;
        let mut li = self.st.pkt_head_lane[pi];
        let mut drained: u32 = 0;
        loop {
            if self.st.lane_owner[li as usize] != p {
                return Err(SimError::Internal {
                    what: "aborting a worm over a lane it does not own",
                });
            }
            drained += self.st.lane_bufs.drain(li as usize);
            self.st.k_full.clear(li);
            let up = self.st.lane_upstream[li as usize];
            self.release_lane(li);
            if up & UP_SOURCE == 0 {
                li = up;
                continue;
            }
            if up != NONE {
                let node = up & !UP_SOURCE;
                self.st.src_injecting[node as usize] = NONE;
                if self.st.queues.front(node).is_some() {
                    self.st.injectable.set(node);
                }
            }
            break;
        }
        debug_assert_eq!(
            self.st.pkt_sent[pi],
            self.st.pkt_delivered[pi] + drained,
            "flits leaked during abort-and-drain"
        );
        if self.st.pkt_meta[pi].measured {
            self.st.aborted_pkts += 1;
        }
        if let Some(tr) = &mut self.st.trace {
            tr.events.push(TraceEvent::Aborted {
                tag: self.st.pkt_meta[pi].tag,
                time: self.st.now,
            });
        }
        self.retire(p, "aborting an inactive packet")
    }

    // ---- no-progress watchdog ----------------------------------------

    /// Build the structured diagnostic the watchdog terminates with:
    /// every active packet and its position, the held channels, and — via
    /// a cycle search on the packet wait-for graph (packet → owners of
    /// the lanes it wants next) — the circular wait, if one exists.
    fn diagnose_stall(&mut self) -> StallDiagnostic {
        let stalled: Vec<StalledPacket> = self
            .st
            .active
            .iter()
            .map(|&p| {
                let pi = p as usize;
                let meta = self.st.pkt_meta[pi];
                StalledPacket {
                    src: meta.src,
                    dst: meta.dst,
                    head_channel: self.planes.channel(self.st.pkt_head_lane[pi]),
                    sent: self.st.pkt_sent[pi],
                    len: self.st.pkt_len[pi],
                    delivered: self.st.pkt_delivered[pi],
                }
            })
            .collect();
        let mut held_channels = Vec::new();
        self.st.k_owned.for_each(|pl| held_channels.push(self.planes.channel(pl)));
        held_channels.sort_unstable();
        held_channels.dedup();
        // Wait-for graph over indices into `stalled`. An edge i → j means
        // packet i's header wants a lane of a candidate channel currently
        // owned by packet j. `find_cycle` works on any dense u32 digraph.
        let mut slot_to_idx = vec![u32::MAX; self.st.pkt_meta.len()];
        for (i, &p) in self.st.active.iter().enumerate() {
            slot_to_idx[p as usize] = i as u32;
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.st.active.len()];
        for (i, &p) in self.st.active.iter().enumerate() {
            let pi = p as usize;
            let head = self.st.pkt_head_lane[pi];
            if self.eject.contains(head) {
                continue;
            }
            let dst = self.st.pkt_meta[pi].dst;
            let routes = self.faults.map_or(self.routes, |f| &f.epochs[self.epoch].routes);
            for c in routes.route(self.planes.channel(head), dst) {
                for vc in 0..self.planes.vcs {
                    let owner = self.st.lane_owner[self.planes.of(c, vc.into()) as usize];
                    if owner != NONE && owner != p {
                        let j = slot_to_idx[owner as usize];
                        if j != u32::MAX && !adj[i].contains(&j) {
                            adj[i].push(j);
                        }
                    }
                }
            }
        }
        StallDiagnostic {
            cycle: self.st.now,
            window: self.cfg.watchdog_window,
            stalled,
            held_channels,
            suspected_cycle: find_cycle(&adj),
        }
    }

    // ---- event-horizon fast-forward ----------------------------------

    /// Whether no phase can do any work this cycle: no active worms and
    /// no queued messages — everything waits on a future traffic event.
    #[inline]
    fn quiescent(&self) -> bool {
        let q = self.st.active.is_empty() && self.st.queued_msgs == 0;
        // Quiescence implies empty occupancy sets; the word-level
        // emptiness scans keep this fast-forward gate honest without
        // iterating members.
        debug_assert!(
            !q || (self.st.injectable.is_empty_set() && self.st.k_owned.is_empty_set()),
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
    fn ff_target(&self) -> Option<u64> {
        let next = match &self.traffic {
            Feed::Poisson(_) => self.st.arrivals.peek().map(|&Reverse((t, _))| t),
            Feed::Scripted { msgs, next } => msgs.get(*next).map(|m| m.time),
            Feed::Chained { .. } => self.st.releases.peek().map(|&Reverse((t, _))| t),
        };
        match next {
            Some(t) => Some(t.min(self.st.end)),
            None => match self.traffic {
                Feed::Poisson(_) => Some(self.st.end),
                _ => None,
            },
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
    fn jump_to(&mut self, target: u64) -> bool {
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
            self.st.queue_cycles += target - measured_from;
        }
        self.st.now = target;
        true
    }

    // ---- main loop ----------------------------------------------------

    /// Run to the horizon (a finite source: to its drain), a budget cut
    /// or an error. An iteration either fast-forwards a quiescent run or
    /// executes one full cycle: fault-epoch catch-up, the three phases,
    /// the no-progress watchdog, the mean-queue sample, the clock tick.
    fn run(mut self) -> Result<SimReport, SimError> {
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
                if self.st.moved == 0 && !self.st.active.is_empty() {
                    if self.st.now - self.st.last_progress >= watchdog {
                        return Err(SimError::NoProgress(Box::new(self.diagnose_stall())));
                    }
                } else {
                    self.st.last_progress = self.st.now;
                }
                self.st.moved = 0;
            }
            if self.measuring() {
                self.st.queue_sum += self.st.queued_msgs;
                self.st.queue_cycles += 1;
            }
            // Sampled mask-exactness audit (debug builds only): maintenance
            // bugs persist in the masks, so a periodic full check catches
            // them without multiplying test wall time by the lane count.
            #[cfg(debug_assertions)]
            if self.st.now & 63 == 0 {
                self.check_kernel_masks();
            }
            self.st.now += 1;
            if self.st.active.is_empty() && self.drained() {
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
        SimError::BudgetExceeded(Box::new(PartialReport {
            kind,
            limit,
            spent_cycles,
            report: self.finish(),
        }))
    }

    /// Whether a finite (scripted/chained) traffic source has nothing left
    /// to inject; a Poisson source never drains, its run ends at the
    /// horizon.
    fn drained(&self) -> bool {
        if self.st.queued_msgs > 0 {
            return false;
        }
        match &self.traffic {
            Feed::Poisson(_) => false,
            Feed::Scripted { msgs, next } => *next == msgs.len(),
            Feed::Chained { remaining, .. } => *remaining == 0,
        }
    }

    fn finish(self) -> SimReport {
        let st = self.st;
        let n_nodes = self.net.geometry.nodes() as f64;
        // Normalize by the cycles actually measured, not the configured
        // window: finite runs drain early (module header, "Measurement
        // accounting").
        let measured_cycles = st.now.saturating_sub(self.cfg.warmup);
        let window = measured_cycles as f64;
        let per_node_cycle = |flits: u64| {
            if measured_cycles == 0 {
                0.0
            } else {
                flits as f64 / (n_nodes * window)
            }
        };
        SimReport {
            cycles: st.now,
            measured_cycles,
            generated_packets: st.generated_pkts,
            delivered_packets: st.delivered_pkts,
            offered_flits_per_node_cycle: per_node_cycle(st.generated_flits),
            accepted_flits_per_node_cycle: per_node_cycle(st.delivered_flits),
            mean_latency_cycles: st.latency.mean(),
            latency_ci95_cycles: st.latency_batches.ci95_half_width(),
            p50_latency_cycles: st.latency_hist.quantile(0.50),
            p95_latency_cycles: st.latency_hist.quantile(0.95),
            p99_latency_cycles: st.latency_hist.quantile(0.99),
            max_latency_cycles: st.latency_hist.max(),
            mean_queue: if st.queue_cycles == 0 {
                0.0
            } else {
                st.queue_sum as f64 / st.queue_cycles as f64
            },
            max_queue: st.max_queue,
            sustainable: st.max_queue <= self.cfg.queue_limit,
            steady: st.delivered_flits as f64 >= 0.95 * st.generated_flits as f64,
            in_flight_at_end: st.active.len() as u64 + st.queued_msgs,
            aborted_packets: st.aborted_pkts,
            undeliverable_packets: st.undeliverable_pkts,
            // Counted by sweep position; reported by channel id.
            channel_utilization: (!st.util.is_empty()).then(|| {
                (0..st.util.len() as u32)
                    .map(|ch| st.util[(self.planes.of(ch, 0) >> self.planes.shift) as usize])
                    .map(|u| if measured_cycles == 0 { 0.0 } else { u as f64 / window })
                    .collect()
            }),
            deliveries: st.deliveries.take(),
            trace: st.trace.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn index_range_is_checked_not_assumed() {
        // The 16k-terminal BMIN at the widest lane group is nowhere near.
        assert!(check_index_range(229_376, 64, 16_384).is_ok());
        // Planes = channels << vcs_shift: 2³¹ exactly is one too many,
        // and a non-power-of-two `vcs` pays for its padded group.
        assert!(check_index_range((1 << 31) - 1, 1, 2).is_ok());
        assert!(matches!(check_index_range(1 << 31, 1, 2), Err(SimError::Config(_))));
        assert!(check_index_range((1 << 29) - 1, 4, 2).is_ok());
        assert!(check_index_range((1 << 29) - 1, 5, 2).is_err());
        assert!(check_index_range(1 << 29, 3, 2).is_err());
        // Node ids share a word with the source tag bit.
        assert!(check_index_range(8, 1, (1 << 31) - 1).is_ok());
        assert!(check_index_range(8, 1, 1 << 31).is_err());
    }

    /// The one geometry check: every traffic kind compiled for a
    /// geometry other than the network's is refused, naming its source.
    #[test]
    fn traffic_of_another_geometry_is_refused() {
        let (small, big) = (Geometry::new(4, 2), Geometry::new(4, 3));
        let graph = Arc::new(minnet_topology::build_bmin(big));
        let net = CompiledNet::new(graph, EngineConfig::default()).unwrap();
        let spec = minnet_traffic::WorkloadSpec {
            offered_load: 0.1,
            pattern: minnet_traffic::TrafficPattern::Uniform,
            clustering: minnet_traffic::Clustering::Global,
            rates: None,
            sizes: minnet_traffic::MessageSizeDist::PAPER,
        };
        let workload = Workload::compile(small, &spec).unwrap();
        let scripted = ScriptedMsg { time: 0, src: 0, dst: 1, len: 4 };
        let script = Script::compile(small, &[scripted]).unwrap();
        let chained = ChainedMsg { src: 0, dst: 1, len: 4, earliest: 0, after: None };
        let chain = Chain::compile(small, &[chained], 0).unwrap();
        let mut st = EngineState::new();
        for (traffic, want) in [
            (Traffic::Poisson(&workload), "workload"),
            (Traffic::Script(&script), "script"),
            (Traffic::Chain(&chain), "chain"),
        ] {
            match net.run(traffic, None, 1, &mut st) {
                Err(SimError::GeometryMismatch { what, expected, got }) => {
                    assert_eq!((what, expected, got), (want, big, small));
                }
                other => panic!("{want}: {:?}", other.map(drop)),
            }
        }
    }

    /// The engine's mask select is the oracle's round-robin `VcMux` on
    /// every input: n ≤ 6 VCs, every `last`, every ready mask — the same
    /// choice, and the same memory after it.
    #[cfg(feature = "reference-engine")]
    #[test]
    fn select_mask_equals_select_on_every_input() {
        use crate::reference::{VcMux, VcMuxPolicy};
        for n in 1..=6u32 {
            let all = vec![true; n as usize];
            for last in 0..n {
                for mask in 0..1u64 << n {
                    // A lone ready VC wins: that sets the oracle's memory.
                    let mut m = VcMux::new(VcMuxPolicy::RoundRobin);
                    let lone: Vec<bool> = (0..n).map(|i| i == last).collect();
                    assert_eq!(m.select(&lone), Some(last as usize));
                    let ready: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                    let mut packed = last as u8;
                    let got = round_robin_select(&mut packed, mask, n);
                    let want = m.select(&ready);
                    assert_eq!(got.map(|i| i as usize), want, "n={n} last={last} mask={mask:b}");
                    // With every VC ready the pick is `last + 1`: the
                    // memories agree.
                    let next = round_robin_select(&mut packed, (1 << n) - 1, n);
                    assert_eq!(next.map(|i| i as usize), m.select(&all), "n={n} last={last} mask={mask:b}");
                }
            }
        }
        let mut last = 63u8;
        assert_eq!(round_robin_select(&mut last, 1 << 63 | 1, 64), Some(0));
        assert_eq!(round_robin_select(&mut last, 0, 1), None);
    }

    #[test]
    fn footprint_lane_and_node_arrays_are_on_budget() {
        assert_eq!(size_of::<QueuedMsg>(), 24);
        assert_eq!(size_of::<PktMeta>(), 24);
        assert_eq!(size_of::<PortSpan>(), 12);
        assert_eq!(size_of::<Req>(), 8);
        let net = minnet_topology::build_bmin(Geometry::new(4, 3));
        let (nch, nodes) = (net.num_channels(), net.geometry.nodes() as usize);
        let lane_bytes = |st: &EngineState| {
            4 * (st.lane_owner.len() + st.lane_upstream.len() + st.lane_downstream.len())
                + st.lane_bufs.approx_bytes()
                + st.mux_last.len()
        };
        let mut st = EngineState::new();
        st.reset(&net, &EngineConfig::default(), 1, false);
        assert_eq!(lane_bytes(&st), 14 * nch, "vcs 1, depth 1: 14 B a lane, no mux");
        let node_bytes = 4 * st.src_injecting.len() + 8 * st.src_next_arrival.len();
        assert_eq!(node_bytes + st.queues.approx_bytes(), 24 * nodes);
        let cfg = EngineConfig { vcs: 2, buffer_depth: 4, ..EngineConfig::default() };
        st.reset(&net, &cfg, 1, false);
        assert_eq!(lane_bytes(&st), 14 * 2 * nch + nch, "vcs 2, depth 4: 14 B a lane + 1 B a channel");
        // Not a power of two: the lane arrays are padded to the plane group.
        st.reset(&net, &EngineConfig { vcs: 3, ..EngineConfig::default() }, 1, false);
        assert_eq!(lane_bytes(&st), 14 * 4 * nch + nch, "vcs 3: a group of 4 planes a channel");
    }
}
