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
//! The code follows the cycle, one module a phase — `state`, `arrivals`,
//! `allocate`, `transmit`, `faults`, `horizon`, `run` — and each phase
//! owns the part of [`EngineState`] it mutates.
//!
//! # Compile-once / run-many split
//!
//! Everything about a run that depends only on the *network and engine
//! configuration* — the ejection-plane mask and the routing table (the
//! graph's handle and nothing more: the destination digit a switch reads
//! is computed, and chooses among the port spans the graph computes, so
//! the benchmark's `routing.table_bytes` is the table's own few dozen
//! bytes at any node count, where digit rows made it `n · nodes`; the
//! transmit order is a closed form of the channel id and is not stored)
//! — lives in an immutable
//! [`CompiledNet`], built once and shared (`Arc`-held network) across
//! however many runs and threads a sweep needs. Everything that changes
//! over a run — lanes, queues, heaps, statistics, the RNG — lives in a
//! reusable [`EngineState`], whose `reset(seed)` path restores the exact
//! fresh-construction state while keeping every allocation. One run is
//! one call of the one run entry, [`CompiledNet::run`]: the compiled
//! network × a [`Traffic`] source (a Poisson [`minnet_traffic::Workload`],
//! a [`Script`] or a [`Chain`]) × an optional fault schedule × a seed ×
//! the caller's `EngineState`.
//! Whoever owns the state decides how long its allocations live: a sweep
//! worker keeps one for all of its points, a one-shot caller passes a
//! fresh one.
//!
//! There is no other entry: a caller that runs a network once compiles
//! a [`CompiledNet`] and runs it on a fresh state, so there is one
//! routing representation and one engine path at every size, which
//! [`CompiledNet::run_observed`] runs watched (the `trace` module). The
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
//! * an **arrival heap** (Poisson) keyed `(⌈next_arrival⌉, node)`, packed
//!   in one `u64`, with one outstanding entry per generating node, and a
//!   **release heap**
//!   (chained traffic) keyed `(release_time, index)` — arrivals phase work
//!   is O(log n) per event, not O(nodes) or O(messages) per cycle;
//! * an **injectable-source bitset**: bit `n` set iff node `n`'s queue is
//!   nonempty while nothing is injecting there (`injecting == NONE`),
//!   updated at each of the three transitions (arrival into an idle-
//!   injector queue; injection start; injection end with a nonempty
//!   queue). The allocation phase reads injection requests off this set
//!   instead of scanning every source;
//! * dense **lane masks** (`owned`, `has-input`, `dead`, and `full`,
//!   which `LaneBufs` keeps with the buffers it mirrors) indexed
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
//! no phase can do any work until the next traffic event matures, so the
//! loop jumps `now` straight to the earliest pending event key (arrival
//! heap, script cursor, or release heap; clamped to the horizon and to an
//! armed cycle budget) instead of spinning empty cycles — always; there
//! is no switch. Reports stay **bit-identical** to a cycle-by-cycle run
//! (the argument is `horizon`'s, at `jump_to`), which the `reference`
//! engine is: it never skips, and `tests/engine_equivalence.rs` holds the
//! two equal on gap- and drain-heavy shapes. The win scales with idle
//! time: gaps in scripted/chained workloads, drain tails, and very low
//! Poisson loads.
//!
//! # Hot state on a byte budget
//!
//! Lane, node and packet state are parallel dense arrays with no
//! per-entity heap allocation: 5 bytes a lane at the paper's one-flit
//! buffers and 7 deeper, 28 a node and 4·H a packet slot for its lane
//! path, held by `tests/footprint.rs`. ("Lane" is a plane: at a `vcs`
//! of 3, 5 or 6 — test-only — the arrays carry each group's pad planes.)
//!
//! | array | B | per | what it is for; when it exists |
//! |---|---|---|---|
//! | `lanes.owner` | 4 | lane | owning packet slot, `NONE` when free |
//! | `lanes.hop` | 1 | lane | the lane's index along its owner's `pkts.path` |
//! | `lanes.bufs` counters | 2 | lane | buffer occupancy — a counter: a lane holds a run of its owner's flits, and which is a header or a tail follows from the path (`move_flit`); only when `buffer_depth > 1`, since at depth 1 the `full` bit is the whole buffer |
//! | `lanes.mux_last` | 1 | channel | VC multiplexer memory; only when `vcs > 1` |
//! | the four plane masks | ½ | plane | `owned` / `has_input` / `dead` bits, and `lanes.bufs`' `full` |
//! | `src.injecting` | 4 | node | packet drawing from the source, else `NONE` |
//! | `src.next_arrival` | 8 | node | next Poisson arrival time |
//! | `src.arrivals` | 8 | node | the node's next Poisson arrival as a heap key, `⌈cycle⌉ << b \| node` with `b` the node id's bit width, a cycle past the horizon held as `end + 1`; only for a generating node, and a Poisson run whose `end + 1` does not fit above the `b` bits is refused before it starts |
//! | `src.queues` tail, len | 8 | node | FCFS list in the queue chunks, circular: the tail's link is the head |
//! | `src.queues` chunks | 20 | queued message | `active::MsgQueues`: a 16-byte record and its link, in 256-slot chunks that never move; freed slots are reused first |
//! | `src.queues` tags | 4 | queued message | script / chain index; only a tagged push writes it |
//! | `pkts.path` | 4·H | packet slot | the planes the worm claimed, in route order; it holds `tail..=head` |
//! | `pkts.*`, `PktMeta` | 62 | packet slot | hot fields the sweeps touch, cold meta apart |
//!
//! `H` is the network's longest route in channels, `n + 1` through a
//! unidirectional MIN and `2n` through a BMIN, so a worm's chain lives
//! with the worm: a lane's upstream and downstream are its neighbours
//! on the owner's path, and a network's idle lanes carry no chain words.
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

use crate::active::DenseBitSet;
use crate::config::{EngineConfig, SimReport};
use crate::error::SimError;
use crate::fault::CompiledFaults;
use crate::trace::{Observer, Recorder};
use minnet_routing::RouteTable;
use minnet_topology::{ChannelId, FaultPlan, Geometry, LevelPositions, NetworkGraph};
use minnet_traffic::Workload;
use std::cmp::Reverse;
use std::fmt::Display;
use std::sync::Arc;
use arrivals::ArrivalKeys;

pub use crate::config::Delivery;
pub use state::EngineState;

/// The index ranges the packed words rest on: planes (bit 31 of the
/// transmit feedback is a flag) and node ids must stay below 2³¹, and a
/// lane's index along the longest route, `hops − 1`, must fit the `u8`
/// of `lanes.hop`.
fn check_index_range(channels: usize, vcs: u8, nodes: u32, hops: usize) -> Result<(), SimError> {
    let planes = (channels as u64) << vcs_shift(vcs);
    if planes >= 1 << 31 || nodes >= 1 << 31 {
        return Err(SimError::Config(format!(
            "{channels} channels × {vcs} lanes ({planes} planes) and {nodes} nodes \
             must each stay below 2^31"
        )));
    }
    if hops > 1 << u8::BITS {
        return Err(SimError::Config(format!(
            "a route of {hops} channels: a worm's lane index must fit in a byte"
        )));
    }
    Ok(())
}

/// The longest route on `net`, in channels — injection and ejection
/// included, so the most lanes one worm can hold: `n + 1` through a
/// unidirectional MIN, `2n` up and down a BMIN (§3.2.3). Routes are
/// minimal, and a fault epoch's masked tables only prune candidates.
fn longest_route(net: &NetworkGraph) -> usize {
    let n = net.geometry.n() as usize;
    if net.kind.is_bidirectional() {
        2 * n
    } else {
        n + 1
    }
}

/// The checks every message of a [`Script`] or a [`Chain`] passes: no
/// self-send, both ends on the network, at least one flit. `who` names
/// the message in the error.
fn check_msg(g: Geometry, src: u32, dst: u32, len: u32, who: &dyn Display) -> Result<(), SimError> {
    let fault = if src == dst {
        "sends to itself"
    } else if src >= g.nodes() || dst >= g.nodes() {
        "addresses a missing node"
    } else if len == 0 {
        "has no flits"
    } else {
        return Ok(());
    };
    Err(SimError::Config(format!("{who} {fault}")))
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
            check_msg(g, m.src, m.dst, m.len, &format_args!("scripted message {m:?}"))?;
        }
        Ok(Script { geometry: g, msgs: sorted })
    }

    /// The messages, sorted by injection time.
    #[cfg(feature = "reference-engine")]
    pub fn msgs(&self) -> &[ScriptedMsg] {
        &self.msgs
    }
}

/// A validated chained (dependent-message) workload with its dependency
/// fan-out and root release entries precomputed, reusable across runs
/// ([`Traffic::Chain`]).
#[derive(Clone, Debug)]
pub struct Chain {
    geometry: Geometry,
    msgs: Vec<ChainedMsg>,
    /// `dependents[i]` lists the messages released by `i`'s delivery.
    /// Each message has one parent and a packet completes once, so no
    /// message is released twice.
    dependents: Vec<Vec<u32>>,
    /// The roots' release-heap entries, `(earliest, index)`; a run pushes
    /// a dependent's when its parent delivers.
    roots: Vec<Reverse<(u64, u32)>>,
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
        let mut roots = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            check_msg(g, m.src, m.dst, m.len, &format_args!("chained message {i}"))?;
            match m.after {
                None => roots.push(Reverse((m.earliest, i as u32))),
                Some(parent) if parent < i => dependents[parent].push(i as u32),
                Some(parent) => {
                    return Err(SimError::Config(format!(
                        "chained message {i} depends on later entry {parent}; \
                         order messages so parents precede children"
                    )));
                }
            }
        }
        Ok(Chain { geometry: g, msgs: msgs.to_vec(), dependents, roots, overhead })
    }

    /// The chained messages, in entry order.
    #[cfg(feature = "reference-engine")]
    pub fn msgs(&self) -> &[ChainedMsg] {
        &self.msgs
    }
}

/// The traffic one [`CompiledNet::run`] carries. Each source was compiled
/// for one [`Geometry`]; a run on a network of another is refused with
/// [`SimError::GeometryMismatch`]. A run's cursor into a finite source
/// lives in its [`EngineState`].
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
    /// The longest route in channels ([`longest_route`]): the stride of a
    /// packet slot's lane path.
    hops: usize,
    /// The arrival heap's key packing for this horizon; `None` when the
    /// horizon does not fit above the node bits, which refuses Poisson
    /// runs (a finite source never keys the heap).
    keys: Option<ArrivalKeys>,
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
        Planes { net, vcs: cfg.vcs, shift: vcs_shift(cfg.vcs) }
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
    /// table stores nothing but the graph's handle, and routes are
    /// computed from destination digits (see [`RouteTable`]).
    ///
    /// # Errors
    ///
    /// Reports invalid configurations, a radix the table cannot hold, and
    /// a network past the 2³¹ planes / nodes the packed state can index
    /// or with a route too long for a lane's byte of hop index.
    pub fn new(net: Arc<NetworkGraph>, cfg: EngineConfig) -> Result<CompiledNet, SimError> {
        cfg.validate()?;
        let (hops, nodes) = (longest_route(&net), net.geometry.nodes());
        check_index_range(net.num_channels(), cfg.vcs, nodes, hops)?;
        let routes = RouteTable::build(&net).map_err(SimError::Routing)?;
        let planes = Planes::new(&net, &cfg);
        let mut eject = DenseBitSet::with_capacity(planes.count());
        // Exactly the per-node ejection channels (`NetworkGraph::validate`).
        for c in net.ejects() {
            (0..cfg.vcs).for_each(|vc| eject.set(planes.of(c, vc.into())));
        }
        let keys = cfg.warmup.checked_add(cfg.measure).and_then(|end| ArrivalKeys::fit(nodes, end));
        Ok(CompiledNet { net, cfg, routes, eject, hops, keys })
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
    /// path bit for bit. The report's observer fields, `trace` and
    /// `channel_utilization`, are `None`; [`CompiledNet::run_observed`]
    /// fills them.
    ///
    /// # Errors
    ///
    /// Reports traffic compiled for a different geometry, a watchdog trip
    /// ([`SimError::NoProgress`]) or a budget cut
    /// ([`SimError::BudgetExceeded`]).
    // Inline: once a caller's variant is known the check is one compare,
    // and the engine start stays out of line in `start`, which also keeps
    // the one instantiation of the engine, the unit observer's, in this
    // crate. The split keeps the benchmark harness's text layout
    // (EXPERIMENTS-history.md "One run entry").
    #[inline]
    pub fn run(
        &self,
        traffic: Traffic<'_>,
        faults: Option<&CompiledFaults>,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        self.check_geometry(traffic)?;
        self.start(traffic, faults, seed, st)
    }

    /// [`CompiledNet::run`], watched: the report (a budget cut's too) also
    /// carries the event trace and each channel's utilisation; every
    /// other field is the unobserved run's, bit for bit.
    ///
    /// # Errors
    ///
    /// Those of [`CompiledNet::run`].
    pub fn run_observed(
        &self,
        traffic: Traffic<'_>,
        faults: Option<&CompiledFaults>,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        self.check_geometry(traffic)?;
        let mut rec = Recorder::new(&self.net);
        let mut run = self.launch(traffic, faults, seed, st, &mut rec);
        let report = match &mut run {
            Ok(report) => report,
            Err(SimError::BudgetExceeded(cut)) => &mut cut.report,
            Err(_) => return run,
        };
        rec.fill(report, &self.net);
        run
    }

    /// Refuse traffic compiled for another geometry, naming its source.
    #[inline]
    fn check_geometry(&self, traffic: Traffic<'_>) -> Result<(), SimError> {
        let (what, got) = match traffic {
            Traffic::Poisson(wl) => ("workload", wl.geometry()),
            Traffic::Script(s) => ("script", s.geometry),
            Traffic::Chain(c) => ("chain", c.geometry),
        };
        if got != self.net.geometry {
            return Err(SimError::GeometryMismatch { what, expected: self.net.geometry, got });
        }
        Ok(())
    }

    /// [`Self::launch`] with the unit observer.
    fn start(
        &self,
        traffic: Traffic<'_>,
        faults: Option<&CompiledFaults>,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        self.launch(traffic, faults, seed, st, &mut ())
    }

    /// Reset `st` for this run, which primes the traffic source's event
    /// heaps, and run the engine to its end under `obs`. A Poisson run
    /// whose horizon the arrival keys cannot hold is refused first, with
    /// `st` untouched.
    fn launch<O: Observer>(
        &self,
        traffic: Traffic<'_>,
        faults: Option<&CompiledFaults>,
        seed: u64,
        st: &mut EngineState,
        obs: &mut O,
    ) -> Result<SimReport, SimError> {
        let keys = match (traffic, self.keys) {
            (Traffic::Poisson(_), None) => {
                let why = "a Poisson run's horizon, warmup + measure, does not fit \
                           beside the node bits of an arrival key";
                return Err(SimError::Config(why.into()));
            }
            (_, keys) => keys.unwrap_or_default(),
        };
        // A trivial schedule (no epoch kills any lane) is indistinguishable
        // from no schedule; normalizing it to `None` here *guarantees* the
        // empty-plan path is the untouched fast path, bit for bit.
        let faults = faults.filter(|f| !f.is_trivial());
        st.reset(self, traffic, faults, keys, seed);
        Engine {
            net: &self.net,
            cfg: &self.cfg,
            routes: &self.routes,
            planes: Planes::new(&self.net, &self.cfg),
            eject: &self.eject,
            traffic,
            faults,
            epoch: 0,
            st,
            obs,
        }
        .run()
    }

    /// `run(Traffic::Poisson(workload), None, seed, st)`, errors and all,
    /// for `benchmark/src/replay.rs` only; ROADMAP 2(d) deletes it.
    pub fn run_poisson(
        &self,
        workload: &Workload,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        self.run(Traffic::Poisson(workload), None, seed, st)
    }

    /// `run(Traffic::Poisson(workload), faults, seed, st)`, errors and all,
    /// for `benchmark/src/replay.rs` only; ROADMAP 2(d) deletes it.
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

/// One run's view: the compiled network's parts, the traffic, the fault
/// schedule and its current epoch, the state the phases drive, and the
/// observer they report to. Each phase module adds its methods.
struct Engine<'a, O: Observer> {
    net: &'a NetworkGraph,
    cfg: &'a EngineConfig,
    routes: &'a RouteTable,
    planes: Planes<'a>,
    eject: &'a DenseBitSet,
    traffic: Traffic<'a>,
    /// Active fault schedule; `None` is the fault-free fast path (trivial
    /// schedules are normalized to `None` in `CompiledNet::start`).
    faults: Option<&'a CompiledFaults>,
    /// Index of the current fault epoch in `faults`.
    epoch: usize,
    st: &'a mut EngineState,
    /// Called, never read: the unit observer's hooks compile to nothing.
    obs: &'a mut O,
}

// The phases in the cycle's order, declared after the API so every
// function keeps the place it had when the engine was one file (the
// benchmark harness's text layout, ROADMAP 2(c)).
mod state;
mod arrivals;
mod allocate;
mod transmit;
mod faults;
mod horizon;
mod run;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_range_is_checked_not_assumed() {
        // The 16k-terminal BMIN at the widest lane group is nowhere near.
        assert!(check_index_range(229_376, 64, 16_384, 14).is_ok());
        // Planes = channels << vcs_shift: 2³¹ exactly is one too many,
        // and a non-power-of-two `vcs` pays for its padded group.
        assert!(check_index_range((1 << 31) - 1, 1, 2, 2).is_ok());
        assert!(matches!(check_index_range(1 << 31, 1, 2, 2), Err(SimError::Config(_))));
        assert!(check_index_range((1 << 29) - 1, 4, 2, 2).is_ok());
        assert!(check_index_range((1 << 29) - 1, 5, 2, 2).is_err());
        assert!(check_index_range(1 << 29, 3, 2, 2).is_err());
        // Node ids must stay below 2³¹ too.
        assert!(check_index_range(8, 1, (1 << 31) - 1, 2).is_ok());
        assert!(check_index_range(8, 1, 1 << 31, 2).is_err());
        // A lane's hop is a byte: 256 lanes a route, indices 0..=255.
        assert!(check_index_range(8, 1, 2, 256).is_ok());
        assert!(matches!(check_index_range(8, 1, 2, 257), Err(SimError::Config(_))));
    }

    /// A Poisson horizon one cycle past what the arrival keys hold is
    /// refused, typed, before the run touches its state; at the limit it
    /// runs (cut by a budget), and a script on the refused configuration
    /// runs too — a finite source keys no arrival.
    #[test]
    fn a_horizon_past_the_arrival_keys_is_refused_before_the_run() {
        let g = Geometry::new(4, 3);
        let graph = Arc::new(minnet_topology::build_bmin(g));
        // 64 nodes: 6 node bits, so the cycle field holds up to 2^58 − 1
        // and the last horizon is one less, `end + 1` never firing.
        let limit = (1u64 << 58) - 2;
        let cfg = |warmup, measure| EngineConfig {
            warmup,
            measure,
            budget: crate::RunBudget { max_cycles: 200, max_wall_ms: 0 },
            ..EngineConfig::default()
        };
        let spec = minnet_traffic::WorkloadSpec {
            offered_load: 0.1,
            pattern: minnet_traffic::TrafficPattern::Uniform,
            clustering: minnet_traffic::Clustering::Global,
            rates: None,
            sizes: minnet_traffic::MessageSizeDist::Fixed(8),
        };
        let workload = Workload::compile(g, &spec).unwrap();
        let poisson = Traffic::Poisson(&workload);
        let msg = ScriptedMsg { time: 3, src: 0, dst: 9, len: 4 };
        let script = Script::compile(g, &[msg]).unwrap();
        let untouched = EngineState::new().approx_bytes();
        for (warmup, measure) in [(0, limit + 1), (1_000, limit - 999), (u64::MAX, 1)] {
            let net = CompiledNet::new(graph.clone(), cfg(warmup, measure)).unwrap();
            assert!(net.keys.is_none(), "{warmup} + {measure}");
            let mut st = EngineState::new();
            match net.run(poisson, None, 1, &mut st) {
                Err(SimError::Config(msg)) => assert!(msg.contains("arrival key"), "{msg}"),
                other => panic!("{warmup} + {measure}: {:?}", other.map(drop)),
            }
            assert_eq!(st.approx_bytes(), untouched, "the refused run dimensioned its state");
            if warmup == 0 {
                let report = net.run(Traffic::Script(&script), None, 1, &mut st).unwrap();
                assert_eq!(report.delivered_packets, 1);
            }
        }
        let net = CompiledNet::new(graph, cfg(0, limit)).unwrap();
        assert!(net.keys.is_some());
        match net.run(poisson, None, 1, &mut EngineState::new()) {
            Err(SimError::BudgetExceeded(cut)) => assert!(cut.report.generated_packets > 0),
            other => panic!("at the limit: {:?}", other.map(drop)),
        }
    }

    /// `H`, a slot's path stride, on the four networks at 64 and 256
    /// terminals: the longest shortest path over all pairs (the routing
    /// crate's closed form), and at 64 terminals no route the routing
    /// logic can produce is longer.
    #[test]
    fn longest_route_is_the_longest_shortest_path() {
        use minnet_routing::{enumerate_paths, shortest_path_length, RouteLogic};
        use minnet_topology::{build_bmin, build_unidir, NodeAddr, UnidirKind};
        for n in [3, 4] {
            let g = Geometry::new(4, n);
            let vmin = EngineConfig { vcs: 2, ..EngineConfig::default() };
            let nets = [
                ("tmin", build_unidir(g, UnidirKind::Cube, 1), EngineConfig::default(), n + 1),
                ("dmin", build_unidir(g, UnidirKind::Cube, 2), EngineConfig::default(), n + 1),
                ("vmin", build_unidir(g, UnidirKind::Cube, 1), vmin, n + 1),
                ("bmin", build_bmin(g), EngineConfig::default(), 2 * n),
            ];
            for (name, graph, cfg, want) in nets {
                let bidir = graph.kind.is_bidirectional();
                let pairs = (0..g.nodes()).flat_map(|s| (0..g.nodes()).map(move |d| (s, d)));
                let longest = pairs
                    .clone()
                    .filter_map(|(s, d)| shortest_path_length(&g, bidir, NodeAddr(s), NodeAddr(d)))
                    .max();
                if n == 3 {
                    let logic = RouteLogic::for_kind(graph.kind);
                    let routed = pairs.map(|(s, d)| enumerate_paths(&graph, logic, s, d));
                    let most = routed.flat_map(|paths| paths.into_iter().map(|p| p.len())).max();
                    assert_eq!(most, Some(want as usize), "{name} at {} terminals", g.nodes());
                }
                let net = CompiledNet::new(Arc::new(graph), cfg).unwrap();
                assert_eq!(net.hops, want as usize, "{name} at {} terminals", g.nodes());
                assert_eq!(longest, Some(want), "{name} at {} terminals", g.nodes());
            }
        }
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
}
