//! The *reference* engine: the original scan-everything implementation,
//! frozen as a differential-testing oracle.
//!
//! [`crate::engine`] optimizes the per-cycle hot loop to scale with
//! *occupancy* (active worms, nonempty sources, claimed channels) rather
//! than network size. This module preserves the pre-optimization
//! scheduling verbatim — every cycle it scans all sources for injection
//! requests, all channels for ready lanes, and sums every source queue —
//! so `tests/engine_equivalence.rs` can require **bit-identical
//! [`SimReport`]s** from the two engines for the same seed across every
//! network kind and traffic mode. Any divergence pinpoints a bug in the
//! optimized engine's active-set bookkeeping.
//!
//! The two measurement-accounting fixes (rates divided by *elapsed*
//! measured cycles, delivered flits honoring the per-packet `measured`
//! flag — see the `engine` module header) are applied here too: the
//! oracle differs from the optimized engine only in scheduling data
//! structures, never in semantics.
//!
//! Compiled only with the `reference-engine` feature (enabled by the
//! differential tests); production consumers get the optimized engine
//! alone.

use crate::config::{Delivery, EngineConfig, SimReport, TransmitOrder};
use crate::engine::{ChainedMsg, ScriptedMsg};
use crate::stats::{BatchMeans, LatencyHistogram, Welford};
use crate::trace::{Trace, TraceEvent};
use minnet_routing::RouteLogic;
use minnet_switch::{Arbiter, Crossbar, FlitFifo, FlitRef, VcMux};
use minnet_topology::{ChannelId, Endpoint, NetworkGraph, Side};
use minnet_traffic::Workload;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Upstream {
    Exhausted,
    Source(u32),
    Lane(u32),
}

#[derive(Clone, Debug)]
struct Lane {
    owner: u32,
    buf: FlitFifo,
    upstream: Upstream,
}

#[derive(Clone, Debug)]
struct Packet {
    src: u32,
    dst: u32,
    len: u32,
    gen_time: u64,
    sent: u32,
    delivered: u32,
    head_lane: u32,
    measured: bool,
    tag: u32,
}

#[derive(Clone, Copy, Debug)]
struct QueuedMsg {
    dst: u32,
    len: u32,
    gen_time: u64,
    tag: u32,
}

#[derive(Clone, Debug)]
struct Source {
    queue: VecDeque<QueuedMsg>,
    injecting: u32,
    next_arrival: f64,
}

enum Traffic<'a> {
    Poisson(&'a Workload),
    Scripted {
        msgs: Vec<ScriptedMsg>,
        next: usize,
    },
    Chained {
        msgs: Vec<ChainedMsg>,
        dependents: Vec<Vec<u32>>,
        release: Vec<Option<u64>>,
        enqueued: Vec<bool>,
        remaining: usize,
        overhead: u64,
    },
}

enum Req {
    Inject(u32),
    Advance(u32),
}

struct Engine<'a> {
    net: &'a NetworkGraph,
    cfg: EngineConfig,
    logic: RouteLogic,
    traffic: Traffic<'a>,
    vcs: usize,
    lanes: Vec<Lane>,
    mux: Vec<VcMux>,
    order: Vec<ChannelId>,
    ejects: Vec<bool>,
    packets: Vec<Packet>,
    free_slots: Vec<u32>,
    active: Vec<u32>,
    sources: Vec<Source>,
    crossbars: Option<Vec<Crossbar>>,
    arbiter: Arbiter,
    rng: SmallRng,
    now: u64,
    end: u64,
    generated_pkts: u64,
    generated_flits: u64,
    delivered_pkts: u64,
    delivered_flits: u64,
    latency: Welford,
    latency_hist: LatencyHistogram,
    latency_batches: BatchMeans,
    /// Exact integer accumulator behind `mean_queue` (kept in lockstep
    /// with the optimized engine's: the division happens once, in
    /// `finish`, so both engines produce the identical f64).
    queue_sum: u64,
    queue_cycles: u64,
    max_queue: usize,
    util: Vec<u64>,
    deliveries: Option<Vec<Delivery>>,
    trace: Option<Trace>,
    cand: Vec<ChannelId>,
    elig: Vec<u32>,
    elig_flags: Vec<bool>,
    ready: Vec<bool>,
}

impl<'a> Engine<'a> {
    fn new(
        net: &'a NetworkGraph,
        traffic: Traffic<'a>,
        cfg: EngineConfig,
    ) -> Result<Engine<'a>, String> {
        cfg.validate()?;
        let vcs = cfg.vcs as usize;
        let nch = net.num_channels();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let n_nodes = net.geometry.nodes() as usize;

        let mut sources: Vec<Source> = (0..n_nodes)
            .map(|_| Source {
                queue: VecDeque::new(),
                injecting: NONE,
                next_arrival: f64::INFINITY,
            })
            .collect();
        if let Traffic::Poisson(wl) = &traffic {
            if wl.geometry() != net.geometry {
                return Err("workload geometry does not match the network".into());
            }
            for (node, s) in sources.iter_mut().enumerate() {
                let rate = wl.message_rate(node as u32);
                if rate > 0.0 {
                    let u: f64 = 1.0 - rng.random::<f64>();
                    s.next_arrival = -u.ln() / rate;
                }
            }
        }

        let crossbars = if cfg.validate_crossbars {
            let k = net.geometry.k() as u8;
            let d = net.kind.dilation();
            Some(
                (0..net.num_switches())
                    .map(|_| {
                        if net.kind.is_bidirectional() {
                            Crossbar::new(k, true)
                        } else {
                            Crossbar::new(k * d, false)
                        }
                    })
                    .collect(),
            )
        } else {
            None
        };

        let order = match cfg.transmit_order {
            TransmitOrder::ReverseTopo => net.transmit_order().to_vec(),
            TransmitOrder::BuildOrder => (0..nch as u32).collect(),
        };
        let deterministic = !matches!(traffic, Traffic::Poisson(_));

        Ok(Engine {
            net,
            logic: RouteLogic::for_kind(net.kind),
            traffic,
            vcs,
            lanes: vec![
                Lane {
                    owner: NONE,
                    buf: FlitFifo::new(cfg.buffer_depth as usize),
                    upstream: Upstream::Exhausted,
                };
                nch * vcs
            ],
            mux: vec![VcMux::new(cfg.vc_mux); nch],
            order,
            ejects: net
                .channels()
                .map(|c| matches!(c.dst, Endpoint::Node(_)))
                .collect(),
            packets: Vec::new(),
            free_slots: Vec::new(),
            active: Vec::new(),
            sources,
            crossbars,
            arbiter: Arbiter::new(cfg.alloc),
            rng,
            now: 0,
            end: cfg.warmup + cfg.measure,
            generated_pkts: 0,
            generated_flits: 0,
            delivered_pkts: 0,
            delivered_flits: 0,
            latency: Welford::new(),
            latency_hist: LatencyHistogram::new(),
            latency_batches: BatchMeans::new(16, 64.max(cfg.measure / 2048)),
            queue_sum: 0,
            queue_cycles: 0,
            max_queue: 0,
            util: if cfg.collect_channel_util {
                vec![0; nch]
            } else {
                Vec::new()
            },
            deliveries: if deterministic { Some(Vec::new()) } else { None },
            trace: if cfg.collect_trace {
                Some(Trace::default())
            } else {
                None
            },
            cand: Vec::new(),
            elig: Vec::new(),
            elig_flags: Vec::new(),
            ready: vec![false; vcs],
            cfg,
        })
    }

    #[inline]
    fn measuring(&self) -> bool {
        self.now >= self.cfg.warmup
    }

    fn in_code(&self, ch: ChannelId) -> (u32, u8) {
        let c = self.net.channel(ch);
        match c.dst {
            Endpoint::Switch { sw, side, port } => {
                let code = self.port_code(side, port, c.lane);
                (sw, code)
            }
            Endpoint::Node(_) => unreachable!("in_code of an ejection channel"),
        }
    }

    fn out_code(&self, ch: ChannelId) -> (u32, u8) {
        let c = self.net.channel(ch);
        match c.src {
            Endpoint::Switch { sw, side, port } => {
                let code = self.port_code(side, port, c.lane);
                (sw, code)
            }
            Endpoint::Node(_) => unreachable!("out_code of an injection channel"),
        }
    }

    fn port_code(&self, side: Side, port: u8, lane: u8) -> u8 {
        if self.net.kind.is_bidirectional() {
            let k = self.net.geometry.k() as u8;
            match side {
                Side::Left => port,
                Side::Right => k + port,
            }
        } else {
            port * self.net.kind.dilation() + lane
        }
    }

    // ---- phase 1: arrivals (full scan over sources / script entries) ---

    fn generate_arrivals(&mut self) {
        let now_f = self.now as f64;
        let measuring = self.measuring();
        match &mut self.traffic {
            Traffic::Poisson(wl) => {
                for node in 0..self.sources.len() as u32 {
                    let src = &mut self.sources[node as usize];
                    while src.next_arrival <= now_f {
                        let dst = wl.draw_destination(node, &mut self.rng);
                        let len = wl.draw_length(&mut self.rng);
                        src.queue.push_back(QueuedMsg {
                            dst,
                            len,
                            gen_time: self.now,
                            tag: NONE,
                        });
                        if let Some(tr) = &mut self.trace {
                            tr.events.push(TraceEvent::Queued {
                                tag: NONE,
                                time: self.now,
                                src: node,
                                dst,
                                len,
                            });
                        }
                        if measuring {
                            self.generated_pkts += 1;
                            self.generated_flits += u64::from(len);
                            self.max_queue = self.max_queue.max(src.queue.len());
                        }
                        let rate = wl.message_rate(node);
                        let u: f64 = 1.0 - self.rng.random::<f64>();
                        src.next_arrival += -u.ln() / rate;
                    }
                }
            }
            Traffic::Scripted { msgs, next } => {
                while *next < msgs.len() && msgs[*next].time <= self.now {
                    let m = msgs[*next];
                    let tag = *next as u32;
                    *next += 1;
                    let src = &mut self.sources[m.src as usize];
                    src.queue.push_back(QueuedMsg {
                        dst: m.dst,
                        len: m.len,
                        gen_time: m.time,
                        tag,
                    });
                    if let Some(tr) = &mut self.trace {
                        tr.events.push(TraceEvent::Queued {
                            tag,
                            time: self.now,
                            src: m.src,
                            dst: m.dst,
                            len: m.len,
                        });
                    }
                    if measuring {
                        self.generated_pkts += 1;
                        self.generated_flits += u64::from(m.len);
                        self.max_queue = self.max_queue.max(src.queue.len());
                    }
                }
            }
            Traffic::Chained {
                msgs,
                release,
                enqueued,
                ..
            } => {
                for i in 0..msgs.len() {
                    if enqueued[i] {
                        continue;
                    }
                    let Some(t) = release[i] else { continue };
                    if t > self.now {
                        continue;
                    }
                    enqueued[i] = true;
                    let m = msgs[i];
                    let src = &mut self.sources[m.src as usize];
                    src.queue.push_back(QueuedMsg {
                        dst: m.dst,
                        len: m.len,
                        gen_time: t,
                        tag: i as u32,
                    });
                    if let Some(tr) = &mut self.trace {
                        tr.events.push(TraceEvent::Queued {
                            tag: i as u32,
                            time: self.now,
                            src: m.src,
                            dst: m.dst,
                            len: m.len,
                        });
                    }
                    if measuring {
                        self.generated_pkts += 1;
                        self.generated_flits += u64::from(m.len);
                        self.max_queue = self.max_queue.max(src.queue.len());
                    }
                }
            }
        }
    }

    // ---- phase 2: routing and lane allocation (full source scan) ------

    fn allocate(&mut self) {
        let mut reqs: Vec<Req> = Vec::new();
        for (node, s) in self.sources.iter().enumerate() {
            if s.injecting == NONE && !s.queue.is_empty() {
                reqs.push(Req::Inject(node as u32));
            }
        }
        for &p in &self.active {
            let pkt = &self.packets[p as usize];
            let hl = pkt.head_lane;
            debug_assert_ne!(hl, NONE);
            let ch = (hl as usize / self.vcs) as u32;
            if self.ejects[ch as usize] {
                continue;
            }
            if let Some(flit) = self.lanes[hl as usize].buf.front() {
                if flit.packet == p && flit.is_header() {
                    reqs.push(Req::Advance(p));
                }
            }
        }
        let n = reqs.len();
        for i in (1..n).rev() {
            let j = self.rng.random_range(0..=i);
            reqs.swap(i, j);
        }
        for req in reqs {
            match req {
                Req::Inject(node) => self.try_inject(node),
                Req::Advance(p) => self.try_advance(p),
            }
        }
    }

    /// Claim a free lane among `self.cand` channels, via the original
    /// all-`true` flag-slice arbiter round-trip.
    fn claim_lane(&mut self, owner_hint: u32) -> Option<u32> {
        self.elig.clear();
        for &ch in &self.cand {
            for vc in 0..self.vcs {
                let li = ch as usize * self.vcs + vc;
                if self.lanes[li].owner == NONE {
                    self.elig.push(li as u32);
                }
            }
        }
        if self.elig.is_empty() {
            return None;
        }
        self.elig_flags.clear();
        self.elig_flags.resize(self.elig.len(), true);
        let idx = self
            .arbiter
            .pick(&self.elig_flags, &mut self.rng)
            .expect("nonempty eligible set");
        let lane = self.elig[idx];
        self.lanes[lane as usize].owner = owner_hint;
        Some(lane)
    }

    fn try_inject(&mut self, node: u32) {
        self.cand.clear();
        self.cand.push(self.net.inject(node));
        let Some(lane) = self.claim_lane(NONE - 1) else {
            return;
        };
        let msg = self.sources[node as usize]
            .queue
            .pop_front()
            .expect("inject request without a queued message");
        let pkt = Packet {
            src: node,
            dst: msg.dst,
            len: msg.len,
            gen_time: msg.gen_time,
            sent: 0,
            delivered: 0,
            head_lane: lane,
            measured: msg.gen_time >= self.cfg.warmup,
            tag: msg.tag,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.packets[s as usize] = pkt;
                s
            }
            None => {
                self.packets.push(pkt);
                (self.packets.len() - 1) as u32
            }
        };
        let l = &mut self.lanes[lane as usize];
        l.owner = slot;
        l.upstream = Upstream::Source(node);
        self.sources[node as usize].injecting = slot;
        self.active.push(slot);
        if let Some(tr) = &mut self.trace {
            let tag = self.packets[slot as usize].tag;
            tr.events.push(TraceEvent::Injected { tag, time: self.now });
            tr.events.push(TraceEvent::Hop {
                tag,
                time: self.now,
                channel: (lane as usize / self.vcs) as u32,
            });
        }
    }

    fn try_advance(&mut self, p: u32) {
        let (src, dst, at_lane) = {
            let pkt = &self.packets[p as usize];
            (pkt.src, pkt.dst, pkt.head_lane)
        };
        let at_ch = (at_lane as usize / self.vcs) as u32;
        self.logic
            .candidates(self.net, src, dst, at_ch, &mut self.cand);
        debug_assert!(!self.cand.is_empty(), "advance request at the destination");
        let Some(lane) = self.claim_lane(p) else {
            return;
        };
        let new_ch = (lane as usize / self.vcs) as u32;
        self.lanes[lane as usize].upstream = Upstream::Lane(at_lane);
        self.packets[p as usize].head_lane = lane;
        if let Some(tr) = &mut self.trace {
            tr.events.push(TraceEvent::Hop {
                tag: self.packets[p as usize].tag,
                time: self.now,
                channel: new_ch,
            });
        }
        if self.crossbars.is_none() {
            return;
        }
        let (sw_in, code_in) = self.in_code(at_ch);
        let (sw_out, code_out) = self.out_code(new_ch);
        debug_assert_eq!(sw_in, sw_out, "allocation must stay inside one switch");
        if let Some(xbars) = &mut self.crossbars {
            xbars[sw_in as usize]
                .connect(code_in, code_out)
                .expect("engine requested an illegal crossbar connection");
        }
    }

    // ---- phase 3: transmission (full channel scan) ---------------------

    fn transmit(&mut self) {
        for oi in 0..self.order.len() {
            let ch = self.order[oi];
            let base = ch as usize * self.vcs;
            let mut any = false;
            for vc in 0..self.vcs {
                let r = self.lane_ready(base + vc, ch);
                self.ready[vc] = r;
                any |= r;
            }
            if !any {
                continue;
            }
            let vc = self.mux[ch as usize]
                .select(&self.ready[..self.vcs])
                .expect("a ready lane must be selectable");
            self.move_flit(ch, base + vc);
        }
    }

    #[inline]
    fn lane_ready(&self, li: usize, ch: ChannelId) -> bool {
        let lane = &self.lanes[li];
        if lane.owner == NONE {
            return false;
        }
        let has_input = match lane.upstream {
            Upstream::Exhausted => false,
            Upstream::Source(_) => {
                let pkt = &self.packets[lane.owner as usize];
                pkt.sent < pkt.len
            }
            Upstream::Lane(u) => !self.lanes[u as usize].buf.is_empty(),
        };
        has_input && (self.ejects[ch as usize] || !lane.buf.is_full())
    }

    fn move_flit(&mut self, ch: ChannelId, li: usize) {
        let p = self.lanes[li].owner;
        let upstream = self.lanes[li].upstream;
        let (len, gen_time, measured) = {
            let pkt = &self.packets[p as usize];
            (pkt.len, pkt.gen_time, pkt.measured)
        };
        let flit = match upstream {
            Upstream::Source(node) => {
                let pkt = &mut self.packets[p as usize];
                let f = FlitRef {
                    packet: p,
                    index: pkt.sent,
                };
                pkt.sent += 1;
                if pkt.sent == len {
                    self.sources[node as usize].injecting = NONE;
                    self.lanes[li].upstream = Upstream::Exhausted;
                }
                f
            }
            Upstream::Lane(u) => self.lanes[u as usize]
                .buf
                .pop()
                .expect("ready lane lost its upstream flit"),
            Upstream::Exhausted => unreachable!("exhausted lanes are never ready"),
        };
        debug_assert_eq!(flit.packet, p, "foreign flit in the worm's upstream buffer");
        if !self.util.is_empty() && self.measuring() {
            self.util[ch as usize] += 1;
        }
        let is_tail = flit.is_tail(len);
        if is_tail {
            if let Upstream::Lane(u) = upstream {
                self.release_lane(u);
            }
            self.lanes[li].upstream = Upstream::Exhausted;
        }
        if self.ejects[ch as usize] {
            let pkt = &mut self.packets[p as usize];
            pkt.delivered += 1;
            // Accounting fix (shared with the optimized engine): count
            // flits of *measured* packets, matching `delivered_pkts`.
            if measured {
                self.delivered_flits += 1;
            }
            if is_tail {
                self.release_lane(li as u32);
                self.complete_packet(p, gen_time, measured, len);
            }
        } else {
            self.lanes[li].buf.push(flit);
        }
    }

    fn release_lane(&mut self, li: u32) {
        let lane = &mut self.lanes[li as usize];
        debug_assert!(lane.buf.is_empty(), "releasing a lane with a buffered flit");
        lane.owner = NONE;
        lane.upstream = Upstream::Exhausted;
        if let Some(xbars) = &mut self.crossbars {
            let ch = (li as usize / self.vcs) as u32;
            let c = self.net.channel(ch);
            if let Endpoint::Switch { sw, side, port } = c.dst {
                let code = if self.net.kind.is_bidirectional() {
                    let k = self.net.geometry.k() as u8;
                    match side {
                        Side::Left => port,
                        Side::Right => k + port,
                    }
                } else {
                    port * self.net.kind.dilation() + c.lane
                };
                let _ = xbars[sw as usize].release_input(code);
            }
        }
    }

    fn complete_packet(&mut self, p: u32, gen_time: u64, measured: bool, len: u32) {
        let done = self.now + 1;
        if measured {
            let lat = (done - gen_time) as f64;
            self.latency.push(lat);
            self.latency_hist.record(done - gen_time);
            self.latency_batches.push(lat);
            self.delivered_pkts += 1;
        }
        let tag = self.packets[p as usize].tag;
        if let Traffic::Chained {
            msgs,
            dependents,
            release,
            remaining,
            overhead,
            ..
        } = &mut self.traffic
        {
            *remaining -= 1;
            for &d in &dependents[tag as usize] {
                debug_assert!(release[d as usize].is_none(), "double release");
                release[d as usize] = Some((done + *overhead).max(msgs[d as usize].earliest));
            }
        }
        if let Some(tr) = &mut self.trace {
            tr.events.push(TraceEvent::Delivered { tag, time: done });
        }
        if let Some(log) = &mut self.deliveries {
            let pkt = &self.packets[p as usize];
            log.push(Delivery {
                src: pkt.src,
                dst: pkt.dst,
                len,
                gen_time,
                done_time: done,
                tag,
            });
        }
        let idx = self
            .active
            .iter()
            .position(|&a| a == p)
            .expect("completing an inactive packet");
        self.active.swap_remove(idx);
        self.free_slots.push(p);
    }

    // ---- main loop ----------------------------------------------------

    fn run(mut self) -> SimReport {
        let finite = !matches!(self.traffic, Traffic::Poisson(_));
        while self.now < self.end {
            self.generate_arrivals();
            self.allocate();
            self.transmit();
            if self.measuring() {
                let queued: usize = self.sources.iter().map(|s| s.queue.len()).sum();
                self.queue_sum += queued as u64;
                self.queue_cycles += 1;
            }
            self.now += 1;
            if finite && self.active.is_empty() && self.drained() {
                break;
            }
        }
        self.finish()
    }

    fn drained(&self) -> bool {
        let queued: usize = self.sources.iter().map(|s| s.queue.len()).sum();
        if queued > 0 {
            return false;
        }
        match &self.traffic {
            Traffic::Poisson(_) => false,
            Traffic::Scripted { msgs, next } => *next == msgs.len(),
            Traffic::Chained { remaining, .. } => *remaining == 0,
        }
    }

    fn finish(self) -> SimReport {
        let n_nodes = self.net.geometry.nodes() as f64;
        // Accounting fix (shared with the optimized engine): normalize by
        // the cycles actually measured, not the configured window.
        let measured_cycles = self.now.saturating_sub(self.cfg.warmup);
        let window = measured_cycles as f64;
        let per_node_cycle = |flits: u64| {
            if measured_cycles == 0 {
                0.0
            } else {
                flits as f64 / (n_nodes * window)
            }
        };
        let queued: u64 = self.sources.iter().map(|s| s.queue.len() as u64).sum();
        SimReport {
            cycles: self.now,
            measured_cycles,
            generated_packets: self.generated_pkts,
            delivered_packets: self.delivered_pkts,
            offered_flits_per_node_cycle: per_node_cycle(self.generated_flits),
            accepted_flits_per_node_cycle: per_node_cycle(self.delivered_flits),
            mean_latency_cycles: self.latency.mean(),
            latency_ci95_cycles: self.latency_batches.ci95_half_width(),
            p50_latency_cycles: self.latency_hist.quantile(0.50),
            p95_latency_cycles: self.latency_hist.quantile(0.95),
            p99_latency_cycles: self.latency_hist.quantile(0.99),
            max_latency_cycles: self.latency_hist.max(),
            mean_queue: if self.queue_cycles == 0 {
                0.0
            } else {
                self.queue_sum as f64 / self.queue_cycles as f64
            },
            max_queue: self.max_queue,
            sustainable: self.max_queue <= self.cfg.queue_limit,
            steady: self.delivered_flits as f64 >= 0.95 * self.generated_flits as f64,
            in_flight_at_end: self.active.len() as u64 + queued,
            // The reference engine predates the fault layer; faultless
            // runs never abort or refuse anything.
            aborted_packets: 0,
            undeliverable_packets: 0,
            channel_utilization: if self.util.is_empty() {
                None
            } else {
                Some(
                    self.util
                        .iter()
                        .map(|&u| if measured_cycles == 0 { 0.0 } else { u as f64 / window })
                        .collect(),
                )
            },
            deliveries: self.deliveries,
            trace: self.trace,
        }
    }
}

/// Reference-engine counterpart of [`crate::run_simulation`].
pub fn run_simulation(
    net: &NetworkGraph,
    workload: &Workload,
    cfg: &EngineConfig,
) -> Result<SimReport, String> {
    Engine::new(net, Traffic::Poisson(workload), cfg.clone()).map(Engine::run)
}

/// Reference-engine counterpart of [`crate::run_scripted`].
pub fn run_scripted(
    net: &NetworkGraph,
    msgs: &[ScriptedMsg],
    cfg: &EngineConfig,
) -> Result<SimReport, String> {
    let mut sorted: Vec<ScriptedMsg> = msgs.to_vec();
    sorted.sort_by_key(|m| m.time);
    for m in &sorted {
        if m.src == m.dst {
            return Err(format!("scripted message {m:?} sends to itself"));
        }
        if m.src >= net.geometry.nodes() || m.dst >= net.geometry.nodes() {
            return Err(format!("scripted message {m:?} addresses a missing node"));
        }
        if m.len == 0 {
            return Err(format!("scripted message {m:?} has no flits"));
        }
    }
    Engine::new(
        net,
        Traffic::Scripted {
            msgs: sorted,
            next: 0,
        },
        cfg.clone(),
    )
    .map(Engine::run)
}

/// Reference-engine counterpart of [`crate::run_chained`].
pub fn run_chained(
    net: &NetworkGraph,
    msgs: &[ChainedMsg],
    overhead: u64,
    cfg: &EngineConfig,
) -> Result<SimReport, String> {
    let mut dependents = vec![Vec::new(); msgs.len()];
    let mut release = vec![None; msgs.len()];
    for (i, m) in msgs.iter().enumerate() {
        if m.src == m.dst {
            return Err(format!("chained message {i} sends to itself"));
        }
        if m.src >= net.geometry.nodes() || m.dst >= net.geometry.nodes() {
            return Err(format!("chained message {i} addresses a missing node"));
        }
        if m.len == 0 {
            return Err(format!("chained message {i} has no flits"));
        }
        match m.after {
            None => release[i] = Some(m.earliest),
            Some(parent) if parent < i => dependents[parent].push(i as u32),
            Some(parent) => {
                return Err(format!(
                    "chained message {i} depends on later entry {parent}; \
                     order messages so parents precede children"
                ));
            }
        }
    }
    Engine::new(
        net,
        Traffic::Chained {
            msgs: msgs.to_vec(),
            dependents,
            release,
            enqueued: vec![false; msgs.len()],
            remaining: msgs.len(),
            overhead,
        },
        cfg.clone(),
    )
    .map(Engine::run)
}
