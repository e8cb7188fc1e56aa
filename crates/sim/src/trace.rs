//! The [`Observer`] hooks the engine calls, and the two observations a
//! [`SimReport`] can carry: the event [`Trace`] and channel utilisation.
//! They are non-authoritative: a hook gets values already computed and
//! is never read back, so no observer changes another report bit.
//! [`crate::CompiledNet::run`] runs the unit observer, compiled away;
//! [`crate::CompiledNet::run_observed`] records both. A trace (queueing,
//! injection, each channel the header claims, delivery) makes the engine
//! *auditable* — the tests replay traced worms against `minnet-routing`'s
//! path enumeration — and grows with every hop: short runs only.

use crate::config::SimReport;
use minnet_topology::{ChannelId, NetworkGraph};

/// The hooks a run calls as it goes. They take values and return nothing.
pub(crate) trait Observer {
    /// A flit moved into the channel at transmit position `pos` during the
    /// measurement window.
    fn on_move(&mut self, pos: u32);
    /// A message event.
    fn on_event(&mut self, event: TraceEvent);
}

impl Observer for () {
    #[inline(always)]
    fn on_move(&mut self, _: u32) {}
    #[inline(always)]
    fn on_event(&mut self, _: TraceEvent) {}
}

/// The observer of an observed run, the engine's and the oracle's alike:
/// every event, and the flits moved into each channel while measuring,
/// by transmit position.
#[derive(Debug)]
pub(crate) struct Recorder {
    trace: Trace,
    moves: Vec<u64>,
}

impl Recorder {
    pub(crate) fn new(net: &NetworkGraph) -> Recorder {
        Recorder { trace: Trace::default(), moves: vec![0; net.num_channels()] }
    }

    /// Put the observations into `report`: the trace, and each channel's
    /// moves per measured cycle, by channel id.
    pub(crate) fn fill(self, report: &mut SimReport, net: &NetworkGraph) {
        let (cycles, moves) = (report.measured_cycles, &self.moves);
        let per_cycle = |ch| match cycles {
            0 => 0.0,
            _ => moves[net.position(ch) as usize] as f64 / cycles as f64,
        };
        report.channel_utilization = Some((0..moves.len() as u32).map(per_cycle).collect());
        report.trace = Some(self.trace);
    }
}

impl Observer for Recorder {
    fn on_move(&mut self, pos: u32) {
        self.moves[pos as usize] += 1;
    }

    fn on_event(&mut self, event: TraceEvent) {
        self.trace.events.push(event);
    }
}

/// One traced event. `tag` is the script/chain index for deterministic
/// traffic (or `u32::MAX` for Poisson); `time` is the cycle the event
/// occurred in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// The message joined its source's FCFS queue.
    Queued {
        /// Message tag.
        tag: u32,
        /// Cycle of the event.
        time: u64,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Length in flits.
        len: u32,
    },
    /// The header claimed the injection channel (left the queue).
    Injected {
        /// Message tag.
        tag: u32,
        /// Cycle of the event.
        time: u64,
    },
    /// The header claimed its next channel.
    Hop {
        /// Message tag.
        tag: u32,
        /// Cycle of the event.
        time: u64,
        /// The claimed channel.
        channel: ChannelId,
    },
    /// The tail flit was consumed at the destination (end-of-cycle time).
    Delivered {
        /// Message tag.
        tag: u32,
        /// Cycle of the event.
        time: u64,
    },
    /// The worm was aborted mid-flight by a fault epoch (lanes released,
    /// buffered flits drained).
    Aborted {
        /// Message tag.
        tag: u32,
        /// Cycle of the event.
        time: u64,
    },
    /// The queued message was refused at injection: no live route to its
    /// destination existed under the current fault epoch.
    Refused {
        /// Message tag.
        tag: u32,
        /// Cycle of the event.
        time: u64,
    },
}

impl TraceEvent {
    /// The message tag of this event.
    pub fn tag(&self) -> u32 {
        match *self {
            TraceEvent::Queued { tag, .. }
            | TraceEvent::Injected { tag, .. }
            | TraceEvent::Hop { tag, .. }
            | TraceEvent::Delivered { tag, .. }
            | TraceEvent::Aborted { tag, .. }
            | TraceEvent::Refused { tag, .. } => tag,
        }
    }

    /// The cycle of this event.
    pub fn time(&self) -> u64 {
        match *self {
            TraceEvent::Queued { time, .. }
            | TraceEvent::Injected { time, .. }
            | TraceEvent::Hop { time, .. }
            | TraceEvent::Delivered { time, .. }
            | TraceEvent::Aborted { time, .. }
            | TraceEvent::Refused { time, .. } => time,
        }
    }
}

/// A recorded event log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in chronological order (ties in engine-processing order).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// The channel path (including the injection channel) a message's
    /// header took, in order.
    pub fn channel_path(&self, tag: u32) -> Vec<ChannelId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Hop { tag: t, channel, .. } if *t == tag => Some(*channel),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let e = TraceEvent::Hop { tag: 3, time: 17, channel: 9 };
        assert_eq!(e.tag(), 3);
        assert_eq!(e.time(), 17);
        let t = Trace {
            events: vec![
                TraceEvent::Queued { tag: 0, time: 0, src: 1, dst: 2, len: 8 },
                TraceEvent::Hop { tag: 0, time: 1, channel: 4 },
                TraceEvent::Hop { tag: 1, time: 1, channel: 5 },
                TraceEvent::Hop { tag: 0, time: 2, channel: 6 },
                TraceEvent::Delivered { tag: 0, time: 9 },
            ],
        };
        assert_eq!(t.channel_path(0), vec![4, 6]);
        assert_eq!(t.channel_path(1), vec![5]);
        assert_eq!(t.events.iter().filter(|e| e.tag() == 0).count(), 4);
    }
}
