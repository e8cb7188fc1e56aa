//! Optional event tracing.
//!
//! When [`crate::EngineConfig::collect_trace`] is set, the engine records
//! the life cycle of every message: queueing, injection, each channel the
//! worm's header acquires, and delivery. Traces make the engine's
//! behaviour *auditable* — the integration tests replay a traced worm's
//! channel sequence against `minnet-routing`'s independent path
//! enumeration.
//!
//! Tracing is intended for deterministic (scripted/chained) runs and short
//! stochastic runs; the log grows with every header movement.

use minnet_topology::ChannelId;

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
