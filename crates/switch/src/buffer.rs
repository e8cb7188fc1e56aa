//! The channel buffer.
//!
//! Wormhole switching keeps buffering minimal: every (virtual) channel has
//! a buffer holding one flit at its receiving end. A flit is
//! identified by the packet it belongs to and its position in that packet
//! (`0` is the header; `len - 1` the tail).

/// A reference to one flit of one packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlitRef {
    /// Engine-assigned packet slot index.
    pub packet: u32,
    /// Flit position within the packet (0 = header).
    pub index: u32,
}

impl FlitRef {
    /// Whether this is the header flit.
    #[inline]
    pub fn is_header(&self) -> bool {
        self.index == 0
    }

    /// Whether this is the tail flit of a packet of length `len`.
    #[inline]
    pub fn is_tail(&self, len: u32) -> bool {
        self.index + 1 == len
    }
}

/// A bounded flit FIFO: a channel buffer of `buffer_depth` flits — one in
/// the paper's model (§5: "Each input channel in a switch has a buffer
/// the size of a single flit"), deeper where `buffer_depth` explores
/// beyond it (the paper's conclusions flag the one-flit buffer as a
/// condition of its results).
#[derive(Clone, Debug)]
pub struct FlitFifo {
    slots: std::collections::VecDeque<FlitRef>,
    capacity: usize,
}

impl FlitFifo {
    /// A FIFO holding up to `capacity` flits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a channel buffer holds at least one flit");
        FlitFifo {
            slots: std::collections::VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of buffered flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the FIFO is full.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// The oldest buffered flit.
    pub fn front(&self) -> Option<FlitRef> {
        self.slots.front().copied()
    }

    /// Append a flit.
    ///
    /// # Panics
    ///
    /// Panics when full — the engine must check [`FlitFifo::is_full`].
    pub fn push(&mut self, f: FlitRef) {
        assert!(!self.is_full(), "pushing into a full flit FIFO");
        // Flits of one worm arrive in order; catch engine bugs early.
        if let Some(back) = self.slots.back() {
            debug_assert_eq!(back.packet, f.packet, "foreign flit interleaved in a lane");
            debug_assert_eq!(back.index + 1, f.index, "flit order violated");
        }
        self.slots.push_back(f);
    }

    /// Remove and return the oldest flit.
    pub fn pop(&mut self) -> Option<FlitRef> {
        self.slots.pop_front()
    }

    /// Drop all contents (lane reset).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_tail_predicates() {
        let h = FlitRef { packet: 0, index: 0 };
        assert!(h.is_header());
        assert!(!h.is_tail(8));
        assert!(h.is_tail(1)); // single-flit packet: header is tail
        let t = FlitRef { packet: 0, index: 7 };
        assert!(t.is_tail(8));
        assert!(!t.is_header());
    }

    #[test]
    fn fifo_ordering_and_bounds() {
        let mut f = FlitFifo::new(3);
        assert!(f.is_empty());
        assert_eq!(f.capacity(), 3);
        for i in 0..3 {
            f.push(FlitRef { packet: 9, index: i });
        }
        assert!(f.is_full());
        assert_eq!(f.len(), 3);
        assert_eq!(f.front(), Some(FlitRef { packet: 9, index: 0 }));
        assert_eq!(f.pop(), Some(FlitRef { packet: 9, index: 0 }));
        assert_eq!(f.pop(), Some(FlitRef { packet: 9, index: 1 }));
        f.push(FlitRef { packet: 9, index: 3 });
        assert_eq!(f.pop(), Some(FlitRef { packet: 9, index: 2 }));
        assert_eq!(f.pop(), Some(FlitRef { packet: 9, index: 3 }));
        assert_eq!(f.pop(), None);
    }

    #[test]
    #[should_panic(expected = "full flit FIFO")]
    fn fifo_overflow_panics() {
        let mut f = FlitFifo::new(1);
        f.push(FlitRef { packet: 0, index: 0 });
        f.push(FlitRef { packet: 0, index: 1 });
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn fifo_zero_capacity_rejected() {
        let _ = FlitFifo::new(0);
    }

    #[test]
    fn fifo_depth_one_matches_single_buffer() {
        let mut f = FlitFifo::new(1);
        let x = FlitRef { packet: 1, index: 0 };
        f.push(x);
        assert!(f.is_full());
        assert_eq!(f.pop(), Some(x));
        assert!(f.is_empty());
        f.clear();
        assert!(f.is_empty());
    }
}
