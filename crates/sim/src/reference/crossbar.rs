//! Explicit crossbar connection state with the legality rules of Fig. 2.
//!
//! A `k × k` switch establishes input-to-output connections. At any moment
//! each input feeds at most one output and each output is fed by at most
//! one input. Unidirectional switches (Fig. 1a–c) allow any input port to
//! connect to any output port. Bidirectional switches (Fig. 1d) allow:
//!
//! * **forward**: left input `l_i` → right output `r_j`;
//! * **backward**: right input `r_i` → left output `l_j`;
//! * **turnaround**: left input `l_i` → left output `l_j` with `i ≠ j`;
//! * and **never** right input → right output (deadlock rule).
//!
//! The simulation engine tracks worm ownership at lane granularity; this
//! type re-derives the same constraints at the switch level, and the
//! reference engine audits its allocations against it.

/// Port codes: inputs and outputs are both numbered `0..k` for the left
/// side and `k..2k` for the right side. Unidirectional switches use codes
/// `0..k` on both sides (inputs are left, outputs are right).
pub type PortCode = u8;

/// Why a connection request was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrossbarError {
    /// The input is already connected to some output.
    InputBusy,
    /// The output is already driven by some input.
    OutputBusy,
    /// Right input → right output is forbidden in bidirectional switches.
    ReascendForbidden,
    /// Turnaround to the same left port is forbidden (Fig. 2: `i ≠ j`).
    SamePortTurnaround,
    /// Port code out of range.
    BadPort,
}

/// Connection state of one crossbar.
#[derive(Clone, Debug)]
pub struct Crossbar {
    k: u8,
    bidirectional: bool,
    /// `out_src[o]` = the input currently driving output `o`.
    out_src: Vec<Option<PortCode>>,
    /// `in_dst[i]` = the output currently fed by input `i`.
    in_dst: Vec<Option<PortCode>>,
}

impl Crossbar {
    /// A `k × k` crossbar. Bidirectional crossbars have `2k` input and
    /// `2k` output codes; unidirectional ones have `k` of each.
    pub fn new(k: u8, bidirectional: bool) -> Self {
        let ports = if bidirectional { 2 * k as usize } else { k as usize };
        Crossbar {
            k,
            bidirectional,
            out_src: vec![None; ports],
            in_dst: vec![None; ports],
        }
    }

    fn check_legal(&self, input: PortCode, output: PortCode) -> Result<(), CrossbarError> {
        let ports = self.out_src.len() as u8;
        if input >= ports || output >= ports {
            return Err(CrossbarError::BadPort);
        }
        if !self.bidirectional {
            return Ok(());
        }
        let k = self.k;
        let in_right = input >= k;
        let out_right = output >= k;
        match (in_right, out_right) {
            (true, true) => Err(CrossbarError::ReascendForbidden),
            (false, false) if input == output => Err(CrossbarError::SamePortTurnaround),
            _ => Ok(()),
        }
    }

    /// Establish `input → output`.
    pub fn connect(&mut self, input: PortCode, output: PortCode) -> Result<(), CrossbarError> {
        self.check_legal(input, output)?;
        if self.in_dst[input as usize].is_some() {
            return Err(CrossbarError::InputBusy);
        }
        if self.out_src[output as usize].is_some() {
            return Err(CrossbarError::OutputBusy);
        }
        self.in_dst[input as usize] = Some(output);
        self.out_src[output as usize] = Some(input);
        Ok(())
    }

    /// Tear down the connection from `input`, returning the output it fed.
    pub fn release_input(&mut self, input: PortCode) -> Option<PortCode> {
        let out = self.in_dst[input as usize].take()?;
        let back = self.out_src[out as usize].take();
        debug_assert_eq!(back, Some(input));
        Some(out)
    }
}

#[cfg(test)]
impl Crossbar {
    /// The input currently driving `output`.
    fn input_of(&self, output: PortCode) -> Option<PortCode> {
        self.out_src[output as usize]
    }

    /// Number of live connections.
    fn live_connections(&self) -> usize {
        self.in_dst.iter().filter(|c| c.is_some()).count()
    }

    /// Internal consistency check: the two maps are mutual inverses.
    fn invariants_hold(&self) -> bool {
        for (i, &d) in self.in_dst.iter().enumerate() {
            if let Some(o) = d {
                if self.out_src[o as usize] != Some(i as PortCode) {
                    return false;
                }
            }
        }
        for (o, &s) in self.out_src.iter().enumerate() {
            if let Some(i) = s {
                if self.in_dst[i as usize] != Some(o as PortCode) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unidirectional_any_to_any() {
        let mut x = Crossbar::new(4, false);
        for i in 0..4 {
            x.connect(i, (i + 1) % 4).unwrap();
        }
        assert_eq!(x.live_connections(), 4);
        assert!(x.invariants_hold());
    }

    #[test]
    fn exclusivity() {
        let mut x = Crossbar::new(4, false);
        x.connect(0, 2).unwrap();
        assert_eq!(x.connect(0, 3), Err(CrossbarError::InputBusy));
        assert_eq!(x.connect(1, 2), Err(CrossbarError::OutputBusy));
        assert_eq!(x.release_input(0), Some(2));
        x.connect(1, 2).unwrap();
        assert!(x.invariants_hold());
    }

    #[test]
    fn fig2_legality_matrix() {
        let k = 4u8;
        let mut x = Crossbar::new(k, true);
        // forward l_1 → r_2
        x.connect(1, k + 2).unwrap();
        x.release_input(1);
        // backward r_3 → l_0
        x.connect(k + 3, 0).unwrap();
        x.release_input(k + 3);
        // turnaround l_0 → l_2
        x.connect(0, 2).unwrap();
        x.release_input(0);
        // forbidden: same-port turnaround
        assert_eq!(x.connect(1, 1), Err(CrossbarError::SamePortTurnaround));
        // forbidden: r → r
        assert_eq!(x.connect(k, k + 1), Err(CrossbarError::ReascendForbidden));
        assert_eq!(x.live_connections(), 0);
    }

    #[test]
    fn bad_port_rejected() {
        let mut uni = Crossbar::new(4, false);
        assert_eq!(uni.connect(4, 0), Err(CrossbarError::BadPort));
        let mut bi = Crossbar::new(4, true);
        assert_eq!(bi.connect(8, 0), Err(CrossbarError::BadPort));
        bi.connect(7, 0).unwrap(); // r_3 → l_0 is fine
    }

    #[test]
    fn simultaneous_opposite_transfers() {
        // "two packets can be transmitted simultaneously in opposite
        // directions between neighboring switches": l_i → r_j and
        // r_j → l_i can coexist (distinct input and output devices).
        let k = 4u8;
        let mut x = Crossbar::new(k, true);
        x.connect(1, k + 2).unwrap();
        x.connect(k + 2, 1).unwrap();
        assert_eq!(x.live_connections(), 2);
        assert!(x.invariants_hold());
    }

    proptest! {
        #[test]
        fn prop_connect_release_preserves_invariants(ops in proptest::collection::vec((0u8..8, 0u8..8, proptest::bool::ANY), 1..200)) {
            let mut x = Crossbar::new(4, true);
            for (i, o, release) in ops {
                if release {
                    x.release_input(i);
                } else {
                    let _ = x.connect(i, o);
                }
                prop_assert!(x.invariants_hold());
            }
        }

        #[test]
        fn prop_no_double_drive(ops in proptest::collection::vec((0u8..8, 0u8..8), 1..100)) {
            // After any sequence of connects, every output has at most one
            // driver and every driver drives one output.
            let mut x = Crossbar::new(4, true);
            for (i, o) in ops {
                let _ = x.connect(i, o);
            }
            let mut seen = std::collections::BTreeSet::new();
            for o in 0..8u8 {
                if let Some(i) = x.input_of(o) {
                    prop_assert!(seen.insert(i), "input {i} drives two outputs");
                }
            }
        }
    }
}
