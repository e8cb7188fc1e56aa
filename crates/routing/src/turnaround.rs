//! The turnaround routing algorithm (paper §3.1, Fig. 7).
//!
//! A turnaround path (Definition 4) consists of some forward channels, one
//! turnaround connection, and an equal number of backward channels. The
//! distributed algorithm executed by a switch at stage `j` for a message
//! from `S` to `D` with `t = FirstDifference(S, D)`:
//!
//! 1. if `j == t`, turn around to left output `l_{d_j}`;
//! 2. if `j < t` and the message arrived on a left input (moving forward),
//!    continue forward on *any* available right output;
//! 3. if `j < t` and the message arrived on a right input (moving
//!    backward), take left output `l_{d_j}`.

use minnet_topology::{Geometry, NodeAddr, Side};

/// The decision taken by a switch under turnaround routing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TurnaroundAction {
    /// Continue forward; any right-side output port is acceptable.
    ForwardAny,
    /// Turn around to this left-side output port.
    Turn(u32),
    /// Continue backward to this left-side output port.
    Backward(u32),
}

/// Execute the Fig. 7 algorithm at a switch of stage `j` for a message from
/// `src` to `dst` that arrived on `arrival_side` (`Left` = moving forward,
/// `Right` = moving backward).
///
/// # Panics
///
/// Panics if `src == dst` (no network routing is needed) or if `j` exceeds
/// `FirstDifference(src, dst)` while the message is still moving forward —
/// turnaround routing never ascends past stage `t`.
pub fn turnaround_action(
    g: &Geometry,
    j: u32,
    arrival_side: Side,
    src: NodeAddr,
    dst: NodeAddr,
) -> TurnaroundAction {
    let t = g
        .first_difference(src, dst)
        .expect("turnaround routing requires src != dst");
    match arrival_side {
        Side::Left => {
            assert!(j <= t, "forward message above the turn stage (j={j}, t={t})");
            if j == t {
                TurnaroundAction::Turn(g.digit(dst, j))
            } else {
                TurnaroundAction::ForwardAny
            }
        }
        Side::Right => TurnaroundAction::Backward(g.digit(dst, j)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Length in channels of any turnaround path: `2 (t + 1)` (paper
    /// §3.2.3).
    fn turnaround_path_length(g: &Geometry, src: NodeAddr, dst: NodeAddr) -> Option<u32> {
        g.first_difference(src, dst).map(|t| 2 * (t + 1))
    }

    #[test]
    fn fig8_example_decisions() {
        // S = 001, D = 101, k = 2: FirstDifference = 2. Forward at stages
        // 0 and 1, turn at stage 2 to l_{d_2} = l_1, then backward taking
        // l_{d_1} = l_0 at stage 1 and l_{d_0} = l_1 at stage 0.
        let g = Geometry::new(2, 3);
        let s = g.parse_addr("001").unwrap();
        let d = g.parse_addr("101").unwrap();
        assert_eq!(
            turnaround_action(&g, 0, Side::Left, s, d),
            TurnaroundAction::ForwardAny
        );
        assert_eq!(
            turnaround_action(&g, 1, Side::Left, s, d),
            TurnaroundAction::ForwardAny
        );
        assert_eq!(
            turnaround_action(&g, 2, Side::Left, s, d),
            TurnaroundAction::Turn(1)
        );
        assert_eq!(
            turnaround_action(&g, 1, Side::Right, s, d),
            TurnaroundAction::Backward(0)
        );
        assert_eq!(
            turnaround_action(&g, 0, Side::Right, s, d),
            TurnaroundAction::Backward(1)
        );
    }

    #[test]
    fn immediate_turn_when_only_digit0_differs() {
        let g = Geometry::new(4, 3);
        let s = g.parse_addr("120").unwrap();
        let d = g.parse_addr("123").unwrap();
        assert_eq!(
            turnaround_action(&g, 0, Side::Left, s, d),
            TurnaroundAction::Turn(3)
        );
        assert_eq!(turnaround_path_length(&g, s, d), Some(2));
    }

    #[test]
    fn path_length_formula() {
        let g = Geometry::new(4, 3);
        for s in g.addresses() {
            for d in g.addresses() {
                match g.first_difference(s, d) {
                    None => assert_eq!(turnaround_path_length(&g, s, d), None),
                    Some(t) => assert_eq!(turnaround_path_length(&g, s, d), Some(2 * (t + 1))),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "above the turn stage")]
    fn panics_past_turn_stage() {
        let g = Geometry::new(2, 3);
        let s = g.parse_addr("000").unwrap();
        let d = g.parse_addr("001").unwrap(); // t = 0
        let _ = turnaround_action(&g, 1, Side::Left, s, d);
    }

    #[test]
    #[should_panic(expected = "src != dst")]
    fn panics_on_self_route() {
        let g = Geometry::new(2, 3);
        let s = g.parse_addr("010").unwrap();
        let _ = turnaround_action(&g, 0, Side::Left, s, s);
    }
}
