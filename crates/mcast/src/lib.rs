//! # minnet-mcast
//!
//! Software (unicast-based) multicast on switch-based wormhole networks —
//! the research direction §6 of the paper points to (its ref \[32\], "Optimal
//! Software Multicast in Wormhole-Routed Multistage Networks", studies
//! exactly this on the same networks).
//!
//! None of the paper's switches replicate flits, so a multicast from one
//! source to `m` destinations must be built from unicasts: nodes that have
//! already received the message retransmit it to others. A schedule is a
//! *tree of dependent unicasts*, run by the engine's one entry,
//! [`minnet_sim::CompiledNet::run`], as a [`minnet_sim::Traffic::Chain`]
//! with a per-relay software `overhead`.
//!
//! Three schedules are provided:
//!
//! * [`schedule::sequential`] — the source sends to every destination
//!   itself (`m` serialized sends; the one-port source is the bottleneck);
//! * [`schedule::binomial`] — recursive halving: every informed node keeps
//!   retransmitting, reaching all destinations in `⌈log₂(m+1)⌉` rounds;
//! * [`schedule::binomial_by_address`] — binomial over the
//!   address-sorted destination list. On a BMIN/fat tree, sorted ranges
//!   align with subtrees, so late (cheap, parallel) rounds stay inside
//!   subtrees and early rounds do the long hops — the locality idea
//!   behind the optimal schedules of ref \[32\].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod schedule;

pub use schedule::{
    binomial, binomial_by_address, run_multicast, sequential, McastOutcome, McastSchedule,
};
