//! Run-budget integration tests.
//!
//! The contract under test (see `RunBudget` in `config.rs`):
//!
//! 1. A `max_cycles` budget below the run horizon cuts the run at
//!    exactly that cycle — also when a fast-forward jump would cross it
//!    — and returns `SimError::BudgetExceeded` with a valid partial
//!    report: the *same* report a shorter configured run would have
//!    produced (pinned bitwise).
//! 2. A budget at or above the horizon never fires: the run completes
//!    bit-identically to an unbudgeted one.
//! 3. A wall-clock budget of ~zero fires on any non-trivial run and
//!    reports `BudgetKind::WallClock`.

use minnet_sim::{
    BudgetKind, CompiledNet, EngineConfig, EngineState, RunBudget, SimError, Traffic,
};
use minnet_topology::{build_unidir, Geometry, UnidirKind};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern, Workload, WorkloadSpec};
use std::sync::Arc;

fn tmin(cfg: EngineConfig) -> CompiledNet {
    let g = Geometry::new(2, 4); // 16 nodes
    let net = build_unidir(g, UnidirKind::Cube, 1);
    CompiledNet::new(Arc::new(net), cfg).unwrap()
}

fn workload(load: f64) -> Workload {
    let spec = WorkloadSpec {
        offered_load: load,
        pattern: TrafficPattern::Uniform,
        clustering: Clustering::Global,
        rates: None,
        sizes: MessageSizeDist::Fixed(16),
    };
    Workload::compile(Geometry::new(2, 4), &spec).unwrap()
}

fn cfg(warmup: u64, measure: u64) -> EngineConfig {
    EngineConfig {
        warmup,
        measure,
        ..EngineConfig::default()
    }
}

#[test]
fn cycle_budget_cuts_at_exactly_the_limit() {
    let limit = 1_500u64;
    let net = tmin(EngineConfig {
        budget: RunBudget {
            max_cycles: limit,
            max_wall_ms: 0,
        },
        ..cfg(500, 4_000)
    });
    let wl = workload(0.2);
    let mut st = EngineState::new();
    let err = net.run(Traffic::Poisson(&wl), None, 7, &mut st).unwrap_err();
    let SimError::BudgetExceeded(partial) = err else {
        panic!("expected BudgetExceeded, got something else");
    };
    assert_eq!(partial.kind, BudgetKind::Cycles);
    assert_eq!(partial.limit, limit);
    assert_eq!(partial.spent_cycles, limit);
    assert_eq!(partial.report.cycles, limit);
    assert_eq!(partial.report.measured_cycles, limit - 500);
    assert!(partial.report.delivered_packets > 0);
}

#[test]
fn partial_report_matches_equally_short_configured_run() {
    // A budget cut at warmup + k must produce the very report a run
    // *configured* with measure = k produces: same finalization path,
    // same accounting — bitwise.
    let warmup = 500u64;
    let k = 1_000u64;
    let wl = workload(0.2);

    let budgeted = tmin(EngineConfig {
        budget: RunBudget {
            max_cycles: warmup + k,
            max_wall_ms: 0,
        },
        ..cfg(warmup, 4_000)
    });
    let mut st = EngineState::new();
    let err = budgeted.run(Traffic::Poisson(&wl), None, 11, &mut st).unwrap_err();
    let SimError::BudgetExceeded(partial) = err else {
        panic!("expected BudgetExceeded");
    };

    let short = tmin(cfg(warmup, k));
    let mut st2 = EngineState::new();
    let full = short.run(Traffic::Poisson(&wl), None, 11, &mut st2).unwrap();
    assert!(
        partial.report.bitwise_eq(&full),
        "partial report at cycle {} diverged from configured short run",
        warmup + k
    );
}

#[test]
fn budget_at_or_above_horizon_never_fires() {
    let warmup = 500u64;
    let measure = 2_000u64;
    let wl = workload(0.15);

    let plain = tmin(cfg(warmup, measure));
    let mut st = EngineState::new();
    let reference = plain.run(Traffic::Poisson(&wl), None, 3, &mut st).unwrap();

    for extra in [0u64, 1, 10_000] {
        let budgeted = tmin(EngineConfig {
            budget: RunBudget {
                max_cycles: warmup + measure + extra,
                max_wall_ms: 0,
            },
            ..cfg(warmup, measure)
        });
        let mut st = EngineState::new();
        let report = budgeted.run(Traffic::Poisson(&wl), None, 3, &mut st).unwrap();
        assert!(
            report.bitwise_eq(&reference),
            "budget {} above horizon changed the run",
            warmup + measure + extra
        );
    }
}

#[test]
fn wall_clock_budget_fires_and_reports_kind() {
    // Wall limit ~0 with a huge horizon: the first 1024-cycle check
    // already sees elapsed >= 0ms... use 1ms so only genuinely long runs
    // trip. A 5M-cycle horizon at moderate load takes well over 1ms.
    let net = tmin(EngineConfig {
        budget: RunBudget {
            max_cycles: 0,
            max_wall_ms: 1,
        },
        ..cfg(1_000, 5_000_000)
    });
    let wl = workload(0.3);
    let mut st = EngineState::new();
    let err = net.run(Traffic::Poisson(&wl), None, 42, &mut st).unwrap_err();
    let SimError::BudgetExceeded(partial) = err else {
        panic!("expected BudgetExceeded");
    };
    assert_eq!(partial.kind, BudgetKind::WallClock);
    assert_eq!(partial.limit, 1);
    assert!(partial.spent_cycles > 0);
    assert!(partial.spent_cycles < 1_001_000);
    let msg = SimError::BudgetExceeded(partial).to_string();
    assert!(msg.contains("wall-clock"), "display: {msg}");
}

#[test]
fn wall_clock_budget_fires_on_fast_forward_jumps() {
    // Regression: the wall-clock check used to run only every 1024
    // *executed* cycles, but a near-quiescent fast-forwarded run
    // executes almost no cycles — each loop iteration swallows a whole
    // inter-event gap in one jump, so a 1024-iteration granule could
    // overshoot `max_wall_ms` by arbitrarily many jumps. The budget is
    // now also checked after every jump that skipped cycles, bounding
    // the overshoot to one jump's wall time. A scripted workload of
    // tens of thousands of sparse one-flit worms (gap 5_000 cycles)
    // keeps the run FF-dominated for well past 1ms of wall time.
    let g = Geometry::new(2, 4);
    let msgs: Vec<minnet_sim::ScriptedMsg> = (0..60_000u32)
        .map(|i| minnet_sim::ScriptedMsg {
            time: u64::from(i) * 5_000,
            src: i % 16,
            dst: (i + 7) % 16,
            len: 1,
        })
        .collect();
    let script = minnet_sim::Script::compile(g, &msgs).unwrap();
    let net = tmin(EngineConfig {
        budget: RunBudget {
            max_cycles: 0,
            max_wall_ms: 1,
        },
        ..cfg(0, u64::MAX / 2)
    });
    let mut st = EngineState::new();
    let err = net.run(Traffic::Script(&script), None, 42, &mut st).unwrap_err();
    let SimError::BudgetExceeded(partial) = err else {
        panic!("expected BudgetExceeded, got a completed run");
    };
    assert_eq!(partial.kind, BudgetKind::WallClock);
    assert_eq!(partial.limit, 1);
    // A sane truncated sample: the cut lands mid-script, not at the end
    // (the drain would finish long after 1ms), and some worms landed.
    assert!(partial.report.delivered_packets > 0);
    assert!(
        (partial.report.delivered_packets as usize) < msgs.len(),
        "run completed under the wall budget; the workload is too small \
         to pin the jump-path check"
    );
}

#[test]
fn cycle_budget_cuts_exactly_inside_a_fast_forward_gap() {
    // Regression: a quiescent run jumped to its next event without
    // looking at the budget, then ran the landing cycle before the
    // loop-top check tripped — a 1 000-cycle budget over a gap to
    // t = 5 000 cut at 5 001. The jump now stops at the limit, and the
    // partial report is the run configured to end there, bit for bit.
    let g = Geometry::new(2, 4);
    let msg = |time, src, dst| minnet_sim::ScriptedMsg { time, src, dst, len: 8 };
    let script = minnet_sim::Script::compile(g, &[msg(10, 0, 9), msg(5_000, 3, 12)]).unwrap();
    let limit = 1_000u64;
    let net = tmin(EngineConfig {
        budget: RunBudget {
            max_cycles: limit,
            max_wall_ms: 0,
        },
        ..cfg(0, 1_000_000)
    });
    let mut st = EngineState::new();
    let res = net.run(Traffic::Script(&script), None, 5, &mut st);
    let SimError::BudgetExceeded(partial) = res.unwrap_err() else {
        panic!("expected BudgetExceeded");
    };
    assert_eq!(partial.kind, BudgetKind::Cycles);
    assert_eq!(partial.spent_cycles, limit);
    let short = tmin(cfg(0, limit)).run(Traffic::Script(&script), None, 5, &mut st).unwrap();
    assert_eq!(short.delivered_packets, 1);
    assert!(
        partial.report.bitwise_eq(&short),
        "cut at {} diverged from the run configured to end at {limit}",
        partial.spent_cycles
    );
}

#[test]
fn cycle_budget_is_exact_at_near_idle_poisson_loads() {
    // At load 0.002 almost every loop iteration is a jump, so nearly
    // every seed's limit falls inside a gap between arrivals.
    let limit = 1_500u64;
    let net = tmin(EngineConfig {
        budget: RunBudget {
            max_cycles: limit,
            max_wall_ms: 0,
        },
        ..cfg(500, 4_000)
    });
    let wl = workload(0.002);
    let mut st = EngineState::new();
    for seed in 0..50u64 {
        let res = net.run(Traffic::Poisson(&wl), None, seed, &mut st);
        let SimError::BudgetExceeded(partial) = res.unwrap_err() else {
            panic!("seed {seed}: expected BudgetExceeded");
        };
        assert_eq!(partial.spent_cycles, limit, "seed {seed}");
        assert_eq!(partial.report.cycles, limit, "seed {seed}");
    }
}

#[test]
fn unlimited_budget_is_default_and_inert() {
    assert!(RunBudget::UNLIMITED.is_unlimited());
    assert_eq!(EngineConfig::default().budget, RunBudget::UNLIMITED);
    let net = tmin(cfg(200, 800));
    let wl = workload(0.1);
    let mut st = EngineState::new();
    net.run(Traffic::Poisson(&wl), None, 1, &mut st).unwrap();
}
