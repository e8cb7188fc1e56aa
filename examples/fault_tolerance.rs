//! Fault-injection walkthrough: kill links under live traffic and watch
//! each network degrade (or not).
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```
//!
//! Three demonstrations:
//!
//! 1. **Path diversity** — the same single inter-stage link fault, applied
//!    to every paper-lineup network. BMIN routes around it (its stage-0
//!    switches keep `k-1` live parents); TMIN has exactly one path per
//!    `(src, dst)` pair, so the disconnected traffic comes back as
//!    structured refusals — counted, not panicked over.
//! 2. **Transient fault** — a link dies mid-run and is repaired; worms
//!    holding it at onset are aborted-and-drained, traffic refused during
//!    the outage flows again after repair.
//! 3. **Watchdog** — with packet aborts disabled (a test knob), a dead
//!    link wedges the worms that hold it; the no-progress watchdog trips
//!    and returns a [`minnet_sim::StallDiagnostic`] naming the stalled
//!    packets and held channels instead of hanging forever.

use minnet::{Experiment, NetworkSpec};
use minnet_sim::engine::{Script, ScriptedMsg};
use minnet_sim::{EngineState, SimError, Traffic};
use minnet_topology::{Fault, FaultPlan, FaultTarget};
use minnet_traffic::MessageSizeDist;

fn quick(spec: NetworkSpec) -> Experiment {
    let mut exp = Experiment::paper_default(spec);
    exp.sizes = MessageSizeDist::Fixed(32);
    exp.sim.warmup = 1_000;
    exp.sim.measure = 8_000;
    exp
}

fn main() -> Result<(), String> {
    // --- 1. One dead link, four networks -------------------------------
    println!("one permanent inter-stage link fault, load 0.2:");
    for spec in NetworkSpec::paper_lineup() {
        let exp = quick(spec);
        let compiled = exp.compile()?;
        let plan =
            FaultPlan::random_inter_stage_links(compiled.graph(), 1, 0xFA_u64)?;
        let faults = compiled.network().compile_faults(&plan)?;
        let workload = compiled.template().workload_at(0.2)?;
        let mut st = EngineState::new();
        let report = compiled
            .network()
            .run(Traffic::Poisson(&workload), Some(&faults), 7, &mut st)?;
        println!(
            "  {:>8}: delivered {:6} | aborted {:3} | refused {:5} | accepted {:.4} f/n/c",
            spec.name(),
            report.delivered_packets,
            report.aborted_packets,
            report.undeliverable_packets,
            report.accepted_flits_per_node_cycle,
        );
    }

    // --- 2. A transient fault: dies at 3000, repaired at 6000 ----------
    let exp = quick(NetworkSpec::tmin());
    let compiled = exp.compile()?;
    let victim = (0..compiled.graph().num_channels() as u32)
        .find(|&c| {
            let ch = compiled.graph().channel(c);
            ch.src.switch().is_some() && ch.dst.switch().is_some()
        })
        .expect("every MIN has inter-stage links");
    let plan = FaultPlan::new().with(Fault::transient(
        FaultTarget::Channel(victim),
        3_000,
        6_000,
    ));
    let faults = compiled.network().compile_faults(&plan)?;
    let workload = compiled.template().workload_at(0.2)?;
    let mut st = EngineState::new();
    let report = compiled
        .network()
        .run(Traffic::Poisson(&workload), Some(&faults), 7, &mut st)?;
    println!(
        "\ntransient fault on channel {victim} over cycles [3000, 6000) in a TMIN:\n  \
         delivered {} packets, aborted {} at onset, refused {} during the outage",
        report.delivered_packets, report.aborted_packets, report.undeliverable_packets
    );

    // --- 3. The watchdog: wedge the network, get a diagnosis -----------
    // One long scripted worm; trace its faultless path, then kill a
    // mid-path channel while the body is still streaming. With packet
    // aborts disabled (a test knob) the worm wedges on the dead lane
    // forever — the watchdog turns that hang into a diagnosis.
    let mut exp = quick(NetworkSpec::tmin());
    exp.sim.fault_abort = false;
    exp.sim.watchdog_window = 200;
    exp.sim.collect_trace = true;
    let compiled = exp.compile()?;
    let worm = [ScriptedMsg {
        time: 0,
        src: 0,
        dst: exp.geometry.nodes() - 1,
        len: 2_000,
    }];
    let script = Script::compile(exp.geometry, &worm)?;
    let mut st = EngineState::new();
    let clean = compiled.network().run(Traffic::Script(&script), None, 7, &mut st)?;
    let path = clean.trace.as_ref().expect("trace was enabled").channel_path(0);
    let mid = path[path.len() / 2];
    let plan = FaultPlan::new().with(Fault::transient(FaultTarget::Channel(mid), 100, u64::MAX));
    let faults = compiled.network().compile_faults(&plan)?;
    match compiled
        .network()
        .run(Traffic::Script(&script), Some(&faults), 7, &mut st)
    {
        Err(SimError::NoProgress(diag)) => {
            println!("\nwatchdog tripped as intended:\n{diag}");
        }
        Ok(_) => return Err("the wedged worm should never drain".into()),
        Err(e) => return Err(e.to_string()),
    }
    Ok(())
}
