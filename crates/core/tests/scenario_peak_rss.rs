//! The 16k-terminal scenario's resident high-water mark, held as code.
//!
//! `scenarios/scale_16k_budget_burst.scn` sets the peak memory of a
//! `minnet scenario run scenarios/` process. This binary runs the same
//! text — cut at 300 cycles instead of 3 000, so it finishes in a
//! fraction of a second — through the path the CLI takes: parse, compile
//! the experiment (graph, route table, workload template), run the task
//! on the campaign pool, judge the verdict. `VmHWM` is per process and
//! only ever rises, so this binary has exactly one test: nothing else may
//! run in its process.

use minnet::{CampaignPolicy, Scenario, VerdictStatus};

/// `VmHWM` of this process in KiB, or `None` where `/proc` has none.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

#[test]
fn scenario_16k_peak_rss_budget() {
    let Some(before) = vm_hwm_kib() else {
        return; // not Linux
    };
    let text = include_str!("../../../scenarios/scale_16k_budget_burst.scn");
    let cut = text.replace("budget_cycles = 3000", "budget_cycles = 300");
    assert_ne!(cut, text, "the scenario's cycle budget moved; update the cut");
    let scenario = Scenario::parse(&cut, "scale_16k_budget_burst.scn (cut)").unwrap();
    let verdict = scenario.run(1, &CampaignPolicy::default()).unwrap();
    assert_eq!(verdict.scenario, "scale-16k-budget-burst");
    assert_eq!(verdict.points.len(), 1, "one load, one task");
    // A 100-cycle window delivers ≈ 42 % of what it generated, under the
    // file's 0.5 floor: the partial point is judged, and fails.
    assert_eq!(verdict.status, VerdictStatus::Fail, "{verdict}");

    let grew = vm_hwm_kib().unwrap() - before;
    // Measured at +2 444–2 512 KiB; with a 2-byte occupancy counter on
    // every one-flit lane +2 824–2 916 KiB, and before the per-node tables
    // were cut (packed arrival keys, circular queue lists, computed route
    // digits, a count for the global cluster) +3 208–3 404 KiB: both fail
    // this.
    assert!(
        grew <= 2_688,
        "the cut 16k scenario raised VmHWM by {grew} KiB; the budget is 2.625 MiB"
    );
    eprintln!("16k scenario, cut at 300 cycles: VmHWM +{grew} KiB");
}
