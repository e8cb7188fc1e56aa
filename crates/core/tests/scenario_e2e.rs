//! End-to-end acceptance of the scenario DSL against the shipped
//! `scenarios/` library — the issue's contract, pinned:
//!
//! 1. every deterministic scenario in the library ends as its file
//!    declares (the watchdog-trip fixture *fails*, carrying the
//!    structured stall diagnostic);
//! 2. the verdict report is byte-identical across repeated runs and
//!    thread counts, chaos storms included;
//! 3. chaos-gated scenarios are skipped unless explicitly included;
//! 4. checkpoint/resume reproduces the same verdicts without rerunning
//!    finished tasks.

use minnet::{run_scenario_files, scenario_files, verdict_report_json, CheckStatus, VerdictStatus};
use minnet_sim::RunBudget;
use std::path::{Path, PathBuf};

/// The `scenarios/` library at the repository root.
fn library() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    scenario_files(&dir).expect("scenario library present")
}

/// The library minus the 16k-terminal scale scenario — everything that
/// is cheap enough to run repeatedly in debug builds.
fn small_library() -> Vec<PathBuf> {
    library()
        .into_iter()
        .filter(|p| !p.to_string_lossy().contains("scale_16k"))
        .collect()
}

#[test]
fn library_runs_end_to_end_as_declared() {
    let set = run_scenario_files(&library(), 2, 0, true, None, None).unwrap();
    assert!(set.skipped.is_empty(), "chaos included, nothing skipped");
    assert!(
        set.all_as_expected(),
        "every scenario must end as its file declares:\n{}",
        set.verdicts
            .iter()
            .filter(|v| !v.as_expected())
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The deterministic baselines pass outright…
    let baseline = set
        .verdicts
        .iter()
        .find(|v| v.scenario == "baseline-tmin-curve")
        .expect("baseline scenario present");
    assert_eq!(baseline.status, VerdictStatus::Pass);
    assert!(baseline.stall.is_none());
    assert!(baseline.checks.iter().all(|c| c.status == CheckStatus::Passed));
    // …and the watchdog fixture fails with the structured diagnostic.
    let trip = set
        .verdicts
        .iter()
        .find(|v| v.scenario == "watchdog-trip")
        .expect("watchdog scenario present");
    assert_eq!(trip.status, VerdictStatus::Fail);
    assert_eq!(trip.expected, VerdictStatus::Fail);
    assert!(trip.as_expected());
    let diag = trip.stall.as_ref().expect("verdict carries the stall diagnostic");
    assert_eq!(diag.window, 500);
    assert_eq!(diag.stalled.len(), 1);
    assert_eq!((diag.stalled[0].src, diag.stalled[0].dst), (0, 15));
    assert!(diag.suspected_cycle.is_none(), "dead-channel block is acyclic");
    let no_stall = trip
        .checks
        .iter()
        .find(|c| c.what == "no stall")
        .expect("no-stall check evaluated");
    assert_eq!(no_stall.status, CheckStatus::Failed);
    assert!(no_stall.detail.contains("no progress"), "{}", no_stall.detail);
}

#[test]
fn verdict_report_is_bitwise_stable_across_runs_and_threads() {
    let files = small_library();
    let a = run_scenario_files(&files, 1, 0, true, None, None).unwrap();
    let b = run_scenario_files(&files, 4, 0, true, None, None).unwrap();
    let ja = verdict_report_json(&a);
    let jb = verdict_report_json(&b);
    assert_eq!(ja, jb, "verdict report must not depend on thread count");
    let c = run_scenario_files(&files, 4, 0, true, None, None).unwrap();
    assert_eq!(jb, verdict_report_json(&c), "repeat runs must be bitwise identical");
    // The report format stays wall-clock-free — the determinism above
    // is structural, not luck.
    assert!(!ja.contains("wall"));
}

#[test]
fn chaos_scenarios_are_gated_behind_opt_in() {
    let files: Vec<PathBuf> = library()
        .into_iter()
        .filter(|p| {
            let s = p.to_string_lossy();
            s.contains("transient_storm") || s.contains("baseline_tmin")
        })
        .collect();
    let set = run_scenario_files(&files, 2, 0, false, None, None).unwrap();
    assert_eq!(set.skipped, vec!["transient-storm-recovery".to_string()]);
    assert_eq!(set.verdicts.len(), 1);
    assert_eq!(set.verdicts[0].scenario, "baseline-tmin-curve");
}

#[test]
fn cli_budget_override_cuts_scenarios_without_editing_files() {
    // The `minnet scenario run --budget-cycles/--budget-ms` passthrough:
    // a cycle cap far below the scenario's horizon truncates every task
    // to a partial outcome, without touching the `.scn` file.
    let files: Vec<PathBuf> = library()
        .into_iter()
        .filter(|p| p.to_string_lossy().contains("baseline_tmin"))
        .collect();
    let tight = RunBudget {
        max_cycles: 500,
        max_wall_ms: 0,
    };
    let cut = run_scenario_files(&files, 2, 0, true, None, Some(tight)).unwrap();
    assert_eq!(cut.verdicts.len(), 1);
    assert!(
        cut.verdicts[0]
            .points
            .iter()
            .all(|p| p.outcome.tag() == "partial"),
        "a 500-cycle cap must truncate every task: {:?}",
        cut.verdicts[0]
            .points
            .iter()
            .map(|p| p.outcome.tag())
            .collect::<Vec<_>>()
    );
    // No override, or an all-zero one (which `minnet` maps to None),
    // leaves the declared behavior untouched, bit for bit.
    let plain = run_scenario_files(&files, 2, 0, true, None, None).unwrap();
    let zero = run_scenario_files(&files, 2, 0, true, None, Some(RunBudget::UNLIMITED)).unwrap();
    assert_eq!(verdict_report_json(&plain), verdict_report_json(&zero));
    assert_eq!(plain.verdicts[0].status, VerdictStatus::Pass);
}

#[test]
fn checkpointed_rerun_resumes_to_identical_verdicts() {
    // Non-stalling scenarios only: a stall diagnostic lives in the run's
    // side channel and is not persisted to checkpoints, so a resumed
    // watchdog fixture would (documentedly) lose its `stall` payload.
    let files: Vec<PathBuf> = library()
        .into_iter()
        .filter(|p| {
            let s = p.to_string_lossy();
            s.contains("baseline_bmin") || s.contains("tmin_link")
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("minnet_scn_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let first = run_scenario_files(&files, 2, 0, true, Some(&dir), None).unwrap();
    for v in &first.verdicts {
        assert!(
            dir.join(format!("{}.ckpt", v.scenario)).exists(),
            "checkpoint written for {}",
            v.scenario
        );
    }
    // Second run resumes from the checkpoints (every task preloaded)
    // and must reproduce the verdict report bit for bit.
    let second = run_scenario_files(&files, 2, 0, true, Some(&dir), None).unwrap();
    assert_eq!(verdict_report_json(&first), verdict_report_json(&second));
    let _ = std::fs::remove_dir_all(&dir);
}
