//! Load sweeps: the strict, all-or-nothing surface over the experiment
//! runner, plus what a curve needs beyond running it — the
//! across-replication aggregates, the saturation search and the seed mix.
//!
//! [`latency_throughput_curve`] and [`replicated_curve`] are
//! [`crate::campaign`]'s curves under the default policy (no retries, no
//! checkpoint) with the annotated outcomes collapsed: the first point
//! that did not complete turns the whole sweep into its `Err`. There is
//! one runner underneath, so a sweep shares its properties — the
//! experiment is compiled **once** and shared across workers, each
//! worker reuses its own engine state, a worker panic is contained and
//! reported as a message, and per-task SplitMix64 seeds make the output
//! deterministic, decorrelated across points and independent of the
//! thread count: exactly the numbers per-point
//! [`Experiment::run_seeded`] calls produce.

use crate::campaign::{campaign_curve, campaign_replicated_curve, CampaignPolicy, PointOutcome};
use crate::experiment::Experiment;
use minnet_sim::stats::Welford;
use minnet_sim::{SimError, SimReport};

/// One point of a latency–throughput curve.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Nominal offered load (flits/cycle/node).
    pub offered: f64,
    /// The simulation report at that load.
    pub report: SimReport,
}

/// SplitMix64 — decorrelates per-point seeds from the base seed.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Collapse one annotated outcome to the strict sweep surface: anything
/// but a completed run is the sweep's error.
fn strict(outcome: PointOutcome) -> Result<SimReport, String> {
    match outcome {
        PointOutcome::Ok(report) => Ok(report),
        PointOutcome::Partial { reason, .. } | PointOutcome::Failed { reason } => Err(reason),
    }
}

/// Evaluate the experiment at every load in `loads`, in parallel on
/// `threads` workers (1 = sequential). Results come back in `loads`
/// order; numbers are identical for any thread count. Callers that want
/// a complete annotated curve instead of the first failure use
/// [`campaign_curve`] directly.
pub fn latency_throughput_curve(
    exp: &Experiment,
    loads: &[f64],
    threads: usize,
) -> Result<Vec<SweepPoint>, String> {
    campaign_curve(exp, loads, threads, &CampaignPolicy::default())?
        .into_iter()
        .map(|p| {
            Ok(SweepPoint {
                offered: p.offered,
                report: strict(p.outcome)?,
            })
        })
        .collect()
}

/// One load point of a replicated sweep: `R` independent runs (one seed
/// each) aggregated into across-replication means and 95% confidence
/// half-widths. Unlike the within-run batch-means interval — which must
/// fight autocorrelation — replication means are independent samples, so
/// the classical i.i.d. interval `t₀.₀₂₅,R₋₁·s/√R` applies.
/// [`Welford::ci95_half_width`] uses the Student-t critical value for
/// the small `R` typical here (4.30 at `R = 3`, not 1.96 — the normal
/// approximation would understate a 3-replication interval by half).
#[derive(Clone, Debug)]
pub struct ReplicatedPoint {
    /// Nominal offered load (flits/cycle/node).
    pub offered: f64,
    /// Per-replication reports, in replication order.
    pub replications: Vec<SimReport>,
    /// Mean over replications of the mean message latency (cycles).
    pub mean_latency_cycles: f64,
    /// 95% half-width of the latency mean across replications.
    pub latency_ci95_cycles: f64,
    /// Mean over replications of accepted throughput (flits/node/cycle).
    pub accepted_flits_per_node_cycle: f64,
    /// 95% half-width of accepted throughput across replications.
    pub accepted_ci95: f64,
    /// Whether *every* replication was sustainable (§5 queue criterion).
    pub sustainable: bool,
    /// Whether *every* replication kept delivery pace with generation.
    pub steady: bool,
}

/// Evaluate every load in `loads` with `replications` independent seeded
/// runs each, parallel over the whole `(point, replication)` grid on
/// `threads` workers — [`campaign_replicated_curve`] under the default
/// policy, collapsed. Task `(i, r)` uses seed `mix(base, i·R + r + 1)` —
/// for `R = 1` exactly the seeds (and hence bit-exactly the reports) of
/// [`latency_throughput_curve`].
///
/// # Errors
///
/// Reports a zero replication count, invalid experiments, and invalid
/// loads.
pub fn replicated_curve(
    exp: &Experiment,
    loads: &[f64],
    replications: usize,
    threads: usize,
) -> Result<Vec<ReplicatedPoint>, String> {
    let policy = CampaignPolicy::default();
    campaign_replicated_curve(exp, loads, replications, threads, &policy)?
        .into_iter()
        .map(|p| {
            let reps: Result<_, _> = p.outcomes.into_iter().map(strict).collect();
            Ok(aggregate_replicated(p.offered, reps?))
        })
        .collect()
}

/// Fold one load point's replication reports into a [`ReplicatedPoint`]
/// (a campaign aggregates the `Ok` subset of a partially-failed point).
pub(crate) fn aggregate_replicated(offered: f64, reps: Vec<SimReport>) -> ReplicatedPoint {
    let mut lat = Welford::new();
    let mut acc = Welford::new();
    for r in &reps {
        lat.push(r.mean_latency_cycles);
        acc.push(r.accepted_flits_per_node_cycle);
    }
    ReplicatedPoint {
        offered,
        mean_latency_cycles: lat.mean(),
        latency_ci95_cycles: lat.ci95_half_width(),
        accepted_flits_per_node_cycle: acc.mean(),
        accepted_ci95: acc.ci95_half_width(),
        sustainable: reps.iter().all(|r| r.sustainable),
        steady: reps.iter().all(|r| r.steady),
        replications: reps,
    }
}

/// One point of a graceful-degradation curve: `R` replications at a fixed
/// offered load, under `fault_count` randomly-placed permanent inter-stage
/// link faults. Aggregates follow [`ReplicatedPoint`] (independent
/// replications, Student-t 95% half-widths) and add the fault-specific
/// accounting: packets the engine aborted at a fault onset and packets it
/// refused because no live route to their destination existed.
#[derive(Clone, Debug)]
pub struct DegradationPoint {
    /// Number of inter-stage links killed for this point.
    pub fault_count: usize,
    /// Per-replication reports, in replication order.
    pub replications: Vec<SimReport>,
    /// Mean over replications of the mean message latency (cycles).
    pub mean_latency_cycles: f64,
    /// 95% half-width of the latency mean across replications.
    pub latency_ci95_cycles: f64,
    /// Mean over replications of accepted throughput (flits/node/cycle).
    pub accepted_flits_per_node_cycle: f64,
    /// 95% half-width of accepted throughput across replications.
    pub accepted_ci95: f64,
    /// Mean over replications of measured packets aborted mid-flight.
    pub mean_aborted_packets: f64,
    /// Mean over replications of measured packets refused at injection
    /// (destination unreachable under the fault set).
    pub mean_undeliverable_packets: f64,
    /// Whether *every* replication was sustainable (§5 queue criterion).
    pub sustainable: bool,
    /// Whether *every* replication kept delivery pace with generation.
    pub steady: bool,
}

/// Fold one fault count's replication reports into a
/// [`DegradationPoint`].
pub(crate) fn aggregate_degradation(fault_count: usize, reps: Vec<SimReport>) -> DegradationPoint {
    let mut lat = Welford::new();
    let mut acc = Welford::new();
    let mut aborted = Welford::new();
    let mut refused = Welford::new();
    for r in &reps {
        lat.push(r.mean_latency_cycles);
        acc.push(r.accepted_flits_per_node_cycle);
        aborted.push(r.aborted_packets as f64);
        refused.push(r.undeliverable_packets as f64);
    }
    DegradationPoint {
        fault_count,
        mean_latency_cycles: lat.mean(),
        latency_ci95_cycles: lat.ci95_half_width(),
        accepted_flits_per_node_cycle: acc.mean(),
        accepted_ci95: acc.ci95_half_width(),
        mean_aborted_packets: aborted.mean(),
        mean_undeliverable_packets: refused.mean(),
        sustainable: reps.iter().all(|r| r.sustainable),
        steady: reps.iter().all(|r| r.steady),
        replications: reps,
    }
}

/// Locate the saturation boundary by bisection: the largest offered load
/// in `[lo, hi]` that remains sustainable, refined over `iters` halvings.
/// Returns the boundary load and its report, or `None` when even `lo`
/// saturates. Each probe uses a seed derived from the iteration, so the
/// search is deterministic. The experiment is compiled once; the probes
/// reuse this thread's pooled engine state.
///
/// A probe cut by the experiment's [`minnet_sim::RunBudget`] counts as
/// *saturated*: past the knee the network backs up and a run's wall time
/// explodes, so "too expensive to finish" is itself evidence the load is
/// beyond the boundary. The truncated probe's report is discarded — the
/// returned boundary report always comes from a completed run.
///
/// # Errors
///
/// Reports a bracket that is not `0 < lo < hi` (NaN included), invalid
/// experiments, and non-budget engine errors from a probe.
pub fn find_saturation(
    exp: &Experiment,
    lo: f64,
    hi: f64,
    iters: u32,
) -> Result<Option<SweepPoint>, String> {
    if !(lo > 0.0 && hi > lo && hi.is_finite()) {
        return Err(format!("need 0 < lo < hi, got lo = {lo}, hi = {hi}"));
    }
    let compiled = exp.compile()?;
    let base = compiled.base_seed();
    let mut lo = lo;
    let mut hi = hi;
    // Establish the bracket; a budget cut at the floor means even `lo`
    // is past (or too expensive to confirm below) saturation.
    let first = match compiled.run_seeded_typed(lo, mix(base, 0xB15EC7)) {
        Ok(report) => report,
        Err(SimError::BudgetExceeded(_)) => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    if !(first.sustainable && first.steady) {
        return Ok(None);
    }
    let mut best = Some(SweepPoint {
        offered: lo,
        report: first,
    });
    for i in 0..iters {
        let mid = 0.5 * (lo + hi);
        match compiled.run_seeded_typed(mid, mix(base, 0xB15EC7 + 1 + u64::from(i))) {
            Ok(report) if report.sustainable && report.steady => {
                best = Some(SweepPoint {
                    offered: mid,
                    report,
                });
                lo = mid;
            }
            Ok(_) | Err(SimError::BudgetExceeded(_)) => hi = mid,
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(best)
}

/// The largest *sustainable* accepted throughput found on a curve — the
/// paper's "maximum network throughput" (§5: sustainable means no source
/// queue exceeded the limit; we additionally require the run to be
/// steady, i.e. delivery kept pace with generation).
pub fn saturation_load(points: &[SweepPoint]) -> Option<&SweepPoint> {
    points
        .iter()
        .filter(|p| p.report.sustainable && p.report.steady)
        .max_by(|a, b| {
            a.report
                .accepted_flits_per_node_cycle
                .total_cmp(&b.report.accepted_flits_per_node_cycle)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::campaign_degradation_curve;
    use crate::spec::NetworkSpec;
    use minnet_traffic::MessageSizeDist;

    /// The degradation curve under the default policy, every point's
    /// replications complete.
    fn degradation(
        exp: &Experiment,
        load: f64,
        fault_counts: &[usize],
        replications: usize,
        threads: usize,
    ) -> Result<Vec<DegradationPoint>, String> {
        let policy = CampaignPolicy::default();
        let points =
            campaign_degradation_curve(exp, load, fault_counts, replications, threads, &policy)?;
        Ok(points
            .into_iter()
            .map(|p| p.ok_stats.expect("healthy curve: a replication completed"))
            .collect())
    }

    fn quick() -> Experiment {
        let mut e = Experiment::paper_default(NetworkSpec::tmin());
        e.sizes = MessageSizeDist::Fixed(32);
        e.sim.warmup = 500;
        e.sim.measure = 4_000;
        e
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let exp = quick();
        let loads = [0.1, 0.3, 0.5];
        let seq = latency_throughput_curve(&exp, &loads, 1).unwrap();
        let par = latency_throughput_curve(&exp, &loads, 3).unwrap();
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.offered, b.offered);
            assert!(a.report.bitwise_eq(&b.report));
        }
    }

    #[test]
    fn sweep_matches_per_run_path_bitwise() {
        // The compiled sweep must reproduce exactly what per-point
        // `Experiment::run_seeded` calls produced before the rewrite.
        let exp = quick();
        let loads = [0.15, 0.45];
        let pts = latency_throughput_curve(&exp, &loads, 2).unwrap();
        for (i, p) in pts.iter().enumerate() {
            let direct = exp
                .run_seeded(loads[i], mix(exp.sim.seed, i as u64 + 1))
                .unwrap();
            assert!(p.report.bitwise_eq(&direct), "point {i} diverged");
        }
    }

    #[test]
    fn latency_grows_with_load() {
        let exp = quick();
        let pts = latency_throughput_curve(&exp, &[0.1, 0.6], 2).unwrap();
        assert!(
            pts[1].report.mean_latency_cycles > pts[0].report.mean_latency_cycles,
            "latency must increase toward saturation"
        );
    }

    #[test]
    fn saturation_picks_best_sustainable() {
        let exp = quick();
        let pts = latency_throughput_curve(&exp, &[0.1, 0.4, 2.0], 2).unwrap();
        let sat = saturation_load(&pts).unwrap();
        assert!(sat.report.sustainable);
        assert!(sat.offered < 2.0, "overload cannot be the sustainable max");
    }

    #[test]
    fn empty_sweep() {
        let exp = quick();
        assert!(latency_throughput_curve(&exp, &[], 4).unwrap().is_empty());
        assert!(replicated_curve(&exp, &[], 3, 4).unwrap().is_empty());
        assert!(saturation_load(&[]).is_none());
    }

    #[test]
    fn bisection_brackets_the_knee() {
        let exp = quick();
        let sat = find_saturation(&exp, 0.05, 1.5, 5).unwrap().unwrap();
        // The TMIN's knee lies strictly inside the bracket …
        assert!(sat.offered > 0.05 && sat.offered < 1.5);
        assert!(sat.report.sustainable);
        // … and pushing clearly past it is unsustainable.
        let beyond = exp.run(1.4).unwrap();
        assert!(!beyond.sustainable);
        assert!(sat.offered < 1.0, "one-port bound caps the knee below 1.0");
    }

    #[test]
    fn bisection_reports_none_when_floor_saturates() {
        let mut exp = quick();
        exp.sim.queue_limit = 0; // nothing is sustainable
        assert!(find_saturation(&exp, 0.3, 0.9, 3).unwrap().is_none());
    }

    #[test]
    fn bisection_treats_budget_cut_probes_as_saturated() {
        // Every probe is cut by a cycle budget below the horizon: the
        // floor probe cannot be confirmed sustainable, so the search
        // reports None instead of crowning a truncated report (or
        // erroring the search).
        let mut exp = quick();
        exp.sim.budget = minnet_sim::RunBudget {
            max_cycles: exp.sim.warmup + 100,
            max_wall_ms: 0,
        };
        assert!(find_saturation(&exp, 0.05, 1.5, 4).unwrap().is_none());
    }

    #[test]
    fn bisection_unchanged_when_budget_covers_the_horizon() {
        let exp = quick();
        let plain = find_saturation(&exp, 0.05, 1.5, 5).unwrap().unwrap();
        let mut budgeted_exp = quick();
        budgeted_exp.sim.budget = minnet_sim::RunBudget {
            max_cycles: budgeted_exp.sim.warmup + budgeted_exp.sim.measure,
            max_wall_ms: 0,
        };
        let budgeted = find_saturation(&budgeted_exp, 0.05, 1.5, 5)
            .unwrap()
            .unwrap();
        assert_eq!(plain.offered, budgeted.offered);
        assert!(plain.report.bitwise_eq(&budgeted.report));
    }

    #[test]
    fn saturation_load_requires_both_flags() {
        // A point that is sustainable but not steady (delivery fell
        // behind) must not be crowned — the completed collapse
        // additionally excludes Partial/Failed outcomes (see campaign
        // tests).
        let exp = quick();
        let pts = latency_throughput_curve(&exp, &[0.1, 0.2], 1).unwrap();
        let mut doctored = pts.clone();
        doctored[1].report.steady = false;
        doctored[1].report.accepted_flits_per_node_cycle = 99.0;
        let sat = saturation_load(&doctored).unwrap();
        assert_eq!(sat.offered, 0.1);
    }

    #[test]
    fn replicated_curve_aggregates_independent_seeds() {
        let mut exp = quick();
        // A window long enough that the end-of-run transient cannot push
        // a replication below the 95% steady criterion at these loads.
        exp.sim.measure = 12_000;
        let pts = replicated_curve(&exp, &[0.15, 0.35], 4, 3).unwrap();
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert_eq!(p.replications.len(), 4);
            // Different seeds must actually differ …
            let first = p.replications[0].mean_latency_cycles;
            assert!(
                p.replications
                    .iter()
                    .any(|r| r.mean_latency_cycles != first),
                "replications collapsed to one seed"
            );
            // … and the aggregate lies inside the replication range.
            let lo = p
                .replications
                .iter()
                .map(|r| r.mean_latency_cycles)
                .fold(f64::INFINITY, f64::min);
            let hi = p
                .replications
                .iter()
                .map(|r| r.mean_latency_cycles)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(p.mean_latency_cycles >= lo && p.mean_latency_cycles <= hi);
            assert!(p.latency_ci95_cycles > 0.0);
            assert!(p.accepted_ci95 >= 0.0);
            assert!(p.sustainable && p.steady);
        }
        // More load, more latency — also through the aggregate.
        assert!(pts[1].mean_latency_cycles > pts[0].mean_latency_cycles);
    }

    #[test]
    fn replicated_ci_uses_student_t_across_replications() {
        // R = 3 → 2 degrees of freedom → t₀.₀₂₅ = 4.303, rebuilt here
        // from the published replication reports. The old normal-based
        // 1.96·s/√3 would be ~2.2× too narrow.
        let exp = quick();
        let p = &replicated_curve(&exp, &[0.3], 3, 1).unwrap()[0];
        let lats: Vec<f64> = p
            .replications
            .iter()
            .map(|r| r.mean_latency_cycles)
            .collect();
        let mean = lats.iter().sum::<f64>() / 3.0;
        let var = lats.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / 2.0;
        let want = 4.303 * (var / 3.0).sqrt();
        assert!(
            (p.latency_ci95_cycles - want).abs() <= 1e-9 * want,
            "ci {} vs t-based {want}",
            p.latency_ci95_cycles
        );
        let normal = 1.96 * (var / 3.0).sqrt();
        assert!(p.latency_ci95_cycles > 2.0 * normal);
    }

    #[test]
    fn replicated_curve_is_thread_count_invariant() {
        let exp = quick();
        let a = replicated_curve(&exp, &[0.3], 3, 1).unwrap();
        let b = replicated_curve(&exp, &[0.3], 3, 4).unwrap();
        for (x, y) in a[0].replications.iter().zip(&b[0].replications) {
            assert!(x.bitwise_eq(y));
        }
        assert_eq!(a[0].latency_ci95_cycles.to_bits(), b[0].latency_ci95_cycles.to_bits());
    }

    #[test]
    fn single_replication_matches_plain_curve() {
        // R = 1 uses the same task seeds as the plain sweep, so the
        // reports must be bit-identical.
        let exp = quick();
        let loads = [0.2, 0.4];
        let plain = latency_throughput_curve(&exp, &loads, 2).unwrap();
        let reps = replicated_curve(&exp, &loads, 1, 2).unwrap();
        for (p, r) in plain.iter().zip(&reps) {
            assert!(p.report.bitwise_eq(&r.replications[0]));
            assert_eq!(r.latency_ci95_cycles, 0.0); // one sample, no CI
        }
    }

    #[test]
    fn replicated_curve_rejects_zero_replications() {
        assert!(replicated_curve(&quick(), &[0.2], 0, 1).is_err());
    }

    #[test]
    fn degradation_zero_faults_matches_replicated_curve() {
        // A zero-fault point compiles a trivial schedule, which the engine
        // normalises away — the reports must be bit-identical to the
        // plain replicated sweep at the same (load, seed) grid.
        let exp = quick();
        let faultless = replicated_curve(&exp, &[0.25], 3, 2).unwrap();
        let degraded = degradation(&exp, 0.25, &[0], 3, 2).unwrap();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].fault_count, 0);
        assert_eq!(degraded[0].mean_aborted_packets, 0.0);
        assert_eq!(degraded[0].mean_undeliverable_packets, 0.0);
        for (a, b) in faultless[0].replications.iter().zip(&degraded[0].replications) {
            assert!(a.bitwise_eq(b), "zero-fault point diverged from faultless run");
        }
    }

    #[test]
    fn bmin_routes_around_single_link_fault() {
        // BMIN's path diversity: every stage-0 switch keeps k-1 live
        // parents after one link dies, so no destination disconnects and
        // traffic keeps flowing.
        let mut exp = quick();
        exp.network = NetworkSpec::Bmin;
        let pts = degradation(&exp, 0.2, &[1], 2, 2).unwrap();
        let p = &pts[0];
        assert_eq!(p.mean_undeliverable_packets, 0.0, "BMIN must not disconnect");
        assert!(p.sustainable, "BMIN must sustain 0.2 load around one dead link");
        for r in &p.replications {
            assert!(r.delivered_packets > 0);
        }
    }

    #[test]
    fn tmin_reports_structured_disconnection() {
        // TMIN has a unique path per (src, dst): a dead inter-stage link
        // disconnects some pairs. The engine must refuse that traffic with
        // accounting — not panic, not hang.
        let pts = degradation(&quick(), 0.2, &[1, 2], 1, 2).unwrap();
        assert!(
            pts.iter().any(|p| p.mean_undeliverable_packets > 0.0),
            "uniform traffic over a cut TMIN must hit a disconnected pair"
        );
        for p in &pts {
            for r in &p.replications {
                assert!(r.delivered_packets > 0, "connected pairs still deliver");
            }
        }
    }

    #[test]
    fn degradation_curve_is_thread_count_invariant() {
        let exp = quick();
        let a = degradation(&exp, 0.2, &[0, 1], 2, 1).unwrap();
        let b = degradation(&exp, 0.2, &[0, 1], 2, 4).unwrap();
        for (x, y) in a.iter().zip(&b) {
            for (r, s) in x.replications.iter().zip(&y.replications) {
                assert!(r.bitwise_eq(s));
            }
        }
    }

    #[test]
    fn degradation_curve_rejects_bad_inputs() {
        assert!(degradation(&quick(), 0.2, &[0], 0, 1).is_err());
        // More faults than inter-stage links.
        assert!(degradation(&quick(), 0.2, &[100_000], 1, 1).is_err());
        assert!(degradation(&quick(), 0.2, &[], 1, 1).unwrap().is_empty());
    }
}
