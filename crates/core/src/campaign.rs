//! The experiment runner: every curve, scenario and daemon job is a
//! *plan* run by one worker pool, one attempt ladder and one checkpoint.
//!
//! Every §5 figure is the same shape — one network × workload evaluated
//! over a grid of loads, replications or fault counts — and a long
//! campaign of them must survive a bad point and a killed process. A
//! plan is a checkpoint kind, an identity-v1 hash, a task count and a
//! per-task closure; `run_plan` is the only code that executes one. A
//! door's job — one experiment over its loads or a script, under faults
//! and a chaos storm — goes through one runner, `execute`, which
//! compiles it and supplies the closure: [`campaign_curve`], and from
//! their own modules `Scenario::run` and `service::run_job`, pass their
//! kind and hash and fold its outcomes. [`campaign_replicated_curve`]
//! and [`campaign_degradation_curve`] build their plans on `run_plan`
//! and fold into one point type, [`ReplicatedCampaignPoint`] — a load, a
//! fault count (0 on a replicated curve) and one [`ReplicatedStats`]
//! aggregate. The strict [`crate::latency_throughput_curve`] is
//! [`campaign_curve`] under the default policy with the outcomes
//! collapsed; this module needs nothing from [`crate::sweep`].
//!
//! * **Per-point isolation.** Every attempt runs under
//!   [`std::panic::catch_unwind`] on its worker; a panic, a
//!   watchdog trip, or any other typed engine error downgrades to a
//!   per-point [`PointOutcome::Failed`] (optionally retried on a
//!   derived seed), while a [`minnet_sim::SimError::BudgetExceeded`]
//!   cut becomes [`PointOutcome::Partial`] carrying the truncated —
//!   but valid — report. A campaign always returns a complete curve
//!   annotated per point; it only `Err`s on configuration or I/O
//!   problems that no retry can fix.
//!
//!   `catch_unwind` needs `AssertUnwindSafe` over the worker's
//!   [`EngineState`]: that is sound here because a state that observed
//!   a panic is discarded and replaced with a fresh allocation (and
//!   every run fully re-dimensions the state on entry anyway).
//!
//! * **Poison-proof collection.** Results travel over an mpsc channel
//!   to the scope-owning thread instead of per-task `Mutex` slots, so
//!   there is no lock to poison. A plan that can use only one worker
//!   (`--threads 1`, or one unit left to run) has nobody to hand over
//!   to: the calling thread runs the same worker loop and records each
//!   result itself, without a spawn, a join or a channel.
//!
//! * **Durable checkpointing.** With [`CampaignPolicy::checkpoint`]
//!   set, every finished task is appended — one `write`, one JSON line
//!   each — to a versioned JSONL [`Log`] keyed by a hash of the full
//!   campaign configuration. Resuming loads completed tasks and only
//!   runs the rest; because per-task seeds are independent of both the
//!   schedule and the thread count, and floats are checkpointed as
//!   `f64::to_bits` patterns, a resumed curve is **bitwise identical**
//!   to an uninterrupted one (pinned by the workspace proptests). A
//!   SIGKILL can at worst tear the final line, which the loader drops
//!   before appending; a complete line it cannot read is skipped and
//!   left in place, and its task runs again.
//!
//! Budget semantics vs the watchdog: the no-progress watchdog (PR 4)
//! catches *wedged* networks — zero flit movement with packets active —
//! while [`minnet_sim::RunBudget`] catches *legitimate but unbounded*
//! work (a run pushed past saturation whose wall time explodes). A
//! watchdog trip is a `Failed` outcome (the run's numbers are
//! meaningless); a budget cut is `Partial` (the numbers are a valid
//! truncated sample).

use crate::experiment::Experiment;
use crate::jsonl::{self, esc, Log, Obj};
use minnet_sim::stats::Welford;
use minnet_sim::{
    ChaosSchedule, EngineState, Script, ScriptedMsg, SimError, SimReport, StallDiagnostic, Traffic,
};
use minnet_topology::FaultPlan;
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Salt mixed into the experiment seed to derive the chaos-expansion
/// seed, so the storm draw is decorrelated from the engine's own RNG
/// streams.
const CHAOS_SALT: u64 = 0x0063_6861_6f73; // "chaos"

/// What one campaign task (a `(point, replication)` cell) produced.
#[derive(Clone, Debug)]
pub enum PointOutcome {
    /// The run completed normally.
    Ok(SimReport),
    /// A [`minnet_sim::RunBudget`] limit cut the run short; the report
    /// is a valid truncated sample (rates normalized over the cycles
    /// actually measured). Not retried — the same budget would cut a
    /// retry identically (cycles) or arbitrarily (wall clock).
    Partial {
        /// Statistics accumulated up to the cut.
        report: SimReport,
        /// Which budget fired, human-readable.
        reason: String,
    },
    /// The run panicked or returned a non-budget engine error, after
    /// exhausting any configured retries. No usable statistics.
    Failed {
        /// The panic message or engine error, human-readable.
        reason: String,
    },
}

impl PointOutcome {
    /// The report, if this outcome carries one (`Ok` or `Partial`).
    pub fn report(&self) -> Option<&SimReport> {
        match self {
            PointOutcome::Ok(r) | PointOutcome::Partial { report: r, .. } => Some(r),
            PointOutcome::Failed { .. } => None,
        }
    }

    /// The report of a fully completed run only.
    pub fn ok_report(&self) -> Option<&SimReport> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Whether a budget cut the run short.
    pub fn is_partial(&self) -> bool {
        matches!(self, PointOutcome::Partial { .. })
    }

    /// The checkpoint tag (`ok` / `partial` / `failed`).
    pub fn tag(&self) -> &'static str {
        match self {
            PointOutcome::Ok(_) => "ok",
            PointOutcome::Partial { .. } => "partial",
            PointOutcome::Failed { .. } => "failed",
        }
    }
}

/// How a campaign treats failures and persistence.
#[derive(Clone, Debug, Default)]
pub struct CampaignPolicy {
    /// Same-point retries after a `Failed` outcome (panic or non-budget
    /// engine error). Attempt `a > 0` reruns the task with seed
    /// `mix(task_seed, 0x5245_7452 + a)` — deterministic, decorrelated
    /// from the original draw. Budget cuts are never retried.
    pub retries: u32,
    /// Append each finished task to this JSONL checkpoint file (and
    /// load completed tasks from it when it already exists).
    pub checkpoint: Option<PathBuf>,
    /// Refuse to start when the checkpoint file does not exist — the
    /// CLI's `--resume` (vs `--checkpoint`, which creates or resumes).
    pub require_existing: bool,
}

impl CampaignPolicy {
    /// [`CampaignPolicy::default`], kept for `benchmark/src/replay.rs`,
    /// its last caller; ROADMAP 2(d) deletes it.
    pub fn isolate() -> CampaignPolicy {
        CampaignPolicy::default()
    }
}

/// One annotated point of a [`campaign_curve`].
#[derive(Clone, Debug)]
pub struct CampaignPoint {
    /// Nominal offered load (flits/cycle/node).
    pub offered: f64,
    /// What the run produced.
    pub outcome: PointOutcome,
    /// Attempts spent (1 = no retry was needed).
    pub attempts: u32,
}

/// One annotated point of a [`campaign_replicated_curve`] or a
/// [`campaign_degradation_curve`]: every replication's outcome, plus the
/// across-replication aggregate over the replications that completed
/// normally.
#[derive(Clone, Debug)]
pub struct ReplicatedCampaignPoint {
    /// Nominal offered load (flits/cycle/node); on a degradation curve,
    /// its one load.
    pub offered: f64,
    /// Inter-stage links killed for this point (0 on a replicated curve).
    pub fault_count: usize,
    /// Per-replication outcomes, in replication order.
    pub outcomes: Vec<PointOutcome>,
    /// Per-replication attempt counts, in replication order.
    pub attempts: Vec<u32>,
    /// Aggregate over the `Ok` replications — `None` when none
    /// completed. Partial reports are *excluded*: a truncated sample
    /// would bias the across-replication confidence intervals.
    pub ok_stats: Option<ReplicatedStats>,
}

/// `R` independent runs of one point (one seed each) aggregated into
/// across-replication means and 95% confidence half-widths. Unlike the
/// within-run batch-means interval — which must fight autocorrelation —
/// replication means are independent samples, so the classical i.i.d.
/// interval `t₀.₀₂₅,R₋₁·s/√R` applies. [`Welford::ci95_half_width`] uses
/// the Student-t critical value for the small `R` typical here (4.30 at
/// `R = 3`, not 1.96 — the normal approximation would understate a
/// 3-replication interval by half).
#[derive(Clone, Debug)]
pub struct ReplicatedStats {
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
    /// Mean over replications of measured packets aborted mid-flight by
    /// a fault onset.
    pub mean_aborted_packets: f64,
    /// Mean over replications of measured packets refused at injection
    /// (destination unreachable under the fault set).
    pub mean_undeliverable_packets: f64,
    /// Whether *every* replication was sustainable (§5 queue criterion).
    pub sustainable: bool,
    /// Whether *every* replication kept delivery pace with generation.
    pub steady: bool,
}

impl ReplicatedStats {
    /// Fold one point's replication reports — `None` when there are none.
    fn of(replications: Vec<SimReport>) -> Option<ReplicatedStats> {
        if replications.is_empty() {
            return None;
        }
        let [mut lat, mut acc, mut aborted, mut refused] = std::array::from_fn(|_| Welford::new());
        for r in &replications {
            lat.push(r.mean_latency_cycles);
            acc.push(r.accepted_flits_per_node_cycle);
            aborted.push(r.aborted_packets as f64);
            refused.push(r.undeliverable_packets as f64);
        }
        Some(ReplicatedStats {
            mean_latency_cycles: lat.mean(),
            latency_ci95_cycles: lat.ci95_half_width(),
            accepted_flits_per_node_cycle: acc.mean(),
            accepted_ci95: acc.ci95_half_width(),
            mean_aborted_packets: aborted.mean(),
            mean_undeliverable_packets: refused.mean(),
            sustainable: replications.iter().all(|r| r.sustainable),
            steady: replications.iter().all(|r| r.steady),
            replications,
        })
    }
}

/// Count `(ok, partial, failed)` over a slice of outcomes.
pub fn outcome_counts<'a>(
    outcomes: impl IntoIterator<Item = &'a PointOutcome>,
) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for o in outcomes {
        match o {
            PointOutcome::Ok(_) => counts.0 += 1,
            PointOutcome::Partial { .. } => counts.1 += 1,
            PointOutcome::Failed { .. } => counts.2 += 1,
        }
    }
    counts
}

/// SplitMix64 — decorrelates per-task seeds from the base seed.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The seed for retry `attempt` of a task originally seeded `seed`:
/// attempt 0 is the original draw; later attempts decorrelate via
/// SplitMix64 so a seed-dependent failure is not simply replayed.
fn retry_seed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        seed
    } else {
        mix(seed, 0x5245_7452 + u64::from(attempt))
    }
}

/// The seed every plan gives attempt `attempt` of task `task`: the grid
/// seed `mix(base, task + 1)` — independent of schedule, thread count
/// and resume — pushed through [`retry_seed`].
pub(crate) fn task_seed(base: u64, task: usize, attempt: u32) -> u64 {
    retry_seed(mix(base, task as u64 + 1), attempt)
}

/// Extract a human-readable message from a caught panic payload: the
/// reason a campaign point, and a `minnetd` job, records for a panic.
pub fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: (non-string payload)".to_string()
    }
}

/// The attempt ladder — the one place a run's result becomes a
/// [`PointOutcome`]: `Ok` and budget cuts (`Partial`) end the ladder,
/// an error or a panic spends one of the `retries` and reruns
/// `run(task, attempt + 1, ..)`, and the last failure stands as
/// `Failed`. Returns the outcome and the attempts it took.
fn attempt_ladder(
    task: usize,
    retries: u32,
    run: &impl Fn(usize, u32, &mut EngineState) -> Result<SimReport, SimError>,
    st: &mut EngineState,
) -> (PointOutcome, u32) {
    let mut attempt = 0u32;
    loop {
        let reason = match catch_unwind(AssertUnwindSafe(|| run(task, attempt, st))) {
            Ok(Ok(report)) => return (PointOutcome::Ok(report), attempt + 1),
            Ok(Err(SimError::BudgetExceeded(partial))) => {
                let reason = partial.to_string();
                let report = partial.report;
                return (PointOutcome::Partial { report, reason }, attempt + 1);
            }
            Ok(Err(e)) => e.to_string(),
            Err(payload) => {
                // The state witnessed a panic mid-run; never reuse it.
                *st = EngineState::new();
                panic_reason(payload)
            }
        };
        if attempt == retries {
            return (PointOutcome::Failed { reason }, attempt + 1);
        }
        attempt += 1;
    }
}

/// The experiment runner: every curve, scenario and daemon job is a
/// *plan* — `tasks` independent runs identified by checkpoint `kind`
/// and identity-v1 `hash` — lowered onto this one function. It opens
/// (or resumes) the policy's checkpoint, fans the tasks that are not in
/// it out over `threads` scoped workers claiming from a shared cursor,
/// pushes every result through [`attempt_ladder`], and collects
/// `(task, outcome, attempts)` over an mpsc channel on the scope-owning
/// thread, which alone appends to the checkpoint. When there is work
/// for one worker only, the calling thread is that worker and appends
/// as it goes — the same loop, order and flush per task, minus the
/// spawn and the per-task hand-off. Per-task seeding
/// ([`task_seed`]) keeps the *values* independent of scheduling; the
/// function only `Err`s on checkpoint refusal or I/O failure.
pub(crate) fn run_plan(
    kind: &str,
    hash: u64,
    tasks: usize,
    threads: usize,
    policy: &CampaignPolicy,
    run: impl Fn(usize, u32, &mut EngineState) -> Result<SimReport, SimError> + Sync,
) -> Result<Vec<(PointOutcome, u32)>, String> {
    let (mut ckpt, mut results) = open_checkpoint(policy, kind, hash, tasks)?;
    let pending: Vec<usize> = (0..tasks).filter(|&t| results[t].is_none()).collect();
    if !pending.is_empty() {
        let workers = threads.clamp(1, pending.len());
        let cursor = AtomicUsize::new(0);
        // The one worker loop: claim tasks off the cursor until they run
        // out or `sink` says nobody is listening.
        let worker = |sink: &mut dyn FnMut(usize, PointOutcome, u32) -> bool| {
            let mut st = EngineState::new();
            while let Some(&t) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let (outcome, attempts) = attempt_ladder(t, policy.retries, &run, &mut st);
                if !sink(t, outcome, attempts) {
                    return;
                }
            }
        };
        // On a checkpoint write error keep going (a pool's workers must
        // finish) but remember the first failure.
        let mut io_err: Option<String> = None;
        let mut record = |t: usize, outcome: PointOutcome, attempts: u32| {
            if let (Some(log), None) = (&mut ckpt, &io_err) {
                let line = task_line(t, attempts, &outcome);
                io_err = line.and_then(|l| log.append(l).map_err(|e| e.to_string())).err();
            }
            results[t] = Some((outcome, attempts));
        };
        if workers == 1 {
            worker(&mut |t, outcome, attempts| {
                record(t, outcome, attempts);
                true
            });
        } else {
            let (tx, rx) = mpsc::channel::<(usize, PointOutcome, u32)>();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let (tx, worker) = (tx.clone(), &worker);
                    scope.spawn(move || {
                        worker(&mut |t, outcome, attempts| tx.send((t, outcome, attempts)).is_ok())
                    });
                }
                drop(tx);
                // Collect while workers run: no shared slots, nothing
                // to poison.
                for (t, outcome, attempts) in rx {
                    record(t, outcome, attempts);
                }
            });
        }
        if let Some(e) = io_err {
            return Err(format!("checkpoint write failed: {e}"));
        }
    }
    Ok(results
        .into_iter()
        .map(|slot| slot.expect("runner fills every task slot"))
        .collect())
}

/// What a door hands [`execute`]: one experiment over its Poisson loads
/// — or over one message script, when `script` is not empty — under
/// explicit `faults` and a `chaos` storm. `panics` panics the first
/// attempts of every task (the v1 job document's chaos knob).
pub(crate) struct Job<'a> {
    pub(crate) exp: &'a Experiment,
    pub(crate) loads: &'a [f64],
    pub(crate) script: &'a [ScriptedMsg],
    pub(crate) faults: Option<&'a FaultPlan>,
    pub(crate) chaos: Option<&'a ChaosSchedule>,
    pub(crate) panics: u32,
}

impl<'a> Job<'a> {
    /// `exp` over Poisson `loads`, and nothing else.
    pub(crate) fn curve(exp: &'a Experiment, loads: &'a [f64]) -> Job<'a> {
        let (script, faults, chaos, panics) = (&[][..], None, None, 0);
        Job { exp, loads, script, faults, chaos, panics }
    }
}

/// Every task's outcome and attempts, in task order, and the stall
/// diagnostic of each task whose watchdog fired.
pub(crate) struct Executed {
    pub(crate) outcomes: Vec<(PointOutcome, u32)>,
    pub(crate) stalls: Vec<Option<Box<StallDiagnostic>>>,
}

/// The runner every door's job goes through: compile the experiment,
/// merge the explicit faults with the storm expanded from `mix(seed,
/// CHAOS_SALT)` into one plan compiled once, and run a task a load (or
/// the one script) on [`run_plan`] under the door's `kind` and hash
/// `identity(merged plan)`. A script's delivery records and traces are
/// dropped (not judged, not checkpointable; a Poisson run keeps none). A
/// watchdog trip becomes a `Failed` reason on the ladder, so its
/// diagnostic is kept per task in [`Executed::stalls`].
///
/// # Errors
///
/// What compiling the experiment, the storm, the fault plan or the
/// script refuses, and [`run_plan`]'s checkpoint errors.
pub(crate) fn execute(
    job: &Job<'_>,
    kind: &str,
    identity: &dyn Fn(&FaultPlan) -> u64,
    threads: usize,
    policy: &CampaignPolicy,
) -> Result<Executed, String> {
    let compiled = job.exp.compile()?;
    let mut plan = job.faults.cloned().unwrap_or_default();
    if let Some(chaos) = job.chaos {
        let seed = mix(job.exp.sim.seed, CHAOS_SALT);
        let storm = chaos.compile_plan(compiled.graph(), job.exp.network.vcs(), seed);
        for f in storm.map_err(|e| e.to_string())?.faults() {
            plan.push(*f);
        }
    }
    let faults = (!plan.is_empty()).then(|| compiled.network().compile_faults(&plan));
    let faults = faults.transpose().map_err(|e| e.to_string())?;
    let script = (!job.script.is_empty()).then(|| Script::compile(job.exp.geometry, job.script));
    let script = script.transpose().map_err(|e| e.to_string())?;
    let tasks = if script.is_some() { 1 } else { job.loads.len() };
    let stalls = Mutex::new(vec![None; tasks]);
    let base = compiled.base_seed();
    let outcomes = run_plan(kind, identity(&plan), tasks, threads, policy, |task, attempt, st| {
        if attempt < job.panics {
            panic!("chaos: injected panic at point {task} attempt {attempt}");
        }
        let workload;
        let traffic = match &script {
            Some(s) => Traffic::Script(s),
            None => {
                let load = job.loads[task];
                workload = compiled.template().workload_at(load).map_err(SimError::Config)?;
                Traffic::Poisson(&workload)
            }
        };
        let seed = task_seed(base, task, attempt);
        match compiled.network().run(traffic, faults.as_ref(), seed, st) {
            Ok(mut r) => {
                (r.deliveries, r.trace) = (None, None);
                Ok(r)
            }
            Err(SimError::BudgetExceeded(mut p)) => {
                (p.report.deliveries, p.report.trace) = (None, None);
                Err(SimError::BudgetExceeded(p))
            }
            Err(SimError::NoProgress(d)) => {
                stalls.lock().expect("stall channel poisoned")[task] = Some(d.clone());
                Err(SimError::NoProgress(d))
            }
            Err(e) => Err(e),
        }
    })?;
    let stalls = stalls.into_inner().expect("stall channel poisoned");
    Ok(Executed { outcomes, stalls })
}

/// Fold a replicated grid's task-ordered results into one annotated
/// point per `(offered, fault_count)` key: `replications` consecutive
/// results each, split into outcomes and attempts, plus the aggregate of
/// the `Ok` replications.
fn fold_points(
    keys: impl Iterator<Item = (f64, usize)>,
    replications: usize,
    results: Vec<(PointOutcome, u32)>,
) -> Vec<ReplicatedCampaignPoint> {
    let mut results = results.into_iter();
    keys.map(|(offered, fault_count)| {
        let (outcomes, attempts): (Vec<PointOutcome>, Vec<u32>) =
            results.by_ref().take(replications).unzip();
        let ok = outcomes.iter().filter_map(|o| o.ok_report().cloned()).collect();
        ReplicatedCampaignPoint {
            offered,
            fault_count,
            ok_stats: ReplicatedStats::of(ok),
            outcomes,
            attempts,
        }
    })
    .collect()
}

// ---- campaigns -------------------------------------------------------

/// One task per load, per-point outcomes, optional retries and
/// checkpointing. Task `i` runs on `mix(base, i + 1)`, so every `Ok`
/// report is bit-identical to a lone [`crate::CompiledExperiment::run`]
/// at that seed; [`crate::latency_throughput_curve`] is this function
/// under the default policy, collapsed to the strict surface.
///
/// # Errors
///
/// Configuration problems (invalid experiment) and checkpoint I/O or
/// validation failures only — runtime failures become per-point
/// outcomes.
pub fn campaign_curve(
    exp: &Experiment,
    loads: &[f64],
    threads: usize,
    policy: &CampaignPolicy,
) -> Result<Vec<CampaignPoint>, String> {
    if loads.is_empty() {
        return Ok(Vec::new());
    }
    let hash = config_hash("curve", exp, &format!("{loads:?}"), policy.retries);
    let ran = execute(&Job::curve(exp, loads), "curve", &|_| hash, threads, policy)?;
    Ok(loads
        .iter()
        .zip(ran.outcomes)
        .map(|(&offered, (outcome, attempts))| CampaignPoint {
            offered,
            outcome,
            attempts,
        })
        .collect())
}

/// `replications` independent seeded runs per load over the whole
/// `(point, replication)` grid, each replication one task on the plan's
/// pool. Task `(i, r)` runs on `mix(base, i·R + r + 1)` — for `R = 1`
/// exactly the seeds (hence bit-exactly the reports) of
/// [`campaign_curve`] — so every `Ok` report equals a lone
/// [`crate::CompiledExperiment::run`] at its task seed, however the tasks
/// are scheduled or resumed.
///
/// # Errors
///
/// As [`campaign_curve`], plus a zero replication count.
pub fn campaign_replicated_curve(
    exp: &Experiment,
    loads: &[f64],
    replications: usize,
    threads: usize,
    policy: &CampaignPolicy,
) -> Result<Vec<ReplicatedCampaignPoint>, String> {
    if replications == 0 {
        return Err("replicated campaign needs at least one replication".into());
    }
    if loads.is_empty() {
        return Ok(Vec::new());
    }
    let compiled = exp.compile()?;
    let base = compiled.base_seed();
    let results = run_plan(
        "replicated_curve",
        config_hash(
            "replicated_curve",
            exp,
            &format!("{loads:?}/R{replications}"),
            policy.retries,
        ),
        loads.len() * replications,
        threads,
        policy,
        |t, attempt, st| {
            compiled.run(loads[t / replications], task_seed(base, t, attempt), st)
        },
    )?;
    Ok(fold_points(loads.iter().map(|&l| (l, 0)), replications, results))
}

/// One offered load under increasing numbers of randomly-killed
/// inter-stage links — the graceful-degradation companion to the §5
/// latency–throughput curves. For each entry of `fault_counts` a fault
/// set is drawn seed-reproducibly
/// ([`FaultPlan::random_inter_stage_links`], salted with the count, so
/// a refined count list reuses the same fault sets), its masked routing
/// table is compiled **once**, and `replications` runs fan out over the
/// `(fault count, replication)` grid on the seeds of
/// [`campaign_replicated_curve`] — a lone `fault_counts = [0]` entry
/// reproduces that curve's reports at one load bit-exactly.
///
/// Networks with path diversity (BMIN, DMIN) route around dead links
/// and keep delivering; single-path networks (TMIN, VMIN) report the
/// disconnected traffic as `mean_undeliverable_packets` instead of
/// stalling or panicking.
///
/// # Errors
///
/// As [`campaign_replicated_curve`], plus fault-plan construction
/// failures (a fault set larger than the link pool, or one whose masked
/// dependency graph would deadlock) — those are configuration errors
/// shared by every replication, not per-point incidents.
pub fn campaign_degradation_curve(
    exp: &Experiment,
    offered_load: f64,
    fault_counts: &[usize],
    replications: usize,
    threads: usize,
    policy: &CampaignPolicy,
) -> Result<Vec<ReplicatedCampaignPoint>, String> {
    if replications == 0 {
        return Err("degradation campaign needs at least one replication".into());
    }
    if fault_counts.is_empty() {
        return Ok(Vec::new());
    }
    let compiled = exp.compile()?;
    let base = compiled.base_seed();
    let workload = compiled.template().workload_at(offered_load)?;
    let faulted: Vec<minnet_sim::CompiledFaults> = fault_counts
        .iter()
        .map(|&count| {
            let plan = FaultPlan::random_inter_stage_links(
                compiled.graph(),
                count,
                mix(base, 0xFA_0017 + count as u64),
            )?;
            compiled.network().compile_faults(&plan).map_err(String::from)
        })
        .collect::<Result<_, String>>()?;
    let results = run_plan(
        "degradation_curve",
        config_hash(
            "degradation_curve",
            exp,
            &format!(
                "load{:016x}/{fault_counts:?}/R{replications}",
                offered_load.to_bits()
            ),
            policy.retries,
        ),
        fault_counts.len() * replications,
        threads,
        policy,
        |t, attempt, st| {
            compiled.network().run(
                Traffic::Poisson(&workload),
                Some(&faulted[t / replications]),
                task_seed(base, t, attempt),
                st,
            )
        },
    )?;
    let keys = fault_counts.iter().map(|&count| (offered_load, count));
    Ok(fold_points(keys, replications, results))
}

// ---- configuration hash ----------------------------------------------

/// FNV-1a 64 over the campaign kind, the full `Experiment` (its `Debug`
/// form covers geometry, network, workload family, and the complete
/// `EngineConfig` including seed and budget), the point grid, and the
/// retry policy. Threads are deliberately excluded: values are
/// thread-count invariant.
pub(crate) fn config_hash(kind: &str, exp: &Experiment, params: &str, retries: u32) -> u64 {
    let s = format!("{kind}|{exp:?}|{params}|retries={retries}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- checkpoint file -------------------------------------------------

/// Current checkpoint format version (the header's `"v"`).
const CKPT_VERSION: u64 = 1;

/// A plan's results: `(outcome, attempts)` per task, `None` until run.
type Slots = Vec<Option<(PointOutcome, u32)>>;

/// Open (or create) the policy's checkpoint for a campaign of `total`
/// tasks, validating version, kind, and config hash: the [`Log`] finished
/// tasks are appended to (`None` when checkpointing is off; a live one
/// holds its file's lock, so a misconfigured second process fails fast
/// instead of interleaving lines), and the result slots [`run_plan`]
/// starts from — checkpointed tasks filled, the rest holes to run. A
/// task line that cannot be read, or names a task past `total`, is
/// skipped: that task runs again.
fn open_checkpoint(
    policy: &CampaignPolicy,
    kind: &str,
    hash: u64,
    total: usize,
) -> Result<(Option<Log>, Slots), String> {
    let mut slots: Slots = (0..total).map(|_| None).collect();
    let Some(path) = &policy.checkpoint else {
        return Ok((None, slots));
    };
    let shown = path.display();
    if policy.require_existing && path.metadata().is_ok_and(|m| m.len() == 0) {
        return Err(format!("checkpoint {shown}: empty file"));
    }
    if policy.require_existing && !path.exists() {
        return Err(format!(
            "resume: checkpoint {shown} does not exist \
             (use --checkpoint to start a new campaign)"
        ));
    }
    let hash_hex = format!("{hash:016x}");
    let header = format!(
        "{{\"v\":{CKPT_VERSION},\"kind\":\"{kind}\",\
         \"config_hash\":\"{hash_hex}\",\"total_tasks\":{total}}}"
    );
    let check_header = |head: &Obj<'_>| {
        jsonl::check_version(head, CKPT_VERSION)?;
        let file_kind = head.str("kind").ok_or("header has no kind")?;
        if file_kind != kind {
            return Err(format!(
                "holds a {file_kind} campaign; this run is a {kind} campaign"
            ));
        }
        let file_hash = head.str("config_hash").ok_or("header has no config_hash")?;
        if file_hash != hash_hex {
            return Err(format!(
                "config hash {file_hash} does not match this campaign \
                 ({hash_hex}) — the experiment, point grid, replication count, or retry \
                 policy changed; refusing to resume"
            ));
        }
        if head.u64("total_tasks") != Some(total as u64) {
            return Err("task count differs from this campaign; refusing to resume".into());
        }
        Ok(())
    };
    let (log, _unreadable) = Log::open("checkpoint", path, &header, check_header, |line| {
        let (task, outcome, attempts) = parse_task_line(line)?;
        *slots.get_mut(task)? = Some((outcome, attempts));
        Some(())
    })?;
    Ok((Some(log), slots))
}

/// Serialize one finished task as a checkpoint line (no newline).
pub(crate) fn task_line(task: usize, attempts: u32, outcome: &PointOutcome) -> Result<String, String> {
    let tag = outcome.tag();
    Ok(match outcome {
        PointOutcome::Ok(report) => format!(
            "{{\"task\":{task},\"attempts\":{attempts},\"outcome\":\"{tag}\",\"report\":{}}}",
            report_to_json(report)?
        ),
        PointOutcome::Partial { report, reason } => format!(
            "{{\"task\":{task},\"attempts\":{attempts},\"outcome\":\"{tag}\",\"report\":{},\
             \"reason\":\"{}\"}}",
            report_to_json(report)?,
            esc(reason)
        ),
        PointOutcome::Failed { reason } => format!(
            "{{\"task\":{task},\"attempts\":{attempts},\"outcome\":\"{tag}\",\"reason\":\"{}\"}}",
            esc(reason)
        ),
    })
}

/// Parse one checkpoint task line; `None` marks an unreadable line.
fn parse_task_line(line: &Obj<'_>) -> Option<(usize, PointOutcome, u32)> {
    let task = usize::try_from(line.u64("task")?).ok()?;
    let attempts = u32::try_from(line.u64("attempts")?).ok()?;
    let outcome = match line.str("outcome")?.as_str() {
        "ok" => PointOutcome::Ok(report_from_json(&line.obj("report")?)?),
        "partial" => PointOutcome::Partial {
            report: report_from_json(&line.obj("report")?)?,
            reason: line.str("reason")?,
        },
        "failed" => PointOutcome::Failed {
            reason: line.str("reason")?,
        },
        _ => return None,
    };
    Some((task, outcome, attempts))
}

/// Serialize a report for the checkpoint. Floats are written as their
/// `f64::to_bits` pattern in a quoted decimal — decimal formatting
/// would round-trip imprecisely and break the bitwise resume contract.
///
/// Refuses reports carrying `deliveries` or `trace` payloads: campaigns
/// run Poisson workloads where both are `None`, and silently dropping
/// them would make a resumed curve differ from an uninterrupted one.
fn report_to_json(r: &SimReport) -> Result<String, String> {
    if r.deliveries.is_some() || r.trace.is_some() {
        return Err(
            "checkpointing reports with deliveries or trace payloads is not supported"
                .to_string(),
        );
    }
    let mut s = format!(
        "{{\"cycles\":{},\"measured_cycles\":{},\"generated_packets\":{},\
         \"delivered_packets\":{},\"offered_bits\":\"{}\",\"accepted_bits\":\"{}\",\
         \"mean_latency_bits\":\"{}\",\"latency_ci95_bits\":\"{}\",\"p50\":{},\"p95\":{},\
         \"p99\":{},\"max_latency\":{},\"mean_queue_bits\":\"{}\",\"max_queue\":{},\
         \"sustainable\":{},\"steady\":{},\"in_flight_at_end\":{},\"aborted_packets\":{},\
         \"undeliverable_packets\":{}",
        r.cycles,
        r.measured_cycles,
        r.generated_packets,
        r.delivered_packets,
        r.offered_flits_per_node_cycle.to_bits(),
        r.accepted_flits_per_node_cycle.to_bits(),
        r.mean_latency_cycles.to_bits(),
        r.latency_ci95_cycles.to_bits(),
        r.p50_latency_cycles,
        r.p95_latency_cycles,
        r.p99_latency_cycles,
        r.max_latency_cycles,
        r.mean_queue.to_bits(),
        r.max_queue,
        r.sustainable,
        r.steady,
        r.in_flight_at_end,
        r.aborted_packets,
        r.undeliverable_packets,
    );
    if let Some(util) = &r.channel_utilization {
        s.push_str(",\"util_bits\":");
        jsonl::array(&mut s, util, |s, u| {
            let _ = write!(s, "\"{}\"", u.to_bits());
        });
    }
    s.push('}');
    Ok(s)
}

/// Rebuild a report from its checkpoint object. `None` marks a
/// malformed one.
fn report_from_json(r: &Obj<'_>) -> Option<SimReport> {
    Some(SimReport {
        cycles: r.u64("cycles")?,
        measured_cycles: r.u64("measured_cycles")?,
        generated_packets: r.u64("generated_packets")?,
        delivered_packets: r.u64("delivered_packets")?,
        offered_flits_per_node_cycle: r.bits("offered_bits")?,
        accepted_flits_per_node_cycle: r.bits("accepted_bits")?,
        mean_latency_cycles: r.bits("mean_latency_bits")?,
        latency_ci95_cycles: r.bits("latency_ci95_bits")?,
        p50_latency_cycles: r.u64("p50")?,
        p95_latency_cycles: r.u64("p95")?,
        p99_latency_cycles: r.u64("p99")?,
        max_latency_cycles: r.u64("max_latency")?,
        mean_queue: r.bits("mean_queue_bits")?,
        max_queue: usize::try_from(r.u64("max_queue")?).ok()?,
        sustainable: r.bool("sustainable")?,
        steady: r.bool("steady")?,
        in_flight_at_end: r.u64("in_flight_at_end")?,
        aborted_packets: r.u64("aborted_packets")?,
        undeliverable_packets: r.u64("undeliverable_packets")?,
        // Absent: the run kept no utilization. Present but unreadable:
        // the line is.
        channel_utilization: match r.raw("util_bits") {
            Some(_) => Some(r.bits_array("util_bits")?),
            None => None,
        },
        deliveries: None,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetworkSpec;
    use crate::sweep::{saturation_load, SweepPoint};
    use minnet_sim::RunBudget;
    use minnet_traffic::MessageSizeDist;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    fn quick() -> Experiment {
        let mut e = Experiment::paper_default(NetworkSpec::tmin());
        e.sizes = MessageSizeDist::Fixed(32);
        e.sim.warmup = 500;
        e.sim.measure = 4_000;
        e
    }

    /// A unique temp path per call (tests run in parallel).
    fn temp_ckpt(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "minnet_ckpt_{}_{tag}_{n}.jsonl",
            std::process::id()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    type Outcomes = Vec<(PointOutcome, u32)>;

    fn retrying(retries: u32) -> CampaignPolicy {
        CampaignPolicy {
            retries,
            ..CampaignPolicy::default()
        }
    }

    /// A bare `tasks`-task plan.
    fn plan(
        tasks: usize,
        threads: usize,
        policy: &CampaignPolicy,
        run: impl Fn(usize, u32, &mut EngineState) -> Result<SimReport, SimError> + Sync,
    ) -> Outcomes {
        run_plan("curve", 42, tasks, threads, policy, run).unwrap()
    }

    #[test]
    fn panicking_point_is_failed_not_abort() {
        // The PR-4-era sweep aborted the whole campaign on one panicking
        // worker (poisoned slot mutex). Now: the panic is contained, the
        // point reports Failed with the panic message, every other point
        // completes, and the retry budget is spent.
        let exp = quick();
        let compiled = exp.compile().unwrap();
        let results = plan(3, 3, &retrying(1), |i, attempt, st| {
            if i == 1 {
                panic!("injected failure at point {i} attempt {attempt}");
            }
            compiled.run(0.2, mix(7, i as u64 + 1), st)
        });
        assert!(matches!(results[0].0, PointOutcome::Ok(_)));
        assert!(matches!(results[2].0, PointOutcome::Ok(_)));
        let (outcome, attempts) = &results[1];
        let PointOutcome::Failed { reason } = outcome else {
            panic!("expected Failed, got {}", outcome.tag());
        };
        assert!(reason.contains("panic: injected failure"), "{reason}");
        assert_eq!(*attempts, 2, "one retry was configured and spent");
    }

    #[test]
    fn retry_recovers_a_transient_failure() {
        let exp = quick();
        let compiled = exp.compile().unwrap();
        let results = plan(1, 1, &retrying(2), |i, attempt, st| {
            if attempt == 0 {
                panic!("flaky first attempt");
            }
            compiled.run(0.2, task_seed(7, i, attempt), st)
        });
        assert!(matches!(results[0].0, PointOutcome::Ok(_)));
        assert_eq!(results[0].1, 2);
    }

    #[test]
    fn acceptance_scenario_panic_and_budget_in_one_campaign() {
        // The ISSUE's acceptance criterion: a campaign with an injected
        // panicking point and an over-budget point completes and reports
        // both outcomes per-point.
        let exp = quick();
        let compiled = exp.compile().unwrap();
        let mut budgeted = quick();
        budgeted.sim.budget = RunBudget {
            max_cycles: 1_500,
            max_wall_ms: 0,
        };
        let budgeted = budgeted.compile().unwrap();
        let results = plan(4, 2, &retrying(0), |i, _attempt, st| match i {
            1 => panic!("injected"),
            2 => budgeted.run(0.2, 99, st),
            _ => compiled.run(0.2, mix(7, i as u64 + 1), st),
        });
        let outcomes: Vec<&PointOutcome> = results.iter().map(|(o, _)| o).collect();
        assert!(matches!(outcomes[0], PointOutcome::Ok(_)));
        assert!(matches!(outcomes[3], PointOutcome::Ok(_)));
        assert!(matches!(outcomes[1], PointOutcome::Failed { .. }));
        assert!(outcomes[2].is_partial());
        let PointOutcome::Partial { report, reason } = outcomes[2] else {
            unreachable!()
        };
        assert_eq!(report.cycles, 1_500);
        assert!(reason.contains("budget"), "{reason}");
        assert_eq!(outcome_counts(outcomes), (2, 1, 1));
    }

    #[test]
    fn budget_cut_is_not_retried() {
        let mut exp = quick();
        exp.sim.budget = RunBudget {
            max_cycles: 1_200,
            max_wall_ms: 0,
        };
        let pts = campaign_curve(&exp, &[0.2], 1, &retrying(3)).unwrap();
        assert!(pts[0].outcome.is_partial());
        assert_eq!(pts[0].attempts, 1, "budget cuts must not burn retries");
    }

    #[test]
    fn report_round_trips_bitwise_through_json() {
        let mut exp = quick();
        exp.sim.collect_channel_util = true;
        let with_util = exp.run(0.3).unwrap();
        exp.sim.collect_channel_util = false;
        let without = exp.run(0.3).unwrap();
        for r in [with_util, without] {
            let json = report_to_json(&r).unwrap();
            let back = report_from_json(&Obj::parse(&json).unwrap()).unwrap();
            assert!(r.bitwise_eq(&back), "JSON round trip changed the report");
        }
    }

    #[test]
    fn reason_strings_round_trip_through_escaping() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1} end";
        let outcome = PointOutcome::Failed {
            reason: nasty.to_string(),
        };
        let line = task_line(3, 2, &outcome).unwrap();
        let (task, parsed, attempts) = parse_task_line(&Obj::parse(&line).unwrap()).unwrap();
        assert_eq!(task, 3);
        assert_eq!(attempts, 2);
        let PointOutcome::Failed { reason } = parsed else {
            panic!("wrong outcome kind");
        };
        assert_eq!(reason, nasty);
    }

    #[test]
    fn checkpoint_resume_skips_completed_tasks_and_is_bitwise_identical() {
        let exp = quick();
        let loads = [0.1, 0.3, 0.5];
        let path = temp_ckpt("resume");
        let _cleanup = Cleanup(path.clone());
        let reference = campaign_curve(&exp, &loads, 2, &CampaignPolicy::default()).unwrap();

        let policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            ..CampaignPolicy::default()
        };
        let first = campaign_curve(&exp, &loads, 2, &policy).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        assert_eq!(full.lines().count(), 1 + loads.len());

        // Truncate to header + one completed task: a simulated kill.
        let keep: String = full.split_inclusive('\n').take(2).collect();
        std::fs::write(&path, keep).unwrap();
        let resume_policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            require_existing: true,
            ..CampaignPolicy::default()
        };
        let resumed = campaign_curve(&exp, &loads, 2, &resume_policy).unwrap();
        for ((a, b), c) in reference.iter().zip(&first).zip(&resumed) {
            let r = a.outcome.ok_report().unwrap();
            assert!(r.bitwise_eq(b.outcome.ok_report().unwrap()));
            assert!(r.bitwise_eq(c.outcome.ok_report().unwrap()));
        }
        // The resumed run refilled the file to completeness.
        let refilled = std::fs::read_to_string(&path).unwrap();
        assert_eq!(refilled.lines().count(), 1 + loads.len());
    }

    #[test]
    fn torn_tail_line_is_dropped_and_rerun() {
        let exp = quick();
        let loads = [0.1, 0.3];
        let path = temp_ckpt("torn");
        let _cleanup = Cleanup(path.clone());
        let policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            ..CampaignPolicy::default()
        };
        let reference = campaign_curve(&exp, &loads, 1, &policy).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        // Keep the header + first task, then a torn half-line (no \n).
        let mut torn: String = full.split_inclusive('\n').take(2).collect();
        torn.push_str("{\"task\":1,\"attempts\":1,\"outco");
        std::fs::write(&path, torn).unwrap();
        let resumed = campaign_curve(&exp, &loads, 1, &policy).unwrap();
        for (a, b) in reference.iter().zip(&resumed) {
            assert!(a
                .outcome
                .ok_report()
                .unwrap()
                .bitwise_eq(b.outcome.ok_report().unwrap()));
        }
    }

    #[test]
    fn mismatched_config_hash_is_refused() {
        let exp = quick();
        let loads = [0.1, 0.3];
        let path = temp_ckpt("hash");
        let _cleanup = Cleanup(path.clone());
        let policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            ..CampaignPolicy::default()
        };
        campaign_curve(&exp, &loads, 1, &policy).unwrap();

        let mut other = quick();
        other.sim.seed ^= 1;
        let err = campaign_curve(&other, &loads, 1, &policy).unwrap_err();
        assert!(err.contains("config hash"), "unhelpful refusal: {err}");
        assert!(err.contains("refusing to resume"), "{err}");

        // A different load grid is likewise refused.
        let err = campaign_curve(&exp, &[0.1, 0.35], 1, &policy).unwrap_err();
        assert!(err.contains("config hash"), "{err}");
    }

    #[test]
    fn concurrent_checkpoint_writer_is_refused() {
        // Regression: the JSONL appender assumes a single process. A
        // second open of a live checkpoint must fail fast on the
        // advisory lock, not interleave writes; releasing the first
        // owner unblocks the second.
        let path = temp_ckpt("lock");
        let _cleanup = Cleanup(path.clone());
        let policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            ..CampaignPolicy::default()
        };
        let first = open_checkpoint(&policy, "curve", 7, 2).unwrap();
        let held = std::fs::read(&path).unwrap();
        let Err(err) = open_checkpoint(&policy, "curve", 7, 2) else {
            panic!("second writer must be refused");
        };
        assert!(err.contains("is locked by another live process"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), held, "the refused writer touched the file");
        drop(first);
        let again = open_checkpoint(&policy, "curve", 7, 2).unwrap();
        drop(again);
    }

    #[test]
    fn resume_without_checkpoint_file_is_refused() {
        let exp = quick();
        let path = temp_ckpt("missing");
        let policy = CampaignPolicy {
            checkpoint: Some(path),
            require_existing: true,
            ..CampaignPolicy::default()
        };
        let err = campaign_curve(&exp, &[0.2], 1, &policy).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn failed_points_are_checkpointed_and_not_rerun() {
        // A Failed outcome is a completed task: resuming must reuse it,
        // not retry it (retry budgets are per-process-run).
        let exp = quick();
        let compiled = exp.compile().unwrap();
        let path = temp_ckpt("failedpt");
        let _cleanup = Cleanup(path.clone());
        let policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            ..CampaignPolicy::default()
        };
        let results = plan(2, 1, &policy, |i, _, st| {
            if i == 0 {
                panic!("boom");
            }
            compiled.run(0.2, 5, st)
        });
        assert!(matches!(results[0].0, PointOutcome::Failed { .. }));

        let resumed = plan(2, 1, &policy, |_, _, _| {
            panic!("nothing should run on a complete checkpoint")
        });
        assert!(matches!(resumed[0].0, PointOutcome::Failed { .. }));
        let (first, again) = (results[1].0.ok_report(), resumed[1].0.ok_report());
        assert!(first.unwrap().bitwise_eq(again.unwrap()));
    }

    #[test]
    fn replicated_campaign_aggregates_ok_subset() {
        let exp = quick();
        let pts =
            campaign_replicated_curve(&exp, &[0.2], 3, 2, &CampaignPolicy::default()).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].outcomes.len(), 3);
        assert!(pts[0].outcomes.iter().all(|o| matches!(o, PointOutcome::Ok(_))));
        // A replicated curve is the fault-free degradation point.
        assert_eq!(pts[0].fault_count, 0);
        let stats = pts[0].ok_stats.as_ref().unwrap();
        assert_eq!(stats.replications.len(), 3);
        assert_eq!(stats.mean_aborted_packets, 0.0);
        assert_eq!(stats.mean_undeliverable_packets, 0.0);
        // Each replication is a pool task on its grid seed.
        let compiled = exp.compile().unwrap();
        for (r, rep) in stats.replications.iter().enumerate() {
            let seed = task_seed(exp.sim.seed, r, 0);
            let direct = compiled.run(0.2, seed, &mut EngineState::new()).unwrap();
            assert!(rep.bitwise_eq(&direct), "replication {r} diverged");
        }
    }

    #[test]
    fn saturation_excludes_partial_points() {
        // Build a curve where the highest-throughput point is Partial
        // (budget-truncated past the knee): the completed collapse the
        // CLI feeds `saturation_load` must never let it be crowned.
        let exp = quick();
        let base = exp.run(0.2).unwrap();
        let mut fat = base.clone();
        fat.accepted_flits_per_node_cycle = base.accepted_flits_per_node_cycle * 2.0;
        fat.sustainable = true;
        fat.steady = true;
        let outcomes = [
            (0.2, PointOutcome::Ok(base)),
            (
                0.8,
                PointOutcome::Partial {
                    report: fat,
                    reason: "budget".into(),
                },
            ),
            (
                1.2,
                PointOutcome::Failed {
                    reason: "panic".into(),
                },
            ),
        ];
        let completed = |outcomes: &[(f64, PointOutcome)]| -> Vec<SweepPoint> {
            outcomes
                .iter()
                .filter_map(|(offered, o)| {
                    o.ok_report().map(|r| SweepPoint {
                        offered: *offered,
                        report: r.clone(),
                    })
                })
                .collect()
        };
        let all = completed(&outcomes);
        let sat = saturation_load(&all).unwrap();
        assert_eq!(sat.offered, 0.2, "Partial/Failed must never win");
        assert!(saturation_load(&completed(&outcomes[1..])).is_none());
    }

    // ---- one worker is the calling thread -----------------------------

    #[test]
    fn one_worker_plan_runs_on_the_calling_thread() {
        let compiled = quick().compile().unwrap();
        let caller = std::thread::current().id();
        let ran_on_caller = |tasks: usize, threads: usize| -> Vec<bool> {
            let seen = Mutex::new(Vec::new());
            plan(tasks, threads, &retrying(0), |i, _, st| {
                seen.lock().unwrap().push(std::thread::current().id() == caller);
                compiled.run(0.1, task_seed(7, i, 0), st)
            });
            seen.into_inner().unwrap()
        };
        assert_eq!(ran_on_caller(3, 1), [true; 3]);
        assert_eq!(ran_on_caller(1, 4), [true], "one unit of work is one worker");
        assert_eq!(ran_on_caller(3, 2), [false; 3]);
    }

    /// The plain grid's report for `(task, attempt)` at load 0.2 on base
    /// seed 7.
    fn scalar(task: usize, attempt: u32) -> SimReport {
        let seed = task_seed(7, task, attempt);
        quick().compile().unwrap().run(0.2, seed, &mut EngineState::new()).unwrap()
    }

    #[test]
    fn panic_on_the_calling_thread_fails_its_point_only() {
        let compiled = quick().compile().unwrap();
        let caller = std::thread::current().id();
        let results = plan(3, 1, &retrying(0), |i, _, st| {
            if i == 1 {
                assert_eq!(std::thread::current().id(), caller);
                panic!("injected on the caller");
            }
            compiled.run(0.2, task_seed(7, i, 0), st)
        });
        assert!(matches!(results[1].0, PointOutcome::Failed { .. }));
        // The point after the panic ran on a fresh state, to the same bits.
        for t in [0, 2] {
            assert!(results[t].0.ok_report().unwrap().bitwise_eq(&scalar(t, 0)));
        }
    }

    #[test]
    fn thread_count_changes_no_outcome_attempt_or_checkpoint_line() {
        // Task 1 panics every time, task 2 is cut by its budget, task 3
        // fails once and is retried; 0 and 4 just run.
        let compiled = quick().compile().unwrap();
        let mut budgeted = quick();
        budgeted.sim.budget.max_cycles = 1_500;
        let budgeted = budgeted.compile().unwrap();
        let run_on = |threads: usize| -> (Vec<String>, String) {
            let path = temp_ckpt("threads");
            let _cleanup = Cleanup(path.clone());
            let policy = CampaignPolicy {
                retries: 1,
                checkpoint: Some(path.clone()),
                ..CampaignPolicy::default()
            };
            let results = plan(5, threads, &policy, |i, attempt, st| match (i, attempt) {
                (1, _) => panic!("always"),
                (2, _) => budgeted.run(0.2, task_seed(7, i, attempt), st),
                (3, 0) => Err(SimError::Config("first attempt".into())),
                _ => compiled.run(0.2, task_seed(7, i, attempt), st),
            });
            let lines = results
                .iter()
                .enumerate()
                .map(|(t, (outcome, attempts))| task_line(t, *attempts, outcome).unwrap() + "\n")
                .collect();
            (lines, std::fs::read_to_string(&path).unwrap())
        };
        let (lines, file) = run_on(1);
        let parsed: Vec<Obj<'_>> = lines.iter().map(|l| Obj::parse(l).unwrap()).collect();
        let tags: Vec<String> = parsed.iter().map(|l| l.str("outcome").unwrap()).collect();
        assert_eq!(tags, ["ok", "failed", "partial", "ok", "ok"]);
        let attempts: Vec<u64> = parsed.iter().map(|l| l.u64("attempts").unwrap()).collect();
        assert_eq!(attempts, [1, 2, 1, 2, 1]);
        // One worker appends in task order: the file is header + lines.
        let header = file.split_inclusive('\n').next().unwrap();
        assert_eq!(file, format!("{header}{}", lines.concat()));
        for threads in [2, 4] {
            let (pooled, pooled_file) = run_on(threads);
            assert_eq!(pooled, lines, "threads = {threads}");
            // A pool appends in completion order: same lines, any order.
            let mut appended: Vec<&str> = pooled_file.split_inclusive('\n').skip(1).collect();
            appended.sort_unstable_by_key(|l| Obj::parse(l).unwrap().u64("task"));
            assert_eq!(appended.concat(), lines.concat(), "threads = {threads}");
            assert!(pooled_file.starts_with(header));
        }
    }

    #[test]
    fn one_worker_checkpoint_holds_task_i_before_task_i_plus_one_starts() {
        // The flush-per-task contract kill-and-resume relies on: a kill
        // during task i + 1 finds tasks 0..=i on disk.
        let compiled = quick().compile().unwrap();
        let path = temp_ckpt("flush");
        let _cleanup = Cleanup(path.clone());
        let policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            ..CampaignPolicy::default()
        };
        let results = plan(4, 1, &policy, |i, _, st| {
            let on_disk = std::fs::read_to_string(&path).unwrap();
            assert!(on_disk.ends_with('\n'), "torn line before task {i}");
            let task = |l| Obj::parse(l).unwrap().u64("task").unwrap();
            let tasks: Vec<u64> = on_disk.lines().skip(1).map(task).collect();
            assert_eq!(tasks, (0..i as u64).collect::<Vec<_>>(), "before task {i}");
            compiled.run(0.1, task_seed(7, i, 0), st)
        });
        // An assertion that failed inside `run` would be a Failed point.
        assert!(results.iter().all(|(outcome, _)| matches!(outcome, PointOutcome::Ok(_))));
    }

    #[test]
    fn invalid_load_fails_every_lane_of_its_point_only() {
        let pts = campaign_replicated_curve(&quick(), &[0.2, -1.0], 3, 2, &retrying(2)).unwrap();
        assert!(pts[0].outcomes.iter().all(|o| matches!(o, PointOutcome::Ok(_))));
        assert_eq!(pts[0].attempts, [1, 1, 1]);
        assert!(pts[1].outcomes.iter().all(|o| matches!(o, PointOutcome::Failed { .. })));
        assert_eq!(pts[1].attempts, [3, 3, 3], "attempts == retries + 1");
        assert!(pts[1].ok_stats.is_none());
    }

    #[test]
    fn parent_written_checkpoint_resumes_only_its_holes_bitwise() {
        // Written by the commit before the one-runner refactor: tasks 3,
        // 1, 5 of a 2-load × 3-replication grid, i.e. some replications of
        // each point. Identity v1 must still accept it, only the holes may
        // run, and the curve must equal the uninterrupted one.
        let path = temp_ckpt("parent");
        let _cleanup = Cleanup(path.clone());
        let fixture = include_str!("../tests/fixtures/replicated_curve_v1.ckpt.jsonl");
        std::fs::write(&path, fixture).unwrap();
        let policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            require_existing: true,
            ..CampaignPolicy::default()
        };
        let loads = [0.1, 0.3];
        let resumed = campaign_replicated_curve(&quick(), &loads, 3, 2, &policy).unwrap();
        let whole =
            campaign_replicated_curve(&quick(), &loads, 3, 2, &CampaignPolicy::default()).unwrap();
        for (r, w) in resumed.iter().zip(&whole) {
            for (a, b) in r.outcomes.iter().zip(&w.outcomes) {
                assert!(a.ok_report().unwrap().bitwise_eq(b.ok_report().unwrap()));
            }
        }
        let refilled = std::fs::read_to_string(&path).unwrap();
        assert!(refilled.starts_with(fixture), "resume must only append");
        let mut appended: Vec<u64> = refilled[fixture.len()..]
            .lines()
            .map(|l| Obj::parse(l).unwrap().u64("task").unwrap())
            .collect();
        appended.sort_unstable();
        assert_eq!(appended, [0, 2, 4], "exactly the holes ran, once each");
    }
}
