//! The experiment runner: every curve, scenario and daemon job is a
//! *plan* run by one worker pool, one attempt ladder and one checkpoint.
//!
//! Every §5 figure is the same shape — one network × workload evaluated
//! over a grid of loads, replications or fault counts — and a long
//! campaign of them must survive a bad point and a killed process. A
//! plan is a checkpoint kind, an identity-v1 hash, a task count and a
//! per-task closure; `run_plan` is the only code that executes one.
//! [`campaign_curve`], [`campaign_replicated_curve`] and
//! [`campaign_degradation_curve`] (and, from their own modules,
//! `Scenario::run` and `service::run_job`) each build the plan, supply
//! the closure and fold the outcomes. The strict surface in
//! [`crate::sweep`] is the same call under the default policy with the
//! outcomes collapsed, not a second path.
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
//!   set, every finished task is appended — `write`+`flush`, one JSON
//!   line each — to a versioned JSONL file keyed by a hash of the full
//!   campaign configuration. Resuming loads completed tasks and only
//!   runs the rest; because per-task seeds are independent of both the
//!   schedule and the thread count, and floats are checkpointed as
//!   `f64::to_bits` patterns, a resumed curve is **bitwise identical**
//!   to an uninterrupted one (pinned by the workspace proptests). A
//!   SIGKILL can at worst tear the final line; the loader stops at the
//!   first unparsable line and drops the torn tail before appending.
//!
//! Budget semantics vs the watchdog: the no-progress watchdog (PR 4)
//! catches *wedged* networks — zero flit movement with packets active —
//! while [`minnet_sim::RunBudget`] catches *legitimate but unbounded*
//! work (a run pushed past saturation whose wall time explodes). A
//! watchdog trip is a `Failed` outcome (the run's numbers are
//! meaningless); a budget cut is `Partial` (the numbers are a valid
//! truncated sample).

use crate::experiment::Experiment;
use crate::lockfile::LockFile;
use crate::sweep::{
    aggregate_degradation, aggregate_replicated, mix, DegradationPoint, ReplicatedPoint,
};
use minnet_sim::{EngineState, LockstepState, SimError, SimReport};
use minnet_topology::FaultPlan;
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

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

    /// Whether the run completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, PointOutcome::Ok(_))
    }

    /// Whether a budget cut the run short.
    pub fn is_partial(&self) -> bool {
        matches!(self, PointOutcome::Partial { .. })
    }

    /// Whether the run produced no usable statistics.
    pub fn is_failed(&self) -> bool {
        matches!(self, PointOutcome::Failed { .. })
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
    /// No retries, no checkpoint — isolation only.
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

/// One annotated point of a [`campaign_replicated_curve`]: every
/// replication's outcome, plus the usual across-replication aggregate
/// over the replications that completed normally.
#[derive(Clone, Debug)]
pub struct ReplicatedCampaignPoint {
    /// Nominal offered load (flits/cycle/node).
    pub offered: f64,
    /// Per-replication outcomes, in replication order.
    pub outcomes: Vec<PointOutcome>,
    /// Per-replication attempt counts, in replication order.
    pub attempts: Vec<u32>,
    /// Aggregate over the `Ok` replications — `None` when none
    /// completed. Partial reports are *excluded*: a truncated sample
    /// would bias the across-replication confidence intervals.
    pub ok_stats: Option<ReplicatedPoint>,
}

/// One annotated point of a [`campaign_degradation_curve`].
#[derive(Clone, Debug)]
pub struct DegradationCampaignPoint {
    /// Number of inter-stage links killed for this point.
    pub fault_count: usize,
    /// Per-replication outcomes, in replication order.
    pub outcomes: Vec<PointOutcome>,
    /// Per-replication attempt counts, in replication order.
    pub attempts: Vec<u32>,
    /// Aggregate over the `Ok` replications — `None` when none
    /// completed (see [`ReplicatedCampaignPoint::ok_stats`]).
    pub ok_stats: Option<DegradationPoint>,
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

/// Extract a human-readable message from a caught panic payload.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
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
/// `Failed`. `spent` is an attempt 0 somebody else already ran (a
/// fleet lane's result); `None` starts by running attempt 0 here.
/// Returns the outcome and the attempts it took.
fn attempt_ladder(
    task: usize,
    mut spent: Option<Result<SimReport, SimError>>,
    retries: u32,
    run: &impl Fn(usize, u32, &mut EngineState) -> Result<SimReport, SimError>,
    st: &mut EngineState,
) -> (PointOutcome, u32) {
    let mut attempt = 0u32;
    loop {
        let res = match spent.take() {
            Some(res) => Ok(res),
            None => catch_unwind(AssertUnwindSafe(|| run(task, attempt, st))),
        };
        let reason = match res {
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

/// A plan's optional per-point prologue: given the still-missing tasks
/// of one point, a lane-thread allowance and the worker's
/// [`LockstepState`], run them together — one result per task, in
/// order — as attempt 0 on their grid seeds.
pub(crate) type FleetRun<'a> =
    &'a (dyn Fn(&[usize], usize, &mut LockstepState) -> Vec<Result<SimReport, SimError>> + Sync);

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
///
/// With `fleet = Some((lanes, prologue))` the unit of work widens from
/// a task to a *point* — `lanes` consecutive tasks. A worker claims a
/// point's missing tasks, lets the prologue run them as one lockstep
/// fleet (attempt 0 of every lane) and hands each lane's result to the
/// ladder; a lane that failed in the fleet thus retries scalar from
/// attempt 1. A prologue panic discards the worker's `LockstepState`
/// and sends every missing lane down the ladder from attempt 0, where
/// innocent lanes reproduce their fleet report bit-identically and the
/// guilty one re-fails and spends its retries. Workers go to points
/// first; threads left over (`threads / points`) go to each fleet as
/// lane-block threads, so total concurrency stays within the request.
pub(crate) fn run_plan(
    kind: &str,
    hash: u64,
    tasks: usize,
    threads: usize,
    policy: &CampaignPolicy,
    run: impl Fn(usize, u32, &mut EngineState) -> Result<SimReport, SimError> + Sync,
    fleet: Option<(usize, FleetRun<'_>)>,
) -> Result<Vec<(PointOutcome, u32)>, String> {
    let mut ckpt = Checkpoint::open(policy, kind, hash, tasks)?;
    let mut results = ckpt.preloaded(tasks);
    let width = fleet.map_or(1, |(lanes, _)| lanes);
    let pending: Vec<Vec<usize>> = (0..tasks)
        .step_by(width)
        .map(|first| {
            (first..first + width)
                .filter(|&t| results[t].is_none())
                .collect::<Vec<usize>>()
        })
        .filter(|unit| !unit.is_empty())
        .collect();
    if !pending.is_empty() {
        let workers = threads.clamp(1, pending.len());
        let fleet_threads = (threads / pending.len()).max(1);
        let cursor = AtomicUsize::new(0);
        // The one worker loop: claim units off the cursor until they run
        // out or `sink` says nobody is listening.
        let worker = |sink: &mut dyn FnMut(usize, PointOutcome, u32) -> bool| {
            let mut st = EngineState::new();
            let mut ls = LockstepState::new();
            loop {
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = pending.get(slot) else { break };
                let mut spent = Vec::new();
                if let Some((_, prologue)) = fleet {
                    let ran = AssertUnwindSafe(|| prologue(unit, fleet_threads, &mut ls));
                    match catch_unwind(ran) {
                        Ok(lanes) => spent = lanes,
                        // The pool may hold half-mutated states.
                        Err(_) => ls = LockstepState::new(),
                    }
                }
                let mut spent = spent.into_iter();
                for &t in unit {
                    let (outcome, attempts) =
                        attempt_ladder(t, spent.next(), policy.retries, &run, &mut st);
                    if !sink(t, outcome, attempts) {
                        return;
                    }
                }
            }
        };
        // On a checkpoint write error keep going (a pool's workers must
        // finish) but remember the first failure.
        let mut io_err: Option<String> = None;
        let mut record = |t: usize, outcome: PointOutcome, attempts: u32| {
            if io_err.is_none() {
                io_err = ckpt.append(t, attempts, &outcome).err();
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

/// Fold a replicated grid's task-ordered results into one annotated
/// point per key: `lanes` consecutive results each, split into outcomes
/// and attempts, plus the reports of the `Ok` lanes (`None` when no
/// lane completed) for the caller's aggregate.
fn fold_points<K: Copy, P>(
    keys: &[K],
    lanes: usize,
    results: Vec<(PointOutcome, u32)>,
    point: impl Fn(K, Vec<PointOutcome>, Vec<u32>, Option<Vec<SimReport>>) -> P,
) -> Vec<P> {
    let mut results = results.into_iter();
    keys.iter()
        .map(|&key| {
            let (outcomes, attempts): (Vec<PointOutcome>, Vec<u32>) =
                results.by_ref().take(lanes).unzip();
            let ok: Vec<SimReport> = outcomes
                .iter()
                .filter_map(|o| o.ok_report().cloned())
                .collect();
            point(key, outcomes, attempts, (!ok.is_empty()).then_some(ok))
        })
        .collect()
}

// ---- campaigns -------------------------------------------------------

/// One task per load, per-point outcomes, optional retries and
/// checkpointing. Task `i` runs on `mix(base, i + 1)`, so every `Ok`
/// report is bit-identical to [`Experiment::run_seeded`] at that seed;
/// [`crate::latency_throughput_curve`] is this function under the
/// default policy, collapsed to the strict surface.
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
    let compiled = exp.compile()?;
    let base = compiled.base_seed();
    let results = run_plan(
        "curve",
        config_hash("curve", exp, &format!("{loads:?}"), policy.retries),
        loads.len(),
        threads,
        policy,
        |i, attempt, st| compiled.run_typed(loads[i], task_seed(base, i, attempt), st),
        None,
    )?;
    Ok(loads
        .iter()
        .zip(results)
        .map(|(&offered, (outcome, attempts))| CampaignPoint {
            offered,
            outcome,
            attempts,
        })
        .collect())
}

/// `replications` independent seeded runs per load over the whole
/// `(point, replication)` grid. Task `(i, r)` runs on
/// `mix(base, i·R + r + 1)` — for `R = 1` exactly the seeds (hence
/// bit-exactly the reports) of [`campaign_curve`].
///
/// `R > 1` replications of a budget-free experiment run as lockstep
/// fleets, one per load point (the `run_plan` prologue); budget-armed
/// configurations keep the per-task grid, because per-run budget
/// accounting cannot be reproduced under a shared fleet clock. Both use
/// the same task seeds and lanes never exchange information, so the
/// choice — and a resumed point's fleet covering only its checkpoint
/// holes — never changes a bit of any `Ok` report.
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
    let fleet = |tasks: &[usize], fleet_threads: usize, ls: &mut LockstepState| {
        // A per-load configuration error fails every lane alike; the
        // ladder's scalar retries then re-derive it per lane.
        let load = loads[tasks[0] / replications];
        let workload = match compiled.template().workload_at(load) {
            Ok(w) => w,
            Err(e) => return vec![Err(SimError::Config(e)); tasks.len()],
        };
        let seeds: Vec<u64> = tasks.iter().map(|&t| task_seed(base, t, 0)).collect();
        compiled
            .network()
            .run_poisson_lockstep(&workload, &seeds, fleet_threads, ls)
    };
    let lockstep = replications > 1 && compiled.network().lockstep_eligible();
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
            compiled.run_typed(loads[t / replications], task_seed(base, t, attempt), st)
        },
        lockstep.then_some((replications, &fleet as FleetRun<'_>)),
    )?;
    Ok(fold_points(
        loads,
        replications,
        results,
        |offered, outcomes, attempts, ok| ReplicatedCampaignPoint {
            offered,
            outcomes,
            attempts,
            ok_stats: ok.map(|reps| aggregate_replicated(offered, reps)),
        },
    ))
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
) -> Result<Vec<DegradationCampaignPoint>, String> {
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
            compiled.network().run_poisson_faulted(
                &workload,
                Some(&faulted[t / replications]),
                task_seed(base, t, attempt),
                st,
            )
        },
        None,
    )?;
    Ok(fold_points(
        fault_counts,
        replications,
        results,
        |fault_count, outcomes, attempts, ok| DegradationCampaignPoint {
            fault_count,
            outcomes,
            attempts,
            ok_stats: ok.map(|reps| aggregate_degradation(fault_count, reps)),
        },
    ))
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

/// An open campaign checkpoint: previously completed tasks plus an
/// append handle. `file == None` means checkpointing is off and every
/// method is a no-op. A live checkpoint holds the advisory
/// [`LockFile`] guarding its path — the JSONL appender assumes a
/// single writer, and the lock turns a misconfigured second process
/// into a fast, explicit error instead of interleaved lines.
struct Checkpoint {
    file: Option<std::fs::File>,
    loaded: BTreeMap<usize, (PointOutcome, u32)>,
    _lock: Option<LockFile>,
}

impl Checkpoint {
    /// Open (or create) the policy's checkpoint for a campaign of
    /// `total` tasks, validating version, kind, and config hash.
    fn open(
        policy: &CampaignPolicy,
        kind: &str,
        hash: u64,
        total: usize,
    ) -> Result<Checkpoint, String> {
        let Some(path) = &policy.checkpoint else {
            return Ok(Checkpoint {
                file: None,
                loaded: BTreeMap::new(),
                _lock: None,
            });
        };
        let lock = LockFile::acquire(path)?;
        let hash_hex = format!("{hash:016x}");
        let shown = path.display();
        if !path.exists() {
            if policy.require_existing {
                return Err(format!(
                    "resume: checkpoint {shown} does not exist \
                     (use --checkpoint to start a new campaign)"
                ));
            }
            let mut f = std::fs::OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("creating checkpoint {shown}: {e}"))?;
            let header = format!(
                "{{\"v\":{CKPT_VERSION},\"kind\":\"{kind}\",\
                 \"config_hash\":\"{hash_hex}\",\"total_tasks\":{total}}}\n"
            );
            f.write_all(header.as_bytes())
                .and_then(|()| f.flush())
                .map_err(|e| format!("writing checkpoint {shown}: {e}"))?;
            return Ok(Checkpoint {
                file: Some(f),
                loaded: BTreeMap::new(),
                _lock: Some(lock),
            });
        }

        let content = std::fs::read_to_string(path)
            .map_err(|e| format!("reading checkpoint {shown}: {e}"))?;
        let mut lines = content.split_inclusive('\n');
        let header = lines
            .next()
            .ok_or_else(|| format!("checkpoint {shown}: empty file"))?;
        if !header.ends_with('\n') {
            return Err(format!("checkpoint {shown}: torn header line"));
        }
        let ht = header.trim();
        match json_u64(ht, "v") {
            Some(CKPT_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "checkpoint {shown}: unsupported version {v} (this build reads {CKPT_VERSION})"
                ))
            }
            None => return Err(format!("checkpoint {shown}: malformed header")),
        }
        let file_kind = json_str(ht, "kind")
            .ok_or_else(|| format!("checkpoint {shown}: header has no kind"))?;
        if file_kind != kind {
            return Err(format!(
                "checkpoint {shown} holds a {file_kind} campaign; this run is a {kind} campaign"
            ));
        }
        let file_hash = json_str(ht, "config_hash")
            .ok_or_else(|| format!("checkpoint {shown}: header has no config_hash"))?;
        if file_hash != hash_hex {
            return Err(format!(
                "checkpoint {shown}: config hash {file_hash} does not match this campaign \
                 ({hash_hex}) — the experiment, point grid, replication count, or retry \
                 policy changed; refusing to resume"
            ));
        }
        if json_u64(ht, "total_tasks") != Some(total as u64) {
            return Err(format!(
                "checkpoint {shown}: task count differs from this campaign; refusing to resume"
            ));
        }

        let mut loaded = BTreeMap::new();
        let mut good_len = header.len();
        for line in lines {
            // A SIGKILL can tear at most the final line: stop at the
            // first incomplete or unparsable one and drop that tail.
            if !line.ends_with('\n') {
                break;
            }
            let t = line.trim();
            if !t.is_empty() {
                let Some((task, outcome, attempts)) = parse_task_line(t) else {
                    break;
                };
                if task >= total {
                    break;
                }
                loaded.insert(task, (outcome, attempts));
            }
            good_len += line.len();
        }
        if good_len < content.len() {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| format!("opening checkpoint {shown}: {e}"))?;
            f.set_len(good_len as u64)
                .map_err(|e| format!("dropping torn tail of checkpoint {shown}: {e}"))?;
        }
        let f = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("opening checkpoint {shown}: {e}"))?;
        Ok(Checkpoint {
            file: Some(f),
            loaded,
            _lock: Some(lock),
        })
    }

    /// The pre-filled result vector [`run_plan`] starts from:
    /// checkpointed tasks as `Some`, everything else as holes to run.
    fn preloaded(&mut self, total: usize) -> Vec<Option<(PointOutcome, u32)>> {
        let mut v: Vec<Option<(PointOutcome, u32)>> = (0..total).map(|_| None).collect();
        for (task, entry) in std::mem::take(&mut self.loaded) {
            v[task] = Some(entry);
        }
        v
    }

    /// Append one finished task — one line, written and flushed whole,
    /// so a kill between tasks never tears more than the line in
    /// flight.
    fn append(&mut self, task: usize, attempts: u32, outcome: &PointOutcome) -> Result<(), String> {
        let Some(f) = &mut self.file else {
            return Ok(());
        };
        let line = task_line(task, attempts, outcome)?;
        f.write_all(line.as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| e.to_string())
    }
}

/// Serialize one finished task as a checkpoint line (newline included).
pub(crate) fn task_line(task: usize, attempts: u32, outcome: &PointOutcome) -> Result<String, String> {
    let tag = outcome.tag();
    Ok(match outcome {
        PointOutcome::Ok(report) => format!(
            "{{\"task\":{task},\"attempts\":{attempts},\"outcome\":\"{tag}\",\"report\":{}}}\n",
            report_to_json(report)?
        ),
        PointOutcome::Partial { report, reason } => format!(
            "{{\"task\":{task},\"attempts\":{attempts},\"outcome\":\"{tag}\",\"report\":{},\
             \"reason\":\"{}\"}}\n",
            report_to_json(report)?,
            esc(reason)
        ),
        PointOutcome::Failed { reason } => format!(
            "{{\"task\":{task},\"attempts\":{attempts},\"outcome\":\"{tag}\",\"reason\":\"{}\"}}\n",
            esc(reason)
        ),
    })
}

/// Parse one checkpoint task line; `None` marks a torn/alien line.
fn parse_task_line(line: &str) -> Option<(usize, PointOutcome, u32)> {
    let task = json_u64(line, "task")? as usize;
    let attempts = json_u64(line, "attempts")? as u32;
    let outcome = match json_str(line, "outcome")?.as_str() {
        "ok" => PointOutcome::Ok(report_from_json(line)?),
        "partial" => PointOutcome::Partial {
            report: report_from_json(line)?,
            reason: json_str(line, "reason")?,
        },
        "failed" => PointOutcome::Failed {
            reason: json_str(line, "reason")?,
        },
        _ => return None,
    };
    Some((task, outcome, attempts))
}

// ---- hand-rolled JSON (this offline workspace has no serde) ----------

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
        s.push_str(",\"util_bits\":[");
        for (i, u) in util.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(&u.to_bits().to_string());
            s.push('"');
        }
        s.push(']');
    }
    s.push('}');
    Ok(s)
}

/// Rebuild a report from a checkpoint line (flat key scan — every key
/// is unique within a line). `None` marks a torn/malformed line.
fn report_from_json(line: &str) -> Option<SimReport> {
    Some(SimReport {
        cycles: json_u64(line, "cycles")?,
        measured_cycles: json_u64(line, "measured_cycles")?,
        generated_packets: json_u64(line, "generated_packets")?,
        delivered_packets: json_u64(line, "delivered_packets")?,
        offered_flits_per_node_cycle: json_bits(line, "offered_bits")?,
        accepted_flits_per_node_cycle: json_bits(line, "accepted_bits")?,
        mean_latency_cycles: json_bits(line, "mean_latency_bits")?,
        latency_ci95_cycles: json_bits(line, "latency_ci95_bits")?,
        p50_latency_cycles: json_u64(line, "p50")?,
        p95_latency_cycles: json_u64(line, "p95")?,
        p99_latency_cycles: json_u64(line, "p99")?,
        max_latency_cycles: json_u64(line, "max_latency")?,
        mean_queue: json_bits(line, "mean_queue_bits")?,
        max_queue: json_u64(line, "max_queue")? as usize,
        sustainable: json_bool(line, "sustainable")?,
        steady: json_bool(line, "steady")?,
        in_flight_at_end: json_u64(line, "in_flight_at_end")?,
        aborted_packets: json_u64(line, "aborted_packets")?,
        undeliverable_packets: json_u64(line, "undeliverable_packets")?,
        channel_utilization: json_bits_array(line, "util_bits"),
        deliveries: None,
        trace: None,
    })
}

/// Escape a string for a JSON line.
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The position just past `"key":` in `line`, skipping a space if any.
fn after_key(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\":");
    let mut at = line.find(&pat)? + pat.len();
    if line[at..].starts_with(' ') {
        at += 1;
    }
    Some(at)
}

/// Extract the unsigned integer value of `"key"`.
pub(crate) fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[after_key(line, key)?..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the boolean value of `"key"`.
pub(crate) fn json_bool(line: &str, key: &str) -> Option<bool> {
    let rest = &line[after_key(line, key)?..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Extract and unescape the string value of `"key"`.
pub(crate) fn json_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[after_key(line, key)?..];
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Extract a float checkpointed as a quoted `f64::to_bits` decimal.
pub(crate) fn json_bits(line: &str, key: &str) -> Option<f64> {
    let rest = &line[after_key(line, key)?..];
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    rest[..end].parse::<u64>().ok().map(f64::from_bits)
}

/// Extract an optional array of bit-pattern floats (`None` when the
/// key is absent — the report had no `channel_utilization`).
pub(crate) fn json_bits_array(line: &str, key: &str) -> Option<Vec<f64>> {
    let rest = &line[after_key(line, key)?..];
    let rest = rest.strip_prefix('[')?;
    let end = rest.find(']')?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',')
        .map(|item| {
            item.trim()
                .trim_matches('"')
                .parse::<u64>()
                .ok()
                .map(f64::from_bits)
        })
        .collect()
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

    /// A bare `tasks`-task plan with no fleet prologue.
    fn plan(
        tasks: usize,
        threads: usize,
        policy: &CampaignPolicy,
        run: impl Fn(usize, u32, &mut EngineState) -> Result<SimReport, SimError> + Sync,
    ) -> Outcomes {
        run_plan("curve", 42, tasks, threads, policy, run, None).unwrap()
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
            compiled.run_typed(0.2, mix(7, i as u64 + 1), st)
        });
        assert!(results[0].0.is_ok());
        assert!(results[2].0.is_ok());
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
            compiled.run_typed(0.2, task_seed(7, i, attempt), st)
        });
        assert!(results[0].0.is_ok());
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
            2 => budgeted.run_typed(0.2, 99, st),
            _ => compiled.run_typed(0.2, mix(7, i as u64 + 1), st),
        });
        let outcomes: Vec<&PointOutcome> = results.iter().map(|(o, _)| o).collect();
        assert!(outcomes[0].is_ok() && outcomes[3].is_ok());
        assert!(outcomes[1].is_failed());
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
            let line = format!("{{\"report\":{}}}", report_to_json(&r).unwrap());
            let back = report_from_json(&line).unwrap();
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
        let (task, parsed, attempts) = parse_task_line(line.trim()).unwrap();
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
        let reference = campaign_curve(&exp, &loads, 2, &CampaignPolicy::isolate()).unwrap();

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
        let first = Checkpoint::open(&policy, "curve", 7, 2).unwrap();
        let Err(err) = Checkpoint::open(&policy, "curve", 7, 2) else {
            panic!("second writer must be refused");
        };
        assert!(err.contains("locked by live process"), "{err}");
        drop(first);
        let again = Checkpoint::open(&policy, "curve", 7, 2).unwrap();
        drop(again);
        assert!(
            !crate::lockfile::LockFile::path_for(&path).exists(),
            "lock must be released on drop"
        );
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
            compiled.run_typed(0.2, 5, st)
        });
        assert!(results[0].0.is_failed());

        let resumed = plan(2, 1, &policy, |_, _, _| {
            panic!("nothing should run on a complete checkpoint")
        });
        assert!(resumed[0].0.is_failed());
        let (first, again) = (results[1].0.ok_report(), resumed[1].0.ok_report());
        assert!(first.unwrap().bitwise_eq(again.unwrap()));
    }

    #[test]
    fn replicated_campaign_aggregates_ok_subset() {
        let exp = quick();
        let pts =
            campaign_replicated_curve(&exp, &[0.2], 3, 2, &CampaignPolicy::isolate()).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].outcomes.len(), 3);
        assert!(pts[0].outcomes.iter().all(PointOutcome::is_ok));
        let stats = pts[0].ok_stats.as_ref().unwrap();
        assert_eq!(stats.replications.len(), 3);
        // The lockstep lanes carry the grid seeds of the per-run path.
        for (r, lane) in stats.replications.iter().enumerate() {
            let direct = exp.run_seeded(0.2, task_seed(exp.sim.seed, r, 0)).unwrap();
            assert!(lane.bitwise_eq(&direct), "replication {r} diverged");
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
                compiled.run_typed(0.1, task_seed(7, i, 0), st)
            });
            seen.into_inner().unwrap()
        };
        assert_eq!(ran_on_caller(3, 1), [true; 3]);
        assert_eq!(ran_on_caller(1, 4), [true], "one unit of work is one worker");
        assert_eq!(ran_on_caller(3, 2), [false; 3]);
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
            compiled.run_typed(0.2, task_seed(7, i, 0), st)
        });
        assert!(results[1].0.is_failed());
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
        let run_with = |threads: usize| -> (Vec<String>, String) {
            let path = temp_ckpt("threads");
            let _cleanup = Cleanup(path.clone());
            let policy = CampaignPolicy {
                retries: 1,
                checkpoint: Some(path.clone()),
                ..CampaignPolicy::default()
            };
            let results = plan(5, threads, &policy, |i, attempt, st| match (i, attempt) {
                (1, _) => panic!("always"),
                (2, _) => budgeted.run_typed(0.2, task_seed(7, i, attempt), st),
                (3, 0) => Err(SimError::Config("first attempt".into())),
                _ => compiled.run_typed(0.2, task_seed(7, i, attempt), st),
            });
            let lines = results
                .iter()
                .enumerate()
                .map(|(t, (outcome, attempts))| task_line(t, *attempts, outcome).unwrap())
                .collect();
            (lines, std::fs::read_to_string(&path).unwrap())
        };
        let (lines, file) = run_with(1);
        let tags: Vec<String> = lines.iter().map(|l| json_str(l, "outcome").unwrap()).collect();
        assert_eq!(tags, ["ok", "failed", "partial", "ok", "ok"]);
        let attempts: Vec<u64> = lines.iter().map(|l| json_u64(l, "attempts").unwrap()).collect();
        assert_eq!(attempts, [1, 2, 1, 2, 1]);
        // One worker appends in task order: the file is header + lines.
        let header = file.split_inclusive('\n').next().unwrap();
        assert_eq!(file, format!("{header}{}", lines.concat()));
        for threads in [2, 4] {
            let (pooled, pooled_file) = run_with(threads);
            assert_eq!(pooled, lines, "threads = {threads}");
            // A pool appends in completion order: same lines, any order.
            let mut appended: Vec<&str> = pooled_file.split_inclusive('\n').skip(1).collect();
            appended.sort_unstable_by_key(|l| json_u64(l, "task"));
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
            let tasks: Vec<u64> = on_disk.lines().skip(1).map(|l| json_u64(l, "task").unwrap()).collect();
            assert_eq!(tasks, (0..i as u64).collect::<Vec<_>>(), "before task {i}");
            compiled.run_typed(0.1, task_seed(7, i, 0), st)
        });
        // An assertion that failed inside `run` would be a Failed point.
        assert!(results.iter().all(|(outcome, _)| outcome.is_ok()));
    }

    // ---- the fleet prologue and its fall-back ladder ------------------

    /// Three lanes of one point at load 0.2 on base seed 7, run through
    /// `run_plan` with `fleet` as the prologue and lane 1 panicking in
    /// the scalar path while `guilty`. Returns the results and the
    /// `(task, attempt)` pairs the scalar closure saw.
    fn fleet_point(
        retries: u32,
        guilty: bool,
        fleet: FleetRun<'_>,
    ) -> (Outcomes, Vec<(usize, u32)>) {
        let compiled = quick().compile().unwrap();
        let seen = Mutex::new(Vec::new());
        let results = run_plan(
            "replicated_curve",
            42,
            3,
            2,
            &retrying(retries),
            |t, attempt, st| {
                seen.lock().unwrap().push((t, attempt));
                if guilty && t == 1 {
                    panic!("guilty lane");
                }
                compiled.run_typed(0.2, task_seed(7, t, attempt), st)
            },
            Some((3, fleet)),
        )
        .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        (results, seen)
    }

    /// The scalar grid's report for `(task, attempt)` of [`fleet_point`].
    fn scalar(task: usize, attempt: u32) -> SimReport {
        let seed = task_seed(7, task, attempt);
        quick().run_seeded(0.2, seed).unwrap()
    }

    #[test]
    fn fleet_lane_error_retries_from_attempt_one_and_spares_neighbours() {
        let compiled = quick().compile().unwrap();
        let workload = compiled.template().workload_at(0.2).unwrap();
        let fleet = |tasks: &[usize], threads: usize, ls: &mut LockstepState| {
            let seeds: Vec<u64> = tasks.iter().map(|&t| task_seed(7, t, 0)).collect();
            let net = compiled.network();
            let mut lanes = net.run_poisson_lockstep(&workload, &seeds, threads, ls);
            lanes[1] = Err(SimError::Config("injected lane error".into()));
            lanes
        };
        let (results, seen) = fleet_point(1, false, &fleet);
        // The fleet was attempt 0 of every lane: only the failed lane
        // reaches the scalar closure, and it starts at attempt 1.
        assert_eq!(seen, [(1, 1)]);
        assert_eq!(results[1].1, 2);
        assert!(results[1].0.ok_report().unwrap().bitwise_eq(&scalar(1, 1)));
        for t in [0, 2] {
            assert_eq!(results[t].1, 1);
            assert!(results[t].0.ok_report().unwrap().bitwise_eq(&scalar(t, 0)));
        }
        // With no retry to spend the fleet's reason stands.
        let (results, seen) = fleet_point(0, false, &fleet);
        assert!(seen.is_empty());
        let PointOutcome::Failed { reason } = &results[1].0 else {
            panic!("expected Failed, got {}", results[1].0.tag());
        };
        assert!(reason.contains("injected lane error"), "{reason}");
        assert_eq!(results[1].1, 1);
    }

    #[test]
    fn fleet_panic_reruns_every_lane_from_attempt_zero() {
        let fleet =
            |_: &[usize], _: usize, _: &mut LockstepState| -> Vec<_> { panic!("fleet blew up") };
        let (results, seen) = fleet_point(1, true, &fleet);
        assert_eq!(seen, [(0, 0), (1, 0), (1, 1), (2, 0)]);
        assert!(results[1].0.is_failed());
        assert_eq!(results[1].1, 2, "the guilty lane spends its retry");
        for t in [0, 2] {
            assert_eq!(results[t].1, 1);
            assert!(results[t].0.ok_report().unwrap().bitwise_eq(&scalar(t, 0)));
        }
    }

    #[test]
    fn invalid_load_fails_every_lane_of_its_point_only() {
        let pts = campaign_replicated_curve(&quick(), &[0.2, -1.0], 3, 2, &retrying(2)).unwrap();
        assert!(pts[0].outcomes.iter().all(PointOutcome::is_ok));
        assert_eq!(pts[0].attempts, [1, 1, 1]);
        assert!(pts[1].outcomes.iter().all(PointOutcome::is_failed));
        assert_eq!(pts[1].attempts, [3, 3, 3], "attempts == retries + 1");
        assert!(pts[1].ok_stats.is_none());
    }

    #[test]
    fn parent_written_checkpoint_resumes_only_its_holes_bitwise() {
        // Written by the commit before the one-runner refactor: tasks 3,
        // 1, 5 of a 2-load × 3-replication grid, i.e. some lanes of each
        // point. Identity v1 must still accept it, the fleets must cover
        // just the holes, and the curve must equal the uninterrupted one.
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
            campaign_replicated_curve(&quick(), &loads, 3, 2, &CampaignPolicy::isolate()).unwrap();
        for (r, w) in resumed.iter().zip(&whole) {
            for (a, b) in r.outcomes.iter().zip(&w.outcomes) {
                assert!(a.ok_report().unwrap().bitwise_eq(b.ok_report().unwrap()));
            }
        }
        let refilled = std::fs::read_to_string(&path).unwrap();
        assert!(refilled.starts_with(fixture), "resume must only append");
        let mut appended: Vec<u64> = refilled[fixture.len()..]
            .lines()
            .map(|l| json_u64(l, "task").unwrap())
            .collect();
        appended.sort_unstable();
        assert_eq!(appended, [0, 2, 4], "exactly the holes ran, once each");
    }
}
