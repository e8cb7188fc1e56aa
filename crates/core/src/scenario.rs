//! Declarative scenarios: topology + workload + faults/chaos + budgets +
//! expectations, compiled onto the campaign runner and judged into
//! structured verdicts.
//!
//! A [`Scenario`] is everything one evaluation story needs, as *data*:
//!
//! * the network shape (a [`NetworkSpec`] and [`Geometry`]),
//! * a workload — Poisson offered loads or a deterministic message
//!   script,
//! * scheduled faults: an explicit [`FaultPlan`] and/or a seeded
//!   [`ChaosSchedule`] (restart-style transient storms),
//! * engine settings including [`minnet_sim::RunBudget`] and the
//!   no-progress watchdog,
//! * and **expectations** — the SLOs the run must meet:
//!   [`ScenarioBuilder::expect_sustainable`],
//!   [`ScenarioBuilder::expect_delivery`],
//!   [`ScenarioBuilder::expect_p99_latency`],
//!   [`ScenarioBuilder::expect_no_stall`], …
//!
//! Scenarios come from Rust (the [`ScenarioBuilder`]) or from `.scn`
//! files ([`Scenario::parse`] / [`Scenario::load`]) — a line-oriented
//! `key = value` format documented in `EXPERIMENTS.md` and exemplified
//! by the `scenarios/` library at the repository root.
//!
//! Running a scenario ([`Scenario::run`]) lowers it to one plan of the
//! experiment runner in [`crate::campaign`]: each load (or the script)
//! is one task, so panic isolation, deterministic retries, and
//! config-hash-keyed JSONL checkpoint/resume all come for free. The
//! result is a [`Verdict`]: pass/fail/partial with one [`CheckResult`]
//! per expectation (each carrying a human-readable reason), per-point
//! outcomes, and — when the watchdog fired — the structured
//! [`StallDiagnostic`].
//!
//! Determinism: a baseline scenario is bit-deterministic by the engine's
//! contract; a chaos scenario stays deterministic because the storm is
//! expanded from `mix(scenario seed, CHAOS_SALT)` and nothing else.
//! Verdict reports contain no wall-clock data, so
//! [`verdict_report_json`] is byte-identical across repeated runs and
//! thread counts (pinned by the workspace e2e tests).

use crate::campaign::{config_hash, esc, run_plan, task_seed, CampaignPolicy, PointOutcome};
use crate::experiment::Experiment;
use crate::spec::NetworkSpec;
use crate::sweep::mix;
use minnet_sim::{
    ChaosSchedule, ChaosTarget, EngineConfig, RunBudget, Script, ScriptedMsg, SimError,
    SimReport, StallDiagnostic,
};
use minnet_topology::{Fault, FaultPlan, FaultTarget, Geometry, UnidirKind};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Salt mixed into the scenario seed to derive the chaos-expansion seed,
/// so the storm draw is decorrelated from the engine's own RNG streams.
const CHAOS_SALT: u64 = 0x0063_6861_6f73; // "chaos"

/// The overall outcome of a scenario (and the outcome it *expects* —
/// a watchdog-trip scenario declares `expected_verdict = fail`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerdictStatus {
    /// Every expectation held and every point completed.
    Pass,
    /// Nothing failed outright, but some data is missing or truncated
    /// (budget-cut points without `allow_partial`, or no completed run
    /// to evaluate a check against).
    Partial,
    /// An expectation was violated or a point failed.
    Fail,
}

impl VerdictStatus {
    /// Lower-case name as it appears in verdict JSON and scenario files.
    pub fn as_str(&self) -> &'static str {
        match self {
            VerdictStatus::Pass => "pass",
            VerdictStatus::Partial => "partial",
            VerdictStatus::Fail => "fail",
        }
    }
}

/// How one expectation fared.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckStatus {
    /// The expectation held on every evaluable point.
    Passed,
    /// The expectation was violated; the check's detail names where.
    Failed,
    /// The expectation could not be evaluated (no completed run).
    Skipped,
}

impl CheckStatus {
    /// Lower-case name as it appears in verdict JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            CheckStatus::Passed => "passed",
            CheckStatus::Failed => "failed",
            CheckStatus::Skipped => "skipped",
        }
    }
}

/// One evaluated expectation inside a [`Verdict`].
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// What was expected, e.g. `delivery >= 0.95`.
    pub what: String,
    /// How it fared.
    pub status: CheckStatus,
    /// Why — empty for a clean pass, otherwise the offending points and
    /// values.
    pub detail: String,
}

/// One task of a scenario run (a load point, or the script) with its
/// campaign outcome.
#[derive(Clone, Debug)]
pub struct ScenarioPoint {
    /// `load 0.3` or `script`.
    pub label: String,
    /// What the run produced (report, truncated report, or failure).
    pub outcome: PointOutcome,
    /// Attempts spent (1 = no retry was needed).
    pub attempts: u32,
}

/// The structured result of [`Scenario::run`]: status, per-expectation
/// checks with reasons, per-point outcomes, and the stall diagnostic
/// when a watchdog fired.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The scenario's name.
    pub scenario: String,
    /// Overall outcome.
    pub status: VerdictStatus,
    /// The outcome the scenario declared it expects (default pass).
    pub expected: VerdictStatus,
    /// One entry per declared expectation, plus the implicit
    /// "all points completed" check.
    pub checks: Vec<CheckResult>,
    /// Per-task outcomes, in task order.
    pub points: Vec<ScenarioPoint>,
    /// The first stall diagnostic any task's watchdog produced (kept
    /// even when a retry later succeeded — a stall *happened*).
    pub stall: Option<Box<StallDiagnostic>>,
}

impl Verdict {
    /// Whether the actual status matches the declared expectation — the
    /// CLI's exit criterion: a watchdog-trip scenario that fails as
    /// declared is a *successful* run of the scenario library.
    pub fn as_expected(&self) -> bool {
        self.status == self.expected
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}",
            self.status.as_str().to_uppercase(),
            self.scenario
        )?;
        if self.expected != VerdictStatus::Pass {
            write!(f, " (expected {})", self.expected.as_str())?;
        }
        for c in &self.checks {
            let mark = match c.status {
                CheckStatus::Passed => "ok",
                CheckStatus::Failed => "FAIL",
                CheckStatus::Skipped => "skip",
            };
            write!(f, "\n  [{mark}] {}", c.what)?;
            if !c.detail.is_empty() {
                write!(f, ": {}", c.detail)?;
            }
        }
        for p in &self.points {
            if let PointOutcome::Failed { reason } = &p.outcome {
                write!(f, "\n  {} failed ({} attempts): {reason}", p.label, p.attempts)?;
            }
        }
        if let Some(d) = &self.stall {
            for line in d.detail().lines() {
                write!(f, "\n  | {line}")?;
            }
        }
        Ok(())
    }
}

/// The success criteria a scenario evaluates its reports against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expectations {
    /// `Some(true)`: every point must be sustainable (the paper's queue
    /// criterion); `Some(false)`: every point must be saturated.
    pub sustainable: Option<bool>,
    /// Minimum delivered/generated fraction per point.
    pub delivery: Option<f64>,
    /// Maximum p99 latency in cycles per point.
    pub p99_latency: Option<u64>,
    /// No task may trip the no-progress watchdog.
    pub no_stall: bool,
    /// No point may abort packets mid-flight.
    pub no_aborts: bool,
    /// No point may refuse packets at injection as undeliverable.
    pub no_refusals: bool,
    /// Budget-cut (partial) reports count as evaluable data and do not
    /// demote the verdict.
    pub allow_partial: bool,
}

impl Expectations {
    /// Whether any expectation is declared at all (a scenario without
    /// one is rejected at build time).
    fn any(&self) -> bool {
        self.sustainable.is_some()
            || self.delivery.is_some()
            || self.p99_latency.is_some()
            || self.no_stall
            || self.no_aborts
            || self.no_refusals
    }
}

/// A fully validated, runnable scenario. Construct with
/// [`Scenario::builder`] or parse from a `.scn` file with
/// [`Scenario::load`].
#[derive(Clone, Debug)]
pub struct Scenario {
    name: String,
    description: String,
    exp: Experiment,
    loads: Vec<f64>,
    script: Vec<ScriptedMsg>,
    faults: FaultPlan,
    chaos: Option<ChaosSchedule>,
    expect: Expectations,
    expected: VerdictStatus,
    chaos_opt_in: bool,
}

impl Scenario {
    /// Start declaring a scenario named `name`.
    pub fn builder(name: &str) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario's one-line description (may be empty).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Whether this scenario is chaos-gated: skipped by default, run
    /// only when chaos is explicitly included (`--chaos`).
    pub fn is_chaos_opt_in(&self) -> bool {
        self.chaos_opt_in
    }

    /// The verdict status this scenario declares it expects.
    pub fn expected_verdict(&self) -> VerdictStatus {
        self.expected
    }

    /// The underlying experiment (network, workload family, engine
    /// config including seed and budget).
    pub fn experiment(&self) -> &Experiment {
        &self.exp
    }

    /// The declared expectations.
    pub fn expectations(&self) -> &Expectations {
        &self.expect
    }

    /// Override the scenario's declared run budget from outside — the
    /// CLI's `--budget-cycles` / `--budget-ms` passthrough. A nonzero
    /// field replaces the declared value; a zero field keeps it, so a
    /// caller can cap cycles without disturbing a wall budget (or vice
    /// versa).
    pub fn override_budget(&mut self, budget: RunBudget) {
        if budget.max_cycles > 0 {
            self.exp.sim.budget.max_cycles = budget.max_cycles;
        }
        if budget.max_wall_ms > 0 {
            self.exp.sim.budget.max_wall_ms = budget.max_wall_ms;
        }
    }

    /// Run the scenario and judge it into a [`Verdict`].
    ///
    /// Each Poisson load (or the script) is one campaign task: panics
    /// are isolated per task, failures retried per `policy.retries`
    /// with decorrelated seeds, and finished tasks appended to the
    /// policy's checkpoint for resume. Task `i` runs with seed
    /// `mix(scenario seed, i + 1)`; the chaos storm (if any) expands
    /// from `mix(scenario seed, CHAOS_SALT)` — all randomness flows
    /// from the scenario seed, so verdicts are thread-count invariant
    /// and bitwise reproducible.
    ///
    /// One caveat on resume: a [`StallDiagnostic`] is captured through a
    /// side channel during the run and is not persisted to checkpoints —
    /// a task preloaded from a checkpoint keeps its `Failed` reason
    /// string (and the verdict status), but `Verdict::stall` and the
    /// `no stall` check reflect only the tasks that actually ran in
    /// this process.
    ///
    /// # Errors
    ///
    /// Reports invalid configurations (network, workload, fault plan,
    /// chaos schedule) and checkpoint I/O or mismatch problems. An
    /// expectation *violation* is not an error — it is a `Fail`
    /// verdict.
    pub fn run(&self, threads: usize, policy: &CampaignPolicy) -> Result<Verdict, String> {
        let fail = |e: String| format!("scenario {}: {e}", self.name);
        let compiled = self.exp.compile().map_err(&fail)?;

        // Explicit faults plus the expanded chaos storm, compiled once
        // into per-epoch masked tables shared by every task.
        let mut plan = self.faults.clone();
        if let Some(chaos) = &self.chaos {
            let storm = chaos
                .compile_plan(
                    compiled.graph(),
                    self.exp.network.vcs(),
                    mix(self.exp.sim.seed, CHAOS_SALT),
                )
                .map_err(|e| fail(e.to_string()))?;
            for f in storm.faults() {
                plan.push(*f);
            }
        }
        let faults = if plan.is_empty() {
            None
        } else {
            Some(
                compiled
                    .network()
                    .compile_faults(&plan)
                    .map_err(|e| fail(e.to_string()))?,
            )
        };

        let script = if self.script.is_empty() {
            None
        } else {
            Some(Script::compile(self.exp.geometry, &self.script).map_err(|e| fail(e.to_string()))?)
        };
        let tasks = if script.is_some() { 1 } else { self.loads.len() };

        let hash = config_hash(
            "scenario",
            &self.exp,
            &format!(
                "name={};loads={:?};script={:?};plan={:?};expect={:?}",
                self.name, self.loads, self.script, plan, self.expect
            ),
            policy.retries,
        );

        // Watchdog side channel: the runner stringifies non-budget
        // errors into `Failed { reason }`, but the verdict must carry
        // the *structured* diagnostic — so the closure stashes it per
        // task before returning the error.
        let stalls: Mutex<Vec<Option<Box<StallDiagnostic>>>> = Mutex::new(vec![None; tasks]);
        let base = self.exp.sim.seed;
        let outcomes = run_plan(
            "scenario",
            hash,
            tasks,
            threads,
            policy,
            |task, attempt, st| {
                let seed = task_seed(base, task, attempt);
                let res = match &script {
                    Some(s) => compiled.network().run_script_faulted(s, faults.as_ref(), seed, st),
                    None => {
                        let w = compiled
                            .template()
                            .workload_at(self.loads[task])
                            .map_err(SimError::Config)?;
                        compiled.network().run_poisson_faulted(&w, faults.as_ref(), seed, st)
                    }
                };
                match res {
                    Ok(mut r) => {
                        // Delivery records and traces are not needed for
                        // judging and are not checkpointable; strip them
                        // so scripted scenarios checkpoint like Poisson
                        // ones.
                        r.deliveries = None;
                        r.trace = None;
                        Ok(r)
                    }
                    Err(SimError::BudgetExceeded(mut p)) => {
                        p.report.deliveries = None;
                        p.report.trace = None;
                        Err(SimError::BudgetExceeded(p))
                    }
                    Err(SimError::NoProgress(d)) => {
                        let mut slot = stalls.lock().expect("stall channel poisoned");
                        slot[task] = Some(d.clone());
                        Err(SimError::NoProgress(d))
                    }
                    Err(e) => Err(e),
                }
            },
            None,
        )
        .map_err(&fail)?;
        let stalls = stalls.into_inner().expect("stall channel poisoned");
        Ok(self.judge(outcomes, stalls))
    }

    /// The per-task labels (`load 0.3` … or `script`).
    fn labels(&self) -> Vec<String> {
        if self.script.is_empty() {
            self.loads.iter().map(|l| format!("load {l}")).collect()
        } else {
            vec!["script".to_string()]
        }
    }

    /// Evaluate expectations over the outcomes into a [`Verdict`].
    fn judge(
        &self,
        outcomes: Vec<(PointOutcome, u32)>,
        stalls: Vec<Option<Box<StallDiagnostic>>>,
    ) -> Verdict {
        let labels = self.labels();
        let points: Vec<ScenarioPoint> = outcomes
            .into_iter()
            .zip(&labels)
            .map(|((outcome, attempts), label)| ScenarioPoint {
                label: label.clone(),
                outcome,
                attempts,
            })
            .collect();

        // A point is evaluable when it carries a report the scenario is
        // willing to judge: completed runs always, truncated runs only
        // under `allow_partial`.
        let evaluable: Vec<(&str, &SimReport)> = points
            .iter()
            .filter_map(|p| match &p.outcome {
                PointOutcome::Ok(r) => Some((p.label.as_str(), r)),
                PointOutcome::Partial { report, .. } if self.expect.allow_partial => {
                    Some((p.label.as_str(), report))
                }
                _ => None,
            })
            .collect();

        let mut checks = Vec::new();
        // A value check over every evaluable report: `violation` returns
        // a reason when the report breaks the expectation.
        let mut value_check = |what: String,
                               violation: &dyn Fn(&SimReport) -> Option<String>| {
            let failing: Vec<String> = evaluable
                .iter()
                .filter_map(|(label, r)| violation(r).map(|why| format!("{label}: {why}")))
                .collect();
            checks.push(if evaluable.is_empty() {
                CheckResult {
                    what,
                    status: CheckStatus::Skipped,
                    detail: "no completed run to evaluate".to_string(),
                }
            } else if failing.is_empty() {
                CheckResult {
                    what,
                    status: CheckStatus::Passed,
                    detail: String::new(),
                }
            } else {
                CheckResult {
                    what,
                    status: CheckStatus::Failed,
                    detail: failing.join("; "),
                }
            });
        };

        match self.expect.sustainable {
            Some(true) => value_check("sustainable".to_string(), &|r| {
                (!r.sustainable).then(|| {
                    format!("saturated (max queue {} over the limit)", r.max_queue)
                })
            }),
            Some(false) => value_check("saturated".to_string(), &|r| {
                r.sustainable.then(|| "still sustainable".to_string())
            }),
            None => {}
        }
        if let Some(frac) = self.expect.delivery {
            value_check(format!("delivery >= {frac}"), &|r| {
                let got = if r.generated_packets == 0 {
                    1.0
                } else {
                    r.delivered_packets as f64 / r.generated_packets as f64
                };
                (got < frac).then(|| {
                    format!(
                        "delivered {}/{} = {:.4}",
                        r.delivered_packets, r.generated_packets, got
                    )
                })
            });
        }
        if let Some(limit) = self.expect.p99_latency {
            value_check(format!("p99 latency <= {limit} cycles"), &|r| {
                (r.p99_latency_cycles > limit)
                    .then(|| format!("p99 {} cycles", r.p99_latency_cycles))
            });
        }
        if self.expect.no_aborts {
            value_check("no aborted packets".to_string(), &|r| {
                (r.aborted_packets > 0).then(|| format!("{} aborted", r.aborted_packets))
            });
        }
        if self.expect.no_refusals {
            value_check("no undeliverable refusals".to_string(), &|r| {
                (r.undeliverable_packets > 0)
                    .then(|| format!("{} refused", r.undeliverable_packets))
            });
        }
        if self.expect.no_stall {
            // Judged from the side channel, not the reports: a stall on
            // any attempt counts even if a retry later completed.
            let failing: Vec<String> = stalls
                .iter()
                .zip(&labels)
                .filter_map(|(s, label)| {
                    s.as_ref().map(|d| format!("{label}: {d}"))
                })
                .collect();
            checks.push(if failing.is_empty() {
                CheckResult {
                    what: "no stall".to_string(),
                    status: CheckStatus::Passed,
                    detail: String::new(),
                }
            } else {
                CheckResult {
                    what: "no stall".to_string(),
                    status: CheckStatus::Failed,
                    detail: failing.join("; "),
                }
            });
        }
        // The implicit completion check: failed points sink a scenario
        // even without a declared expectation on them.
        {
            let failing: Vec<String> = points
                .iter()
                .filter_map(|p| match &p.outcome {
                    PointOutcome::Failed { reason } => Some(format!("{}: {reason}", p.label)),
                    _ => None,
                })
                .collect();
            checks.push(if failing.is_empty() {
                CheckResult {
                    what: "all points completed".to_string(),
                    status: CheckStatus::Passed,
                    detail: String::new(),
                }
            } else {
                CheckResult {
                    what: "all points completed".to_string(),
                    status: CheckStatus::Failed,
                    detail: failing.join("; "),
                }
            });
        }

        let any_failed_check = checks.iter().any(|c| c.status == CheckStatus::Failed);
        let any_skipped_check = checks.iter().any(|c| c.status == CheckStatus::Skipped);
        let unjudged_partial = !self.expect.allow_partial
            && points.iter().any(|p| p.outcome.is_partial());
        let status = if any_failed_check {
            VerdictStatus::Fail
        } else if any_skipped_check || unjudged_partial {
            VerdictStatus::Partial
        } else {
            VerdictStatus::Pass
        };
        let stall = stalls.into_iter().flatten().next();
        Verdict {
            scenario: self.name.clone(),
            status,
            expected: self.expected,
            checks,
            points,
            stall,
        }
    }
}

/// Fluent construction of a [`Scenario`]; see the module docs. Defaults:
/// the paper's 64-node geometry, cube TMIN, uniform traffic, paper
/// message sizes, default engine config, no faults, no chaos, expected
/// verdict `pass`.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    name: String,
    description: String,
    geometry: Geometry,
    network: NetworkSpec,
    pattern: TrafficPattern,
    clustering: Clustering,
    sizes: MessageSizeDist,
    sim: EngineConfig,
    loads: Vec<f64>,
    script: Vec<ScriptedMsg>,
    faults: FaultPlan,
    chaos: Option<ChaosSchedule>,
    expect: Expectations,
    expected: VerdictStatus,
    chaos_opt_in: bool,
}

impl ScenarioBuilder {
    fn new(name: &str) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.to_string(),
            description: String::new(),
            geometry: Geometry::new(4, 3),
            network: NetworkSpec::tmin(),
            pattern: TrafficPattern::Uniform,
            clustering: Clustering::Global,
            sizes: MessageSizeDist::PAPER,
            sim: EngineConfig::default(),
            loads: Vec::new(),
            script: Vec::new(),
            faults: FaultPlan::new(),
            chaos: None,
            expect: Expectations::default(),
            expected: VerdictStatus::Pass,
            chaos_opt_in: false,
        }
    }

    /// One-line description shown by `minnet scenario list`.
    #[must_use]
    pub fn description(mut self, d: &str) -> Self {
        self.description = d.to_string();
        self
    }

    /// Network geometry: `k`×`k` switches, `n` stages (`k^n` nodes).
    #[must_use]
    pub fn geometry(mut self, k: u32, n: u32) -> Self {
        self.geometry = Geometry::new(k, n);
        self
    }

    /// Which of the four designs to simulate.
    #[must_use]
    pub fn network(mut self, spec: NetworkSpec) -> Self {
        self.network = spec;
        self
    }

    /// Destination pattern (uniform, hotspot, shuffle, butterfly).
    #[must_use]
    pub fn pattern(mut self, p: TrafficPattern) -> Self {
        self.pattern = p;
        self
    }

    /// Node clustering for partitioned workloads.
    #[must_use]
    pub fn clustering(mut self, c: Clustering) -> Self {
        self.clustering = c;
        self
    }

    /// Message size distribution.
    #[must_use]
    pub fn sizes(mut self, s: MessageSizeDist) -> Self {
        self.sizes = s;
        self
    }

    /// The scenario seed — the *only* source of randomness, including
    /// chaos expansion.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Warmup cycles excluded from measurement.
    #[must_use]
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.sim.warmup = cycles;
        self
    }

    /// Measured cycles.
    #[must_use]
    pub fn measure(mut self, cycles: u64) -> Self {
        self.sim.measure = cycles;
        self
    }

    /// Source-queue limit for the sustainability criterion.
    #[must_use]
    pub fn queue_limit(mut self, limit: usize) -> Self {
        self.sim.queue_limit = limit;
        self
    }

    /// Per-lane flit buffer depth.
    #[must_use]
    pub fn buffer_depth(mut self, depth: u16) -> Self {
        self.sim.buffer_depth = depth;
        self
    }

    /// No-progress watchdog window in cycles (0 = off).
    #[must_use]
    pub fn watchdog_window(mut self, window: u64) -> Self {
        self.sim.watchdog_window = window;
        self
    }

    /// Whether worms wedged by a fault are aborted (engine default) or
    /// left holding their lanes — `false` is the watchdog's test knob.
    #[must_use]
    pub fn fault_abort(mut self, abort: bool) -> Self {
        self.sim.fault_abort = abort;
        self
    }

    /// Deterministic cycle budget per run (0 = off).
    #[must_use]
    pub fn budget_cycles(mut self, cycles: u64) -> Self {
        self.sim.budget.max_cycles = cycles;
        self
    }

    /// Wall-clock budget per run in milliseconds (0 = off).
    #[must_use]
    pub fn budget_ms(mut self, ms: u64) -> Self {
        self.sim.budget.max_wall_ms = ms;
        self
    }

    /// Add one Poisson offered-load point (one campaign task).
    #[must_use]
    pub fn load(mut self, load: f64) -> Self {
        self.loads.push(load);
        self
    }

    /// Add several Poisson offered-load points.
    #[must_use]
    pub fn loads(mut self, loads: &[f64]) -> Self {
        self.loads.extend_from_slice(loads);
        self
    }

    /// Add one scripted message (scripted scenarios run as one task).
    #[must_use]
    pub fn message(mut self, time: u64, src: u32, dst: u32, len: u32) -> Self {
        self.script.push(ScriptedMsg { time, src, dst, len });
        self
    }

    /// Add one explicit scheduled fault.
    #[must_use]
    pub fn fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Attach a chaos schedule (expanded from the scenario seed).
    #[must_use]
    pub fn chaos(mut self, schedule: ChaosSchedule) -> Self {
        self.chaos = Some(schedule);
        self
    }

    /// Expect every point to be sustainable (the paper's criterion).
    #[must_use]
    pub fn expect_sustainable(mut self) -> Self {
        self.expect.sustainable = Some(true);
        self
    }

    /// Expect every point to be saturated (a saturation probe).
    #[must_use]
    pub fn expect_saturated(mut self) -> Self {
        self.expect.sustainable = Some(false);
        self
    }

    /// Expect at least this delivered/generated fraction per point.
    #[must_use]
    pub fn expect_delivery(mut self, frac: f64) -> Self {
        self.expect.delivery = Some(frac);
        self
    }

    /// Expect the p99 latency to stay at or below `cycles` per point.
    #[must_use]
    pub fn expect_p99_latency(mut self, cycles: u64) -> Self {
        self.expect.p99_latency = Some(cycles);
        self
    }

    /// Expect no task to trip the no-progress watchdog.
    #[must_use]
    pub fn expect_no_stall(mut self) -> Self {
        self.expect.no_stall = true;
        self
    }

    /// Expect no packets aborted mid-flight by faults.
    #[must_use]
    pub fn expect_no_aborts(mut self) -> Self {
        self.expect.no_aborts = true;
        self
    }

    /// Expect no packets refused at injection as undeliverable.
    #[must_use]
    pub fn expect_no_refusals(mut self) -> Self {
        self.expect.no_refusals = true;
        self
    }

    /// Let budget-cut (partial) reports count as evaluable data.
    #[must_use]
    pub fn allow_partial(mut self) -> Self {
        self.expect.allow_partial = true;
        self
    }

    /// Declare that this scenario is *supposed* to fail (e.g. a
    /// watchdog-trip fixture): the CLI treats a matching `Fail` verdict
    /// as success.
    #[must_use]
    pub fn expect_failure(mut self) -> Self {
        self.expected = VerdictStatus::Fail;
        self
    }

    /// Gate this scenario behind explicit chaos opt-in (`--chaos`).
    #[must_use]
    pub fn chaos_opt_in(mut self) -> Self {
        self.chaos_opt_in = true;
        self
    }

    /// Validate and freeze the scenario.
    ///
    /// # Errors
    ///
    /// Reports an invalid name, a missing or doubled workload, empty or
    /// out-of-range loads, a missing expectation, degenerate fault
    /// windows, and invalid network/chaos parameters.
    pub fn build(self) -> Result<Scenario, String> {
        let fail = |e: String| format!("scenario {}: {e}", self.name);
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "scenario name {:?} must be non-empty [A-Za-z0-9_-] (it names \
                 checkpoint and report entries)",
                self.name
            ));
        }
        self.network.validate().map_err(&fail)?;
        match (self.loads.is_empty(), self.script.is_empty()) {
            (true, true) => {
                return Err(fail("declare a workload: loads = … or message = …".into()))
            }
            (false, false) => {
                return Err(fail(
                    "declare either Poisson loads or a script, not both".into(),
                ))
            }
            _ => {}
        }
        for &l in &self.loads {
            if !(l > 0.0 && l <= 1.0 && l.is_finite()) {
                return Err(fail(format!(
                    "load {l} is outside (0, 1] (1.0 = the one-port injection bound)"
                )));
            }
        }
        if !self.expect.any() {
            return Err(fail(
                "declare at least one expectation (expect.sustainable, \
                 expect.delivery, expect.p99_latency, expect.no_stall, …)"
                    .into(),
            ));
        }
        // Window sanity that needs no network; out-of-range targets are
        // caught at run time against the built graph.
        for (i, f) in self.faults.faults().iter().enumerate() {
            if let Some(r) = f.repair {
                if r <= f.onset {
                    return Err(fail(format!(
                        "fault {i}: repair cycle {r} is not after onset {} \
                         (empty fault window)",
                        f.onset
                    )));
                }
            }
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate().map_err(|e| fail(e.to_string()))?;
        }
        let exp = Experiment {
            geometry: self.geometry,
            network: self.network,
            pattern: self.pattern,
            clustering: self.clustering,
            rates: None,
            sizes: self.sizes,
            sim: EngineConfig {
                vcs: self.network.vcs(),
                ..self.sim
            },
        };
        Ok(Scenario {
            name: self.name,
            description: self.description,
            exp,
            loads: self.loads,
            script: self.script,
            faults: self.faults,
            chaos: self.chaos,
            expect: self.expect,
            expected: self.expected,
            chaos_opt_in: self.chaos_opt_in,
        })
    }
}

// ---- scenario file format --------------------------------------------

/// Accept `true/false` and `on/off`.
fn parse_flag(v: &str) -> Option<bool> {
    match v {
        "true" | "on" | "yes" => Some(true),
        "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

impl Scenario {
    /// Parse the scenario file format: one `key = value` per line, `#`
    /// comments, blank lines ignored. `origin` labels error messages
    /// (usually the file name) and, stemmed, provides the default
    /// `name`. The format is documented in `EXPERIMENTS.md`; the
    /// `scenarios/` library is the living reference.
    ///
    /// # Errors
    ///
    /// Reports unknown keys, malformed values, and everything
    /// [`ScenarioBuilder::build`] rejects — all labeled
    /// `origin:line`.
    pub fn parse(text: &str, origin: &str) -> Result<Scenario, String> {
        let default_name = Path::new(origin)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut b = ScenarioBuilder::new(&default_name);
        let mut wiring = UnidirKind::Cube;
        let mut network_kind = "tmin".to_string();
        let mut dilation: u8 = 2;
        let mut vcs: u8 = 2;
        // `k` and `n`: each is judged on its own line against the other's
        // smallest value, so an error there is that key's alone, and the
        // pair after the loop, reported at the line that completed it
        // (against the other's *default*, `n = 16` would be refused before
        // `k = 2` is read).
        let geometry =
            |k, n| Geometry::try_new(k, n).and_then(minnet_topology::graph::check_limits);
        let (mut k, mut n, mut geometry_ln) = (b.geometry.k(), b.geometry.n(), 0);
        let mut chaos = ChaosSchedule {
            target: ChaosTarget::Channel,
            count: 1,
            min_onset: 0,
            max_onset: 0,
            duration: 0,
            cooldown: 0,
            rounds: 1,
        };
        let mut has_chaos = false;

        // Every number is parsed as the type it is stored in, so
        // `vcs = 300` or `buffer_depth = 65537` is an error, not a run at
        // `vcs = 44` or depth 1; `at` labels the error with its line.
        fn num<T: std::str::FromStr<Err = std::num::ParseIntError>>(
            v: &str,
            at: impl Fn(String) -> String,
        ) -> Result<T, String> {
            v.parse().map_err(|e: T::Err| at(e.to_string()))
        }

        for (ln, raw) in text.lines().enumerate() {
            let ln = ln + 1;
            let at = |msg: String| format!("{origin}:{ln}: {msg}");
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(at(format!("expected `key = value`, got {line:?}")));
            };
            let (key, value) = (key.trim(), value.trim());
            let flag = |v: &str| -> Result<bool, String> {
                parse_flag(v).ok_or_else(|| at(format!("expected true/false, got {v:?}")))
            };
            match key {
                "name" => b.name = value.to_string(),
                "description" => b.description = value.to_string(),
                "network" => network_kind = value.to_string(),
                "wiring" => {
                    wiring = match value {
                        "cube" => UnidirKind::Cube,
                        "butterfly" => UnidirKind::Butterfly,
                        "omega" => UnidirKind::Omega,
                        "baseline" => UnidirKind::Baseline,
                        _ => return Err(at(format!("unknown wiring {value:?}"))),
                    }
                }
                "dilation" => dilation = num(value, at)?,
                "vcs" => vcs = num(value, at)?,
                "k" => {
                    (k, geometry_ln) = (num(value, at)?, ln);
                    geometry(k, 1).map_err(at)?;
                }
                "n" => {
                    (n, geometry_ln) = (num(value, at)?, ln);
                    geometry(2, n).map_err(at)?;
                }
                "pattern" => {
                    b.pattern = if value == "uniform" {
                        TrafficPattern::Uniform
                    } else if value == "shuffle" {
                        TrafficPattern::SHUFFLE
                    } else if let Some(x) = value.strip_prefix("hotspot:") {
                        TrafficPattern::HotSpot {
                            extra: x.parse().map_err(|e| at(format!("hotspot: {e}")))?,
                        }
                    } else if let Some(i) = value.strip_prefix("butterfly:") {
                        TrafficPattern::butterfly(
                            i.parse().map_err(|e| at(format!("butterfly: {e}")))?,
                        )
                    } else {
                        return Err(at(format!("unknown pattern {value:?}")));
                    }
                }
                "sizes" => {
                    b.sizes = if value == "paper" {
                        MessageSizeDist::PAPER
                    } else if let Some(len) = value.strip_prefix("fixed:") {
                        MessageSizeDist::Fixed(
                            len.parse().map_err(|e| at(format!("fixed: {e}")))?,
                        )
                    } else if let Some(rest) = value.strip_prefix("bimodal:") {
                        let parts: Vec<&str> = rest.split(',').collect();
                        if parts.len() != 3 {
                            return Err(at("bimodal needs short,long,p_short".to_string()));
                        }
                        MessageSizeDist::Bimodal {
                            short: parts[0].parse().map_err(|e| at(format!("{e}")))?,
                            long: parts[1].parse().map_err(|e| at(format!("{e}")))?,
                            p_short: parts[2].parse().map_err(|e| at(format!("{e}")))?,
                        }
                    } else {
                        return Err(at(format!("unknown sizes {value:?}")));
                    }
                }
                "loads" => {
                    for part in value.split(',') {
                        let l: f64 = part
                            .trim()
                            .parse()
                            .map_err(|e| at(format!("loads: {e}")))?;
                        b.loads.push(l);
                    }
                }
                "message" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() != 4 {
                        return Err(at(format!(
                            "message needs `time src dst len`, got {value:?}"
                        )));
                    }
                    b.script.push(ScriptedMsg {
                        time: num(parts[0], at)?,
                        src: num(parts[1], at)?,
                        dst: num(parts[2], at)?,
                        len: num(parts[3], at)?,
                    });
                }
                "seed" => b.sim.seed = num(value, at)?,
                "warmup" => b.sim.warmup = num(value, at)?,
                "measure" => b.sim.measure = num(value, at)?,
                "queue_limit" => b.sim.queue_limit = num(value, at)?,
                "buffer_depth" => b.sim.buffer_depth = num(value, at)?,
                "watchdog_window" => b.sim.watchdog_window = num(value, at)?,
                "fault_abort" => b.sim.fault_abort = flag(value)?,
                "budget_cycles" => b.sim.budget.max_cycles = num(value, at)?,
                "budget_ms" => b.sim.budget.max_wall_ms = num(value, at)?,
                "fault" => {
                    let (target, window) = match value.split_once('@') {
                        Some((t, w)) => (t.trim(), Some(w.trim())),
                        None => (value, None),
                    };
                    let parts: Vec<&str> = target.split_whitespace().collect();
                    if parts.len() != 2 {
                        return Err(at(format!(
                            "fault target needs `channel N`, `lane C.V`, or `switch N`, \
                             got {target:?}"
                        )));
                    }
                    let target = match parts[0] {
                        "channel" => FaultTarget::Channel(num(parts[1], at)?),
                        "switch" => FaultTarget::Switch(num(parts[1], at)?),
                        "lane" => {
                            let Some((c, v)) = parts[1].split_once('.') else {
                                return Err(at(format!(
                                    "lane target needs `lane <channel>.<vc>`, got {:?}",
                                    parts[1]
                                )));
                            };
                            FaultTarget::Lane {
                                channel: num(c, at)?,
                                vc: num(v, at)?,
                            }
                        }
                        other => return Err(at(format!("unknown fault class {other:?}"))),
                    };
                    let fault = match window {
                        None => Fault::permanent(target),
                        Some(w) => {
                            let Some((onset, repair)) = w.split_once("..") else {
                                return Err(at(format!(
                                    "fault window needs `onset..repair` (repair empty or \
                                     `inf` = permanent), got {w:?}"
                                )));
                            };
                            let onset = num(onset.trim(), at)?;
                            match repair.trim() {
                                "" | "inf" => Fault {
                                    target,
                                    onset,
                                    repair: None,
                                },
                                r => Fault::transient(target, onset, num(r, at)?),
                            }
                        }
                    };
                    b.faults.push(fault);
                }
                "chaos.target" => {
                    has_chaos = true;
                    chaos.target = match value {
                        "channel" => ChaosTarget::Channel,
                        "lane" => ChaosTarget::Lane,
                        "switch" => ChaosTarget::Switch,
                        _ => return Err(at(format!("unknown chaos target {value:?}"))),
                    };
                }
                "chaos.count" => {
                    has_chaos = true;
                    chaos.count = num(value, at)?;
                }
                "chaos.min_onset" => {
                    has_chaos = true;
                    chaos.min_onset = num(value, at)?;
                }
                "chaos.max_onset" => {
                    has_chaos = true;
                    chaos.max_onset = num(value, at)?;
                }
                "chaos.duration" => {
                    has_chaos = true;
                    chaos.duration = num(value, at)?;
                }
                "chaos.cooldown" => {
                    has_chaos = true;
                    chaos.cooldown = num(value, at)?;
                }
                "chaos.rounds" => {
                    has_chaos = true;
                    chaos.rounds = num(value, at)?;
                }
                "expect.sustainable" => b.expect.sustainable = Some(flag(value)?),
                "expect.delivery" => {
                    b.expect.delivery =
                        Some(value.parse().map_err(|e| at(format!("{e}")))?)
                }
                "expect.p99_latency" => b.expect.p99_latency = Some(num(value, at)?),
                "expect.no_stall" => b.expect.no_stall = flag(value)?,
                "expect.no_aborts" => b.expect.no_aborts = flag(value)?,
                "expect.no_refusals" => b.expect.no_refusals = flag(value)?,
                "expect.allow_partial" => b.expect.allow_partial = flag(value)?,
                "expected_verdict" => {
                    b.expected = match value {
                        "pass" => VerdictStatus::Pass,
                        "fail" => VerdictStatus::Fail,
                        _ => {
                            return Err(at(format!(
                                "expected_verdict must be pass or fail, got {value:?}"
                            )))
                        }
                    }
                }
                "chaos_opt_in" => b.chaos_opt_in = flag(value)?,
                other => return Err(at(format!("unknown key {other:?}"))),
            }
        }
        b.geometry = geometry(k, n).map_err(|e| format!("{origin}:{geometry_ln}: {e}"))?;
        b.network = match network_kind.as_str() {
            "tmin" => NetworkSpec::Tmin(wiring),
            "dmin" => NetworkSpec::Dmin(wiring, dilation),
            "vmin" => NetworkSpec::Vmin(wiring, vcs),
            "bmin" => NetworkSpec::Bmin,
            other => return Err(format!("{origin}: unknown network {other:?}")),
        };
        if has_chaos {
            b.chaos = Some(chaos);
        }
        b.build().map_err(|e| format!("{origin}: {e}"))
    }

    /// [`Scenario::parse`] a file from disk.
    ///
    /// # Errors
    ///
    /// I/O problems plus everything `parse` rejects.
    pub fn load(path: &Path) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Scenario::parse(&text, &path.display().to_string())
    }
}

// ---- scenario sets ---------------------------------------------------

/// The scenario files a path denotes: the file itself, or every `.scn`
/// directly inside a directory, sorted by file name so run order (and
/// the verdict report) is stable.
///
/// # Errors
///
/// I/O problems, and a directory containing no `.scn` files at all.
pub fn scenario_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let entries = std::fs::read_dir(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "scn"))
        .collect();
    if files.is_empty() {
        return Err(format!(
            "{}: no .scn scenario files found",
            path.display()
        ));
    }
    files.sort();
    Ok(files)
}

/// The verdicts of one scenario-library run, plus the chaos-gated
/// scenarios that were skipped.
#[derive(Clone, Debug)]
pub struct ScenarioSet {
    /// One verdict per executed scenario, in run order.
    pub verdicts: Vec<Verdict>,
    /// Names of chaos-gated scenarios skipped (chaos not included).
    pub skipped: Vec<String>,
}

impl ScenarioSet {
    /// Whether every executed scenario ended as it declared it would.
    pub fn all_as_expected(&self) -> bool {
        self.verdicts.iter().all(Verdict::as_expected)
    }
}

/// Load and run a list of scenario files in order. Chaos-gated
/// scenarios are skipped unless `include_chaos`; `checkpoint_dir`, when
/// given, checkpoints each scenario to `<dir>/<name>.ckpt` for resume.
///
/// # Errors
///
/// Load/parse failures and the infrastructure errors of
/// [`Scenario::run`] (a failed expectation is a `Fail` verdict, not an
/// error).
pub fn run_scenario_files(
    paths: &[PathBuf],
    threads: usize,
    retries: u32,
    include_chaos: bool,
    checkpoint_dir: Option<&Path>,
) -> Result<ScenarioSet, String> {
    run_scenario_files_with_budget(paths, threads, retries, include_chaos, checkpoint_dir, None)
}

/// [`run_scenario_files`] with an externally imposed run budget: when
/// `budget_override` is `Some`, each scenario's declared budget is
/// tightened via [`Scenario::override_budget`] before it runs (nonzero
/// fields replace, zero fields keep the declared value). This is the
/// CLI's `minnet scenario run --budget-cycles/--budget-ms` passthrough:
/// a whole library can be bounded without editing any `.scn` file.
///
/// # Errors
///
/// Same as [`run_scenario_files`].
pub fn run_scenario_files_with_budget(
    paths: &[PathBuf],
    threads: usize,
    retries: u32,
    include_chaos: bool,
    checkpoint_dir: Option<&Path>,
    budget_override: Option<RunBudget>,
) -> Result<ScenarioSet, String> {
    let mut verdicts = Vec::new();
    let mut skipped = Vec::new();
    for path in paths {
        let mut scenario = Scenario::load(path)?;
        if let Some(budget) = budget_override {
            scenario.override_budget(budget);
        }
        if scenario.is_chaos_opt_in() && !include_chaos {
            skipped.push(scenario.name().to_string());
            continue;
        }
        let policy = CampaignPolicy {
            retries,
            checkpoint: checkpoint_dir.map(|d| d.join(format!("{}.ckpt", scenario.name()))),
            require_existing: false,
        };
        verdicts.push(scenario.run(threads, &policy)?);
    }
    Ok(ScenarioSet { verdicts, skipped })
}

// ---- verdict JSON ----------------------------------------------------

/// One verdict as a JSON object. Contains no wall-clock data and no
/// raw floats (delivery appears as exact delivered/generated integers),
/// so repeated runs serialize byte-identically.
fn verdict_json(v: &Verdict) -> String {
    use std::fmt::Write;
    let mut s = format!(
        "{{\"name\":\"{}\",\"status\":\"{}\",\"expected\":\"{}\",\"as_expected\":{}",
        esc(&v.scenario),
        v.status.as_str(),
        v.expected.as_str(),
        v.as_expected()
    );
    s.push_str(",\"checks\":[");
    for (i, c) in v.checks.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"what\":\"{}\",\"status\":\"{}\",\"detail\":\"{}\"}}",
            esc(&c.what),
            c.status.as_str(),
            esc(&c.detail)
        );
    }
    s.push_str("],\"points\":[");
    for (i, p) in v.points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"label\":\"{}\",\"outcome\":\"{}\",\"attempts\":{}",
            esc(&p.label),
            p.outcome.tag(),
            p.attempts
        );
        if let Some(r) = p.outcome.report() {
            let _ = write!(
                s,
                ",\"cycles\":{},\"generated\":{},\"delivered\":{},\"aborted\":{},\
                 \"refused\":{},\"p99\":{},\"max_queue\":{},\"sustainable\":{}",
                r.cycles,
                r.generated_packets,
                r.delivered_packets,
                r.aborted_packets,
                r.undeliverable_packets,
                r.p99_latency_cycles,
                r.max_queue,
                r.sustainable
            );
        }
        match &p.outcome {
            PointOutcome::Partial { reason, .. } | PointOutcome::Failed { reason } => {
                let _ = write!(s, ",\"reason\":\"{}\"", esc(reason));
            }
            PointOutcome::Ok(_) => {}
        }
        s.push('}');
    }
    s.push(']');
    if let Some(d) = &v.stall {
        let _ = write!(s, ",\"stall\":{{\"cycle\":{},\"window\":{}", d.cycle, d.window);
        s.push_str(",\"stalled\":[");
        for (i, p) in d.stalled.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"src\":{},\"dst\":{},\"channel\":{},\"sent\":{},\"len\":{},\
                 \"delivered\":{}}}",
                p.src, p.dst, p.head_channel, p.sent, p.len, p.delivered
            );
        }
        s.push_str("],\"held_channels\":[");
        for (i, c) in d.held_channels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{c}");
        }
        s.push(']');
        if let Some(cycle) = &d.suspected_cycle {
            s.push_str(",\"suspected_cycle\":[");
            for (i, p) in cycle.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{p}");
            }
            s.push(']');
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// The verdict report for a whole scenario-library run, as one JSON
/// document (schema in `EXPERIMENTS.md`). Deterministic: byte-identical
/// across repeated runs and thread counts of the same library.
pub fn verdict_report_json(set: &ScenarioSet) -> String {
    use std::fmt::Write;
    let (mut pass, mut partial, mut fail, mut unexpected) = (0usize, 0usize, 0usize, 0usize);
    for v in &set.verdicts {
        match v.status {
            VerdictStatus::Pass => pass += 1,
            VerdictStatus::Partial => partial += 1,
            VerdictStatus::Fail => fail += 1,
        }
        if !v.as_expected() {
            unexpected += 1;
        }
    }
    let mut s = format!(
        "{{\"v\":1,\"total\":{},\"pass\":{pass},\"partial\":{partial},\"fail\":{fail},\
         \"unexpected\":{unexpected},\"skipped\":[",
        set.verdicts.len()
    );
    for (i, name) in set.skipped.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", esc(name));
    }
    s.push_str("],\"scenarios\":[");
    for (i, v) in set.verdicts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&verdict_json(v));
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_builder(name: &str) -> ScenarioBuilder {
        Scenario::builder(name)
            .sizes(MessageSizeDist::Fixed(32))
            .warmup(500)
            .measure(3_000)
    }

    #[test]
    fn builder_validates_workload_and_expectations() {
        // No workload.
        let err = quick_builder("w").expect_sustainable().build().unwrap_err();
        assert!(err.contains("workload"), "{err}");
        // Both workloads.
        let err = quick_builder("w")
            .load(0.2)
            .message(0, 0, 1, 8)
            .expect_sustainable()
            .build()
            .unwrap_err();
        assert!(err.contains("not both"), "{err}");
        // No expectation.
        let err = quick_builder("w").load(0.2).build().unwrap_err();
        assert!(err.contains("expectation"), "{err}");
        // Bad load.
        let err = quick_builder("w")
            .load(1.5)
            .expect_sustainable()
            .build()
            .unwrap_err();
        assert!(err.contains("outside"), "{err}");
        // Bad name.
        let err = Scenario::builder("bad name!")
            .load(0.2)
            .expect_sustainable()
            .build()
            .unwrap_err();
        assert!(err.contains("name"), "{err}");
        // Degenerate fault window.
        let err = quick_builder("w")
            .load(0.2)
            .expect_sustainable()
            .fault(Fault {
                target: FaultTarget::Channel(0),
                onset: 5,
                repair: Some(5),
            })
            .build()
            .unwrap_err();
        assert!(err.contains("empty fault window"), "{err}");
        // Valid.
        assert!(quick_builder("ok-1").load(0.2).expect_sustainable().build().is_ok());
    }

    #[test]
    fn sustainable_scenario_passes_and_saturated_probe_works() {
        let v = quick_builder("base")
            .loads(&[0.1, 0.2])
            .expect_sustainable()
            .expect_delivery(0.5)
            .expect_no_stall()
            .build()
            .unwrap()
            .run(2, &CampaignPolicy::isolate())
            .unwrap();
        assert_eq!(v.status, VerdictStatus::Pass, "{v}");
        assert!(v.as_expected());
        assert_eq!(v.points.len(), 2);
        assert!(v.checks.iter().all(|c| c.status == CheckStatus::Passed));

        // The same network at load 0.9 with a tight queue limit is not
        // sustainable — as a saturation probe *expects*.
        let v = quick_builder("probe")
            .load(0.9)
            .queue_limit(20)
            .expect_saturated()
            .build()
            .unwrap()
            .run(1, &CampaignPolicy::isolate())
            .unwrap();
        assert_eq!(v.status, VerdictStatus::Pass, "{v}");
    }

    #[test]
    fn violated_expectation_fails_with_reasons() {
        let v = quick_builder("too-strict")
            .load(0.2)
            .expect_p99_latency(1)
            .build()
            .unwrap()
            .run(1, &CampaignPolicy::isolate())
            .unwrap();
        assert_eq!(v.status, VerdictStatus::Fail);
        assert!(!v.as_expected());
        let check = v
            .checks
            .iter()
            .find(|c| c.what.contains("p99"))
            .expect("p99 check present");
        assert_eq!(check.status, CheckStatus::Failed);
        assert!(check.detail.contains("load 0.2: p99"), "{}", check.detail);
    }

    #[test]
    fn budget_cut_is_partial_unless_allowed() {
        let strict = quick_builder("budgeted")
            .load(0.2)
            .budget_cycles(1_000)
            .expect_sustainable()
            .build()
            .unwrap()
            .run(1, &CampaignPolicy::isolate())
            .unwrap();
        assert_eq!(strict.status, VerdictStatus::Partial, "{strict}");
        assert!(strict.points[0].outcome.is_partial());

        let lenient = quick_builder("budgeted")
            .load(0.2)
            .budget_cycles(1_000)
            .expect_sustainable()
            .allow_partial()
            .build()
            .unwrap()
            .run(1, &CampaignPolicy::isolate())
            .unwrap();
        assert_eq!(lenient.status, VerdictStatus::Pass, "{lenient}");
    }

    #[test]
    fn parse_round_trips_a_full_file() {
        let text = "\
# A scenario exercising every key class.
name = full-demo
description = parses every key
network = vmin
vcs = 2
wiring = cube
k = 4
n = 3
pattern = hotspot:0.05
sizes = fixed:32
loads = 0.1, 0.2
seed = 99
warmup = 500
measure = 3000
queue_limit = 64
buffer_depth = 2
watchdog_window = 10000
fault_abort = on
budget_cycles = 0
budget_ms = 0
fault = channel 7 @ 100..500
fault = lane 9.1 @ 200..
fault = switch 3
chaos.target = lane
chaos.count = 2
chaos.min_onset = 100
chaos.max_onset = 400
chaos.duration = 150
chaos.cooldown = 50
chaos.rounds = 2
expect.sustainable = true
expect.delivery = 0.8
expect.p99_latency = 50000
expect.no_stall = true
expect.allow_partial = true
expected_verdict = pass
chaos_opt_in = true
";
        let s = Scenario::parse(text, "full-demo.scn").unwrap();
        assert_eq!(s.name(), "full-demo");
        assert_eq!(s.description(), "parses every key");
        assert!(s.is_chaos_opt_in());
        assert_eq!(s.expected_verdict(), VerdictStatus::Pass);
        assert_eq!(s.experiment().network, NetworkSpec::vmin(2));
        assert!(matches!(
            s.experiment().pattern,
            TrafficPattern::HotSpot { .. }
        ));
        assert_eq!(s.loads, vec![0.1, 0.2]);
        assert_eq!(s.faults.len(), 3);
        assert_eq!(
            s.faults.faults()[0],
            Fault::transient(FaultTarget::Channel(7), 100, 500)
        );
        assert_eq!(
            s.faults.faults()[1],
            Fault {
                target: FaultTarget::Lane { channel: 9, vc: 1 },
                onset: 200,
                repair: None
            }
        );
        assert_eq!(
            s.faults.faults()[2],
            Fault::permanent(FaultTarget::Switch(3))
        );
        let chaos = s.chaos.expect("chaos block parsed");
        assert_eq!(chaos.target, ChaosTarget::Lane);
        assert_eq!((chaos.count, chaos.rounds), (2, 2));
        assert_eq!(s.expect.delivery, Some(0.8));
        assert!(s.expect.no_stall && s.expect.allow_partial);
        assert_eq!(s.experiment().sim.seed, 99);
        assert!(s.experiment().sim.fault_abort);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values_with_line_numbers() {
        let err = Scenario::parse("loads = 0.2\nbogus_key = 1\n", "x.scn").unwrap_err();
        assert!(err.contains("x.scn:2"), "{err}");
        assert!(err.contains("bogus_key"), "{err}");
        let err = Scenario::parse("loads = abc\n", "x.scn").unwrap_err();
        assert!(err.contains("x.scn:1"), "{err}");
        let err = Scenario::parse("fault = channel 3 @ 10\n", "x.scn").unwrap_err();
        assert!(err.contains("onset..repair"), "{err}");
        // Lane and dilation counts beyond `u8` are errors, not wrapped.
        for line in ["vcs = 300", "dilation = 256", "fault = lane 3.256"] {
            let err = Scenario::parse(&format!("loads = 0.2\n{line}\n"), "x.scn").unwrap_err();
            assert!(err.contains("x.scn:2") && err.contains("too large"), "{line}: {err}");
        }
        // …and so is every other number past the type it is stored in
        // (`buffer_depth = 65537` used to run at depth 1, `fault =
        // channel 4294967396` as channel 100).
        for line in [
            "buffer_depth = 65537",
            "chaos.rounds = 4294967297",
            "queue_limit = 18446744073709551616",
            "message = 0 4294967296 1 8",
            "message = 0 0 4294967297 8",
            "message = 0 0 1 4294967304",
            "fault = channel 4294967396",
            "fault = switch 4294967297",
            "fault = lane 4294967396.0",
        ] {
            let err = Scenario::parse(&format!("loads = 0.2\n{line}\n"), "x.scn").unwrap_err();
            assert!(err.starts_with("x.scn:2: number too large"), "{line}: {err}");
        }
        // A geometry no graph can be built for names the line that made
        // it so (this used to panic inside `Geometry::new`, or truncate).
        for (lines, at) in [
            ("k = 1\nn = 2", "x.scn:2: k = 1:"),
            ("k = 4\nn = 17", "x.scn:3: n = 17:"),
            ("k = 300\nn = 1", "x.scn:2: k = 300:"),
            ("k = 32\nn = 9", "x.scn:3: k = 32, n = 9:"),
            ("n = 9\nk = 32", "x.scn:3: k = 32, n = 9:"),
            ("k = 4294967300", "x.scn:2: number too large"),
        ] {
            let err = Scenario::parse(&format!("loads = 0.2\n{lines}\n"), "x.scn").unwrap_err();
            assert!(err.starts_with(at), "{lines:?}: {err}");
        }
        // …and neither key is judged against the other's default: 4^16
        // overflows, 2^16 does not.
        let text = "loads = 0.2\nn = 16\nk = 2\nexpect.sustainable = true\n";
        let wide = Scenario::parse(text, "x.scn").unwrap();
        assert_eq!(wide.experiment().geometry.nodes(), 1 << 16);
        let err =
            Scenario::parse("expected_verdict = maybe\nloads = 0.1\n", "x.scn").unwrap_err();
        assert!(err.contains("pass or fail"), "{err}");
        // Name defaults from the origin stem.
        let s = Scenario::parse(
            "loads = 0.2\nwarmup = 100\nmeasure = 500\nexpect.sustainable = true\n",
            "/tmp/stem-name.scn",
        )
        .unwrap();
        assert_eq!(s.name(), "stem-name");
    }

    #[test]
    fn chaos_scenario_is_deterministic_across_threads() {
        let build = || {
            quick_builder("chaos-det")
                .network(NetworkSpec::Bmin)
                .loads(&[0.15, 0.25])
                .seed(1234)
                .chaos(ChaosSchedule {
                    target: ChaosTarget::Channel,
                    count: 2,
                    min_onset: 200,
                    max_onset: 800,
                    duration: 300,
                    cooldown: 100,
                    rounds: 2,
                })
                .expect_delivery(0.2)
                .build()
                .unwrap()
        };
        let a = build().run(1, &CampaignPolicy::isolate()).unwrap();
        let b = build().run(4, &CampaignPolicy::isolate()).unwrap();
        let set_a = ScenarioSet {
            verdicts: vec![a],
            skipped: vec![],
        };
        let set_b = ScenarioSet {
            verdicts: vec![b],
            skipped: vec![],
        };
        assert_eq!(
            verdict_report_json(&set_a),
            verdict_report_json(&set_b),
            "verdict JSON must be thread-count invariant"
        );
    }

    #[test]
    fn verdict_json_shape_is_wellformed() {
        let v = quick_builder("shape")
            .load(0.2)
            .expect_sustainable()
            .build()
            .unwrap()
            .run(1, &CampaignPolicy::isolate())
            .unwrap();
        let set = ScenarioSet {
            verdicts: vec![v],
            skipped: vec!["gated".to_string()],
        };
        let json = verdict_report_json(&set);
        assert!(json.starts_with("{\"v\":1,"));
        assert!(json.contains("\"skipped\":[\"gated\"]"));
        assert!(json.contains("\"name\":\"shape\""));
        assert!(json.contains("\"status\":\"pass\""));
        assert!(json.contains("\"checks\":["));
        assert!(json.contains("\"points\":["));
        assert!(json.ends_with("]}\n"));
        // No wall-clock or float keys sneak in.
        assert!(!json.contains("wall"));
        assert!(!json.contains("_bits"));
    }
}
