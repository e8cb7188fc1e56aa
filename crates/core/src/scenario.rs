//! Declarative scenarios: topology + workload + faults/chaos + budgets +
//! expectations, compiled onto the campaign runner and judged into
//! structured verdicts.
//!
//! A [`Scenario`] is everything one evaluation story needs, as *data*:
//!
//! * the network shape (a [`NetworkSpec`] and
//!   [`Geometry`](minnet_topology::Geometry)),
//! * a workload — Poisson offered loads or a deterministic message
//!   script,
//! * scheduled faults: an explicit [`FaultPlan`] and/or a seeded
//!   [`ChaosSchedule`] (restart-style transient storms),
//! * engine settings including [`minnet_sim::RunBudget`] and the
//!   no-progress watchdog,
//! * and **expectations** — the SLOs the run must meet:
//!   `expect.sustainable`, `expect.delivery`, `expect.p99_latency`,
//!   `expect.no_stall`, …
//!
//! A scenario is declared one way: as `.scn` text ([`Scenario::parse`] /
//! [`Scenario::load`]), a line-oriented `key = value` format documented
//! in `EXPERIMENTS.md` and exemplified by the `scenarios/` library at
//! the repository root. Its experiment keys go to
//! [`crate::spec::Settings`], the reader every door shares; the rest are
//! the scenario's own.
//!
//! Running a scenario ([`Scenario::run`]) hands it to the runner every
//! door shares, in [`crate::campaign`]: each load (or the script) is one
//! task, so panic isolation, deterministic retries, and config-hash-keyed
//! JSONL checkpoint/resume all come for free. What is the scenario's own
//! is its identity and the judging: the result is a [`Verdict`] —
//! pass/fail/partial with one [`CheckResult`] per expectation (each
//! carrying a human-readable reason), per-point outcomes, and — when the
//! watchdog fired — the structured [`StallDiagnostic`].
//!
//! Determinism: a baseline scenario is bit-deterministic by the engine's
//! contract; a chaos scenario stays deterministic because the storm is
//! expanded from `mix(scenario seed, CHAOS_SALT)` and nothing else.
//! Verdict reports contain no wall-clock data, so
//! [`verdict_report_json`] is byte-identical across repeated runs and
//! thread counts (pinned by the workspace e2e tests).

use crate::campaign::{config_hash, execute, CampaignPolicy, Executed, Job, PointOutcome};
use crate::experiment::Experiment;
use crate::jsonl::{array, esc};
use crate::spec::{self, NetworkSpec, Settings};
use minnet_sim::{ChaosSchedule, ChaosTarget, RunBudget, ScriptedMsg, SimReport, StallDiagnostic};
use minnet_topology::{Fault, FaultPlan, FaultTarget};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

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

impl CheckResult {
    /// `what`, passed when nothing is `failing`, else failed naming each
    /// failure.
    fn of(what: String, failing: Vec<String>) -> CheckResult {
        let status = if failing.is_empty() { CheckStatus::Passed } else { CheckStatus::Failed };
        CheckResult { what, status, detail: failing.join("; ") }
    }
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
struct Expectations {
    /// `Some(true)`: every point must be sustainable (the paper's queue
    /// criterion); `Some(false)`: every point must be saturated.
    sustainable: Option<bool>,
    /// Minimum delivered/generated fraction per point.
    delivery: Option<f64>,
    /// Maximum p99 latency in cycles per point.
    p99_latency: Option<u64>,
    /// No task may trip the no-progress watchdog.
    no_stall: bool,
    /// No point may abort packets mid-flight.
    no_aborts: bool,
    /// No point may refuse packets at injection as undeliverable.
    no_refusals: bool,
    /// Budget-cut (partial) reports count as evaluable data and do not
    /// demote the verdict.
    allow_partial: bool,
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

/// A fully validated, runnable scenario: `.scn` text through
/// [`Scenario::parse`], or a file through [`Scenario::load`].
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

    /// Tighten the scenario's declared run budget from outside — the
    /// CLI's `--budget-cycles` / `--budget-ms` passthrough. Each field
    /// becomes the tighter of the two nonzero values (zero is "no
    /// limit"): a cap never loosens what the file declares, and a zero
    /// field keeps the declared value, so a caller can cap cycles without
    /// disturbing a wall budget (or vice versa).
    pub fn override_budget(&mut self, budget: RunBudget) {
        fn tighter(declared: u64, cap: u64) -> u64 {
            match (declared, cap) {
                (0, limit) | (limit, 0) => limit,
                (declared, cap) => declared.min(cap),
            }
        }
        let own = &mut self.exp.sim.budget;
        own.max_cycles = tighter(own.max_cycles, budget.max_cycles);
        own.max_wall_ms = tighter(own.max_wall_ms, budget.max_wall_ms);
    }

    /// Run the scenario on the one runner and judge it into a
    /// [`Verdict`]. Task `i` runs with seed `mix(scenario seed, i + 1)`
    /// and the chaos storm expands from `mix(scenario seed, CHAOS_SALT)`,
    /// so verdicts are thread-count invariant and bitwise reproducible.
    /// The identity (kind `scenario`) hashes the experiment with its
    /// `sim.vcs` set to the network's lane count, as identity v1 always
    /// has, plus name, loads, script, merged fault plan and expectations.
    ///
    /// One caveat on resume: a [`StallDiagnostic`] is not persisted to
    /// checkpoints — a task preloaded from one keeps its `Failed` reason
    /// (and the verdict status), but `Verdict::stall` and the `no stall`
    /// check reflect only the tasks that ran in this process.
    ///
    /// # Errors
    ///
    /// Reports invalid configurations (network, workload, fault plan,
    /// chaos schedule) and checkpoint I/O or mismatch problems. An
    /// expectation *violation* is not an error — it is a `Fail`
    /// verdict.
    pub fn run(&self, threads: usize, policy: &CampaignPolicy) -> Result<Verdict, String> {
        let job = Job {
            script: &self.script,
            faults: Some(&self.faults),
            chaos: self.chaos.as_ref(),
            ..Job::curve(&self.exp, &self.loads)
        };
        let identity = |plan: &FaultPlan| {
            let mut exp = self.exp.clone();
            exp.sim.vcs = exp.network.vcs();
            let params = format!(
                "name={};loads={:?};script={:?};plan={plan:?};expect={:?}",
                self.name, self.loads, self.script, self.expect
            );
            config_hash("scenario", &exp, &params, policy.retries)
        };
        let ran = execute(&job, "scenario", &identity, threads, policy)
            .map_err(|e| format!("scenario {}: {e}", self.name))?;
        Ok(self.judge(ran))
    }

    /// Evaluate expectations over the runner's outcomes into a
    /// [`Verdict`].
    fn judge(&self, ran: Executed) -> Verdict {
        let labels: Vec<String> = if self.script.is_empty() {
            self.loads.iter().map(|l| format!("load {l}")).collect()
        } else {
            vec!["script".to_string()]
        };
        let stalls = ran.stalls;
        let points: Vec<ScenarioPoint> = ran
            .outcomes
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
            } else {
                CheckResult::of(what, failing)
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
            let stalled = stalls.iter().zip(&labels);
            let failing =
                stalled.filter_map(|(s, label)| s.as_ref().map(|d| format!("{label}: {d}")));
            checks.push(CheckResult::of("no stall".to_string(), failing.collect()));
        }
        // The implicit completion check: failed points sink a scenario
        // even without a declared expectation on them.
        let failing = points.iter().filter_map(|p| match &p.outcome {
            PointOutcome::Failed { reason } => Some(format!("{}: {reason}", p.label)),
            _ => None,
        });
        checks.push(CheckResult::of("all points completed".to_string(), failing.collect()));

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

impl Scenario {
    /// Refuse what no run can judge once the keys are read.
    ///
    /// # Errors
    ///
    /// Reports an invalid name, a missing or doubled workload, a missing
    /// expectation, degenerate fault windows, and invalid chaos
    /// parameters.
    fn validate(&self) -> Result<(), String> {
        let fail = |e: &str| Err(format!("scenario {}: {e}", self.name));
        let named = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        if self.name.is_empty() || !self.name.chars().all(named) {
            return Err(format!(
                "scenario name {:?} must be non-empty [A-Za-z0-9_-] (it names \
                 checkpoint and report entries)",
                self.name
            ));
        }
        match (self.loads.is_empty(), self.script.is_empty()) {
            (true, true) => return fail("declare a workload: loads = … or message = …"),
            (false, false) => return fail("declare either Poisson loads or a script, not both"),
            _ => {}
        }
        if !self.expect.any() {
            return fail(
                "declare at least one expectation (expect.sustainable, \
                 expect.delivery, expect.p99_latency, expect.no_stall, …)",
            );
        }
        // Window sanity that needs no network; out-of-range targets are
        // caught at run time against the built graph.
        for (i, f) in self.faults.faults().iter().enumerate() {
            if let Some(r) = f.repair.filter(|&r| r <= f.onset) {
                let why = format!("fault {i}: repair cycle {r} is not after onset {}", f.onset);
                return fail(&format!("{why} (empty fault window)"));
            }
        }
        let chaos = self.chaos.as_ref().map(ChaosSchedule::validate);
        chaos.transpose().map(drop).or_else(|e| fail(&e.to_string()))
    }
}

// ---- scenario file format --------------------------------------------

impl Scenario {
    /// Parse the scenario file format: one `key = value` per line, `#`
    /// comments, blank lines ignored. `origin` labels error messages
    /// (usually the file name) and, stemmed, provides the default
    /// `name`. The format is documented in `EXPERIMENTS.md`; the
    /// `scenarios/` library is the living reference. The experiment's
    /// keys go to [`Settings`], the reader every door shares; this
    /// function reads only the scenario's own: name, description, loads,
    /// messages, faults, `chaos.*`, `expect.*`, `expected_verdict` and
    /// `chaos_opt_in`.
    ///
    /// # Errors
    ///
    /// Reports unknown keys, malformed values, and what no run can judge:
    /// what [`Settings`] refuses, an invalid name, a missing or doubled
    /// workload, out-of-range loads or delivery fractions, no expectation
    /// at all, empty fault windows, invalid chaos parameters — labeled
    /// `origin:line` where one line is at fault (the last of several keys
    /// judged together), `origin` otherwise.
    pub fn parse(text: &str, origin: &str) -> Result<Scenario, String> {
        let stem = Path::new(origin).file_stem().map(|s| s.to_string_lossy().into_owned());
        let mut s = Scenario {
            name: stem.unwrap_or_default(),
            description: String::new(),
            // The reader's experiment, once every key is read.
            exp: Experiment::paper_default(NetworkSpec::tmin()),
            loads: Vec::new(),
            script: Vec::new(),
            faults: FaultPlan::new(),
            chaos: None,
            expect: Expectations::default(),
            expected: VerdictStatus::Pass,
            chaos_opt_in: false,
        };
        let mut settings = Settings::default();
        // The line that last set a key, by the key a refusal is charged to.
        let mut lines = BTreeMap::new();
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
        // `fault = channel 4294967396` is an error, not channel 100; `at`
        // labels the error with its line.
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
                spec::parse_flag(v).ok_or_else(|| at(format!("expected true/false, got {v:?}")))
            };
            match key {
                "name" => s.name = value.to_string(),
                "description" => s.description = value.to_string(),
                "loads" => {
                    let loads = spec::parse_loads(value).map_err(|e| at(format!("loads: {e}")))?;
                    s.loads.extend(loads);
                }
                "message" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() != 4 {
                        return Err(at(format!(
                            "message needs `time src dst len`, got {value:?}"
                        )));
                    }
                    s.script.push(ScriptedMsg {
                        time: num(parts[0], at)?,
                        src: num(parts[1], at)?,
                        dst: num(parts[2], at)?,
                        len: num(parts[3], at)?,
                    });
                }
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
                    s.faults.push(fault);
                }
                chaos_key if chaos_key.starts_with("chaos.") => {
                    has_chaos = true;
                    match &chaos_key["chaos.".len()..] {
                        "target" => {
                            chaos.target = match value {
                                "channel" => ChaosTarget::Channel,
                                "lane" => ChaosTarget::Lane,
                                "switch" => ChaosTarget::Switch,
                                _ => return Err(at(format!("unknown chaos target {value:?}"))),
                            }
                        }
                        "count" => chaos.count = num(value, at)?,
                        "min_onset" => chaos.min_onset = num(value, at)?,
                        "max_onset" => chaos.max_onset = num(value, at)?,
                        "duration" => chaos.duration = num(value, at)?,
                        "cooldown" => chaos.cooldown = num(value, at)?,
                        "rounds" => chaos.rounds = num(value, at)?,
                        _ => return Err(at(format!("unknown key {key:?}"))),
                    }
                }
                "expect.sustainable" => s.expect.sustainable = Some(flag(value)?),
                "expect.delivery" => {
                    let frac: f64 = value.parse().map_err(|e| at(format!("{e}")))?;
                    // A `NaN` floor would judge `delivery >= NaN` as
                    // passed; no run can meet one above 1.
                    if !(0.0..=1.0).contains(&frac) {
                        return Err(at(format!(
                            "expect.delivery = {value} is not a fraction in [0, 1]"
                        )));
                    }
                    s.expect.delivery = Some(frac);
                }
                "expect.p99_latency" => s.expect.p99_latency = Some(num(value, at)?),
                "expect.no_stall" => s.expect.no_stall = flag(value)?,
                "expect.no_aborts" => s.expect.no_aborts = flag(value)?,
                "expect.no_refusals" => s.expect.no_refusals = flag(value)?,
                "expect.allow_partial" => s.expect.allow_partial = flag(value)?,
                "expected_verdict" => {
                    s.expected = match value {
                        "pass" => VerdictStatus::Pass,
                        "fail" => VerdictStatus::Fail,
                        _ => {
                            return Err(at(format!(
                                "expected_verdict must be pass or fail, got {value:?}"
                            )))
                        }
                    }
                }
                "chaos_opt_in" => s.chaos_opt_in = flag(value)?,
                _ => {
                    settings.set(key, value).map_err(|r| at(r.to_string()))?;
                    lines.insert(Settings::charged(key), ln);
                }
            }
        }
        s.exp = settings.finish().map_err(|r| match lines.get(r.key.as_str()) {
            Some(ln) => format!("{origin}:{ln}: {r}"),
            None => format!("{origin}: {r}"),
        })?;
        if has_chaos {
            s.chaos = Some(chaos);
        }
        s.validate().map_err(|e| format!("{origin}: {e}"))?;
        Ok(s)
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
/// A `budget_override` tightens each scenario's declared budget through
/// [`Scenario::override_budget`] before it runs (a nonzero field takes
/// the tighter of the two limits, a zero field keeps the declared value):
/// the CLI's `minnet scenario run
/// --budget-cycles/--budget-ms` passthrough bounds a whole library
/// without editing any `.scn` file.
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
    let mut s = format!(
        "{{\"name\":\"{}\",\"status\":\"{}\",\"expected\":\"{}\",\"as_expected\":{}",
        esc(&v.scenario),
        v.status.as_str(),
        v.expected.as_str(),
        v.as_expected()
    );
    s.push_str(",\"checks\":");
    array(&mut s, &v.checks, |s, c| {
        let _ = write!(
            s,
            "{{\"what\":\"{}\",\"status\":\"{}\",\"detail\":\"{}\"}}",
            esc(&c.what),
            c.status.as_str(),
            esc(&c.detail)
        );
    });
    s.push_str(",\"points\":");
    array(&mut s, &v.points, |s, p| {
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
    });
    if let Some(d) = &v.stall {
        let _ = write!(s, ",\"stall\":{{\"cycle\":{},\"window\":{}", d.cycle, d.window);
        s.push_str(",\"stalled\":");
        array(&mut s, &d.stalled, |s, p| {
            let _ = write!(
                s,
                "{{\"src\":{},\"dst\":{},\"channel\":{},\"sent\":{},\"len\":{},\
                 \"delivered\":{}}}",
                p.src, p.dst, p.head_channel, p.sent, p.len, p.delivered
            );
        });
        s.push_str(",\"held_channels\":");
        array(&mut s, &d.held_channels, |s, c| {
            let _ = write!(s, "{c}");
        });
        if let Some(cycle) = &d.suspected_cycle {
            s.push_str(",\"suspected_cycle\":");
            array(&mut s, cycle, |s, p| {
                let _ = write!(s, "{p}");
            });
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
         \"unexpected\":{unexpected},\"skipped\":",
        set.verdicts.len()
    );
    array(&mut s, &set.skipped, |s, name| {
        let _ = write!(s, "\"{}\"", esc(name));
    });
    s.push_str(",\"scenarios\":");
    array(&mut s, &set.verdicts, |s, v| s.push_str(&verdict_json(v)));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnet_traffic::TrafficPattern;

    /// `lines` of `.scn` text over 32-flit messages and a short window.
    fn quick(lines: &str) -> Result<Scenario, String> {
        let text = format!("sizes = fixed:32\nwarmup = 500\nmeasure = 3000\n{lines}\n");
        Scenario::parse(&text, "quick.scn")
    }

    #[test]
    fn draft_validation_refuses_what_no_run_can_judge() {
        for (lines, want) in [
            ("expect.sustainable = true", "workload"),
            ("loads = 0.2\nmessage = 0 0 1 8\nexpect.sustainable = true", "not both"),
            ("loads = 0.2", "expectation"),
            ("loads = 1.5\nexpect.sustainable = true", "outside"),
            ("name = bad name!\nloads = 0.2\nexpect.sustainable = true", "name"),
            (
                "loads = 0.2\nexpect.sustainable = true\nfault = channel 0 @ 5..5",
                "empty fault window",
            ),
        ] {
            let err = quick(lines).unwrap_err();
            assert!(err.contains(want), "{lines:?}: {err}");
        }
        assert!(quick("name = ok-1\nloads = 0.2\nexpect.sustainable = true").is_ok());
    }

    #[test]
    fn sustainable_scenario_passes_and_saturated_probe_works() {
        let v = quick(
            "name = base\nloads = 0.1, 0.2\nexpect.sustainable = true\n\
             expect.delivery = 0.5\nexpect.no_stall = true",
        )
        .unwrap()
        .run(2, &CampaignPolicy::default())
        .unwrap();
        assert_eq!(v.status, VerdictStatus::Pass, "{v}");
        assert!(v.as_expected());
        assert_eq!(v.points.len(), 2);
        assert!(v.checks.iter().all(|c| c.status == CheckStatus::Passed));

        // The same network at load 0.9 with a tight queue limit is not
        // sustainable — as a saturation probe *expects*.
        let v = quick("name = probe\nloads = 0.9\nqueue_limit = 20\nexpect.sustainable = false")
            .unwrap()
            .run(1, &CampaignPolicy::default())
            .unwrap();
        assert_eq!(v.status, VerdictStatus::Pass, "{v}");
    }

    #[test]
    fn violated_expectation_fails_with_reasons() {
        let v = quick("name = too-strict\nloads = 0.2\nexpect.p99_latency = 1")
            .unwrap()
            .run(1, &CampaignPolicy::default())
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
        let budgeted = "name = budgeted\nloads = 0.2\nbudget_cycles = 1000\nexpect.sustainable = true";
        let strict = quick(budgeted).unwrap().run(1, &CampaignPolicy::default()).unwrap();
        assert_eq!(strict.status, VerdictStatus::Partial, "{strict}");
        assert!(strict.points[0].outcome.is_partial());

        let lenient = quick(&format!("{budgeted}\nexpect.allow_partial = true"))
            .unwrap()
            .run(1, &CampaignPolicy::default())
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
        assert_eq!(s.faults.faults().len(), 3);
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
        // A delivery floor is a fraction: a `NaN` one would judge
        // `delivery >= NaN` as passed, and no run can meet one above 1.
        for value in ["NaN", "inf", "1.5", "-0.1"] {
            let err = Scenario::parse(&format!("loads = 0.2\nexpect.delivery = {value}\n"), "x.scn")
                .unwrap_err();
            assert!(err.starts_with("x.scn:2: expect.delivery"), "{value}: {err}");
        }
        for value in ["0", "1"] {
            let s = quick(&format!("loads = 0.2\nexpect.delivery = {value}")).unwrap();
            assert_eq!(s.expect.delivery, Some(value.parse().unwrap()));
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
        // A vocabulary value no run can use names its line and key; the
        // network, four keys judged together, the last of their lines.
        for (lines, at) in [
            ("sizes = fixed:0", "x.scn:2: sizes: messages must have at least one flit"),
            ("pattern = hotspot:NaN", "x.scn:2: pattern: hot-spot extra fraction"),
            ("network = vmin\nvcs = 65", "x.scn:3: network: at most 64 virtual channels"),
            ("dilation = 0\nnetwork = dmin", "x.scn:3: network: dilation must be at least 1"),
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
            quick(
                "name = chaos-det\nnetwork = bmin\nloads = 0.15, 0.25\nseed = 1234\n\
                 chaos.target = channel\nchaos.count = 2\nchaos.min_onset = 200\n\
                 chaos.max_onset = 800\nchaos.duration = 300\nchaos.cooldown = 100\n\
                 chaos.rounds = 2\nexpect.delivery = 0.2",
            )
            .unwrap()
        };
        let a = build().run(1, &CampaignPolicy::default()).unwrap();
        let b = build().run(4, &CampaignPolicy::default()).unwrap();
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
        let v = quick("name = shape\nloads = 0.2\nexpect.sustainable = true")
            .unwrap()
            .run(1, &CampaignPolicy::default())
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
