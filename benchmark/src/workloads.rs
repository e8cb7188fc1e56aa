//! The five workloads, driven from outside: every CLI workload is a
//! list of `minnet` command lines run one after another with
//! `--threads 1`; `daemon_jobs` is a real `minnetd` with one worker and
//! one closed-loop client. The programs receive only generated argv,
//! the committed `.scn` files and wire lines.

use crate::host::Programs;
use crate::json::Fnv;
use crate::proc::{self, Usage};
use minnet::{Experiment, JobSpec, NetworkSpec, Response, ServiceClient};
use minnet_topology::Geometry;
use minnet_traffic::MessageSizeDist;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Jobs per `daemon_jobs` round (each submitted cold, then again as a
/// cache hit).
pub const JOBS: usize = 100;
/// Checkpoint/resume pairs per network per `lowload_checkpointed` round.
pub const LOWLOAD_REPS: usize = 3;
/// The harness's own `result` poll interval (`wait_result` sleeps 10 ms,
/// which would dominate a 12 ms job).
const POLL: Duration = Duration::from_micros(500);

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    PaperLineup,
    LowloadCheckpointed,
    Scale1k,
    ScenarioLibrary,
    DaemonJobs,
}

impl Workload {
    /// Round order; matches `metrics::WORKLOADS`.
    pub const ALL: [Workload; 5] = [
        Workload::PaperLineup,
        Workload::LowloadCheckpointed,
        Workload::Scale1k,
        Workload::ScenarioLibrary,
        Workload::DaemonJobs,
    ];

    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize]
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Null runs per round: the shorter the null run, the more of them,
    /// so that the run's median set-up rests on enough samples.
    pub fn setup_reps(self, smoke: bool) -> usize {
        if smoke {
            return 1;
        }
        match self {
            Workload::PaperLineup | Workload::ScenarioLibrary => 9,
            Workload::LowloadCheckpointed | Workload::DaemonJobs => 5,
            Workload::Scale1k => 2,
        }
    }
}

/// Everything a round needs to know about its surroundings.
pub struct Ctx {
    pub root: PathBuf,
    pub programs: Programs,
    /// Scratch directory under `benchmark/out/`.
    pub work: PathBuf,
    pub seed: u64,
    /// `--smoke`: simulation windows ÷ 10, goldens skipped.
    pub smoke: bool,
}

impl Ctx {
    fn window(&self, cycles: u64) -> u64 {
        if self.smoke {
            cycles / 10
        } else {
            cycles
        }
    }

    /// A clean scratch directory for `workload`.
    pub fn workdir(&self, workload: Workload) -> Result<PathBuf, String> {
        let dir = self.work.join(workload.name());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One `minnet sweep` invocation, as argv for the CLI and as an
/// [`Experiment`] for the in-process replay — the CSV byte-equality
/// check between the two paths keeps the two renderings honest.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// File-name and metric-name segment (`tmin`, `bmin1k`, …).
    pub tag: &'static str,
    pub network: NetworkSpec,
    pub k: u32,
    pub n: u32,
    /// Loads as the argv spells them; the replay parses the same text.
    pub loads: Vec<String>,
    /// `fixed:<flits>` message sizes, or the paper's distribution.
    pub fixed_size: Option<u32>,
    pub warmup: u64,
    pub measure: u64,
}

impl Sweep {
    pub fn loads_f64(&self) -> Vec<f64> {
        self.loads
            .iter()
            .map(|l| l.parse().expect("loads are generated as decimal text"))
            .collect()
    }

    /// The argv of this sweep. A *null* sweep keeps every argument but
    /// simulates one cycle: process start, argv, graph, table and
    /// template compile, CSV — the workload's set-up and nothing else.
    pub fn argv(&self, seed: u64, null: bool, extra: &[String]) -> Vec<String> {
        let mut a: Vec<String> = vec!["sweep".into(), "--network".into()];
        match self.network {
            NetworkSpec::Tmin(_) => a.push("tmin".into()),
            NetworkSpec::Dmin(_, d) => {
                a.extend(["dmin".into(), "--dilation".into(), d.to_string()])
            }
            NetworkSpec::Vmin(_, v) => a.extend(["vmin".into(), "--vcs".into(), v.to_string()]),
            NetworkSpec::Bmin => a.push("bmin".into()),
        }
        let (warmup, measure) = if null {
            (0, 1)
        } else {
            (self.warmup, self.measure)
        };
        a.extend([
            "--k".into(),
            self.k.to_string(),
            "--n".into(),
            self.n.to_string(),
            "--loads".into(),
            self.loads.join(","),
            "--warmup".into(),
            warmup.to_string(),
            "--measure".into(),
            measure.to_string(),
            "--seed".into(),
            seed.to_string(),
            "--threads".into(),
            "1".into(),
        ]);
        if let Some(len) = self.fixed_size {
            a.extend(["--sizes".into(), format!("fixed:{len}")]);
        }
        a.extend_from_slice(extra);
        a
    }

    /// The experiment `minnet sweep` builds from [`Sweep::argv`].
    pub fn experiment(&self, seed: u64) -> Experiment {
        let mut exp = Experiment::paper_default(self.network);
        exp.geometry = Geometry::new(self.k, self.n);
        if let Some(len) = self.fixed_size {
            exp.sizes = MessageSizeDist::Fixed(len);
        }
        exp.sim.warmup = self.warmup;
        exp.sim.measure = self.measure;
        exp.sim.seed = seed;
        exp
    }
}

/// The sweeps of a CLI sweep workload (empty for the other two).
pub fn sweeps(ctx: &Ctx, workload: Workload) -> Vec<Sweep> {
    // A 64-node sweep with the paper's message sizes.
    let paper = |tag, network, loads: &[String], warmup, measure| Sweep {
        tag,
        network,
        k: 4,
        n: 3,
        loads: loads.to_vec(),
        fixed_size: None,
        warmup: ctx.window(warmup),
        measure: ctx.window(measure),
    };
    match workload {
        Workload::PaperLineup => {
            let loads: Vec<String> = crate::metrics::LINEUP_LOADS
                .iter()
                .map(|(l, _)| l.to_string())
                .collect();
            crate::metrics::LINEUP
                .into_iter()
                .zip(NetworkSpec::paper_lineup())
                .map(|(tag, spec)| paper(tag, spec, &loads, 20_000, 100_000))
                .collect()
        }
        Workload::LowloadCheckpointed => {
            let loads: Vec<String> = (1..=24)
                .map(|i| format!("{:.3}", f64::from(i) * 0.005))
                .collect();
            vec![
                paper("tmin", NetworkSpec::tmin(), &loads, 2_000, 20_000),
                paper("bmin", NetworkSpec::Bmin, &loads, 2_000, 20_000),
            ]
        }
        Workload::Scale1k => {
            let big = |tag, network, k, n| Sweep {
                k,
                n,
                fixed_size: Some(64),
                ..paper(tag, network, &["0.1".to_string()], 1_000, 10_000)
            };
            vec![
                big("bmin1k", NetworkSpec::Bmin, 4, 5),
                big("tmin1k", NetworkSpec::tmin(), 32, 2),
            ]
        }
        Workload::ScenarioLibrary | Workload::DaemonJobs => Vec::new(),
    }
}

/// Job `i` of a `daemon_jobs` round. Every round starts a fresh daemon
/// on an empty state directory, so the same hundred specs are cold
/// again each round and round N's bytes can be checked against round 1.
pub fn job_spec(ctx: &Ctx, i: usize) -> JobSpec {
    JobSpec {
        sizes: "fixed:32".into(),
        loads: vec![0.15, 0.3],
        warmup: ctx.window(300),
        measure: ctx.window(2_000),
        seed: ctx.seed.wrapping_mul(1000).wrapping_add(i as u64),
        budget_cycles: 200_000,
        ..JobSpec::default()
    }
}

/// Client-side timings of one `daemon_jobs` round.
#[derive(Clone, Debug, Default)]
pub struct JobTimes {
    /// Connect → result bytes, per cold job.
    pub cold_ms: Vec<f64>,
    /// Connect → result bytes, per cache hit.
    pub hit_ms: Vec<f64>,
    /// Submit → `Accepted` per cold job (includes the journal flush).
    pub ack_ms: Vec<f64>,
    /// First cold submit → last cold result.
    pub cold_wall_s: f64,
    pub journal_bytes: u64,
    /// Spawn → first `pong` of the round's daemon.
    pub start_s: f64,
}

/// What one round of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Wall seconds, argv → result bytes on disk, summed over the
    /// round's commands (daemon: first submit → last result). Reading
    /// the outputs back and checking them is not in it.
    pub wall_s: f64,
    /// Child user+sys CPU seconds.
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
    /// Operations: sweep points, scenarios, job submissions.
    pub attempted: u64,
    pub failed: u64,
    /// Named result bytes, in a fixed order (what the goldens digest).
    pub outputs: Vec<(String, Vec<u8>)>,
    /// Why operations failed, for the log.
    pub problems: Vec<String>,
    pub jobs: Option<JobTimes>,
}

impl Round {
    fn absorb(&mut self, usage: &Usage) {
        self.cpu_s += usage.cpu_s;
        self.peak_rss_kb = self.peak_rss_kb.max(usage.peak_rss_kb);
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }

    /// FNV-1a over the named outputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, bytes) in &self.outputs {
            h.update(name.as_bytes());
            h.update(&[0]);
            h.update(bytes);
            h.update(&[0]);
        }
        h.finish()
    }

    /// Count as failed every output that differs from `reference` (round
    /// N's bytes must equal round 1's).
    pub fn check_same_outputs(&mut self, reference: &[(String, Vec<u8>)]) {
        if self.outputs.len() != reference.len() {
            self.fail(1, "a round produced a different set of outputs".into());
            return;
        }
        let differing: Vec<String> = self
            .outputs
            .iter()
            .zip(reference)
            .filter(|(mine, first)| mine != first)
            .map(|(mine, _)| mine.0.clone())
            .collect();
        for name in differing {
            self.fail(1, format!("{name}: bytes differ from the first round"));
        }
    }
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Run one sweep command and check its CSV: exit 0 and one row per
/// load (a PARTIAL or FAILED point is left out of the CSV).
fn run_sweep(
    ctx: &Ctx,
    round: &mut Round,
    sweep: &Sweep,
    dir: &Path,
    csv: &str,
    extra: &[String],
) -> Result<Option<Vec<u8>>, String> {
    let csv_path = dir.join(csv);
    let mut args = vec!["--csv".to_string(), path_arg(&csv_path)];
    args.extend_from_slice(extra);
    let usage = proc::run(
        &ctx.programs.minnet,
        &sweep.argv(ctx.seed, false, &args),
        dir,
    )?;
    round.absorb(&usage);
    let points = sweep.loads.len() as u64;
    round.attempted += points;
    if !usage.succeeded() {
        round.fail(
            points,
            format!("{csv}: minnet sweep exited {:?}", usage.exit_code),
        );
        return Ok(None);
    }
    Ok(Some(std::fs::read(&csv_path).map_err(|e| {
        format!("reading {}: {e}", csv_path.display())
    })?))
}

fn check_rows(round: &mut Round, name: &str, bytes: &[u8], points: usize) {
    let rows = bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    let missing = (points + 1).saturating_sub(rows) as u64;
    if missing > 0 {
        round.fail(
            missing,
            format!("{name}: {missing} point(s) PARTIAL or FAILED"),
        );
    }
}

/// One round of a sweep workload. Outputs are read back and checked
/// after the clock stops.
fn sweep_round(ctx: &Ctx, workload: Workload) -> Result<Round, String> {
    let dir = ctx.workdir(workload)?;
    let mut round = Round::default();
    let mut produced: Vec<(String, Option<Vec<u8>>, usize)> = Vec::new();
    for s in &sweeps(ctx, workload) {
        let started = Instant::now();
        if workload == Workload::LowloadCheckpointed {
            for rep in 0..LOWLOAD_REPS {
                let ck = dir.join(format!("{}.{rep}.ck.jsonl", s.tag));
                for (mode, flag) in [("checkpoint", "--checkpoint"), ("resume", "--resume")] {
                    let csv = format!("{}.{rep}.{mode}.csv", s.tag);
                    let extra = [flag.to_string(), path_arg(&ck)];
                    let bytes = run_sweep(ctx, &mut round, s, &dir, &csv, &extra)?;
                    produced.push((format!("{}.{mode}.csv", s.tag), bytes, s.loads.len()));
                }
            }
        } else {
            let csv = format!("{}.csv", s.tag);
            let bytes = run_sweep(ctx, &mut round, s, &dir, &csv, &[])?;
            produced.push((csv, bytes, s.loads.len()));
        }
        round.wall_s += started.elapsed().as_secs_f64();
    }
    for (name, bytes, points) in produced {
        let Some(bytes) = bytes else { continue };
        check_rows(&mut round, &name, &bytes, points);
        // The three lowload repetitions must agree; keep the first.
        match round.outputs.iter().find(|(n, _)| *n == name) {
            Some((_, first)) if *first != bytes => {
                round.fail(1, format!("{name}: repetitions differ"));
            }
            Some(_) => {}
            None => round.outputs.push((name, bytes)),
        }
    }
    Ok(round)
}

/// One null run: the workload's set-up alone.
pub struct NullRun {
    pub wall_s: f64,
    /// Largest `ru_maxrss` of its processes.
    pub peak_rss_kb: u64,
}

fn null_sweeps(ctx: &Ctx, workload: Workload) -> Result<NullRun, String> {
    let dir = ctx.workdir(workload)?;
    let sweeps = sweeps(ctx, workload);
    let mut peak_rss_kb = 0;
    let mut run_null = |s: &Sweep, extra: &[String]| -> Result<(), String> {
        let mut args = vec!["--csv".to_string(), path_arg(&dir.join("null.csv"))];
        args.extend_from_slice(extra);
        let usage = proc::run(&ctx.programs.minnet, &s.argv(ctx.seed, true, &args), &dir)?;
        peak_rss_kb = peak_rss_kb.max(usage.peak_rss_kb);
        if usage.succeeded() {
            Ok(())
        } else {
            Err(format!("null sweep {} exited {:?}", s.tag, usage.exit_code))
        }
    };
    let started = Instant::now();
    if workload == Workload::LowloadCheckpointed {
        for s in &sweeps {
            for rep in 0..LOWLOAD_REPS {
                let ck = path_arg(&dir.join(format!("{}.{rep}.null.ck.jsonl", s.tag)));
                run_null(s, &["--checkpoint".to_string(), ck.clone()])?;
                run_null(s, &["--resume".to_string(), ck])?;
            }
        }
    } else {
        for s in &sweeps {
            run_null(s, &[])?;
        }
    }
    Ok(NullRun {
        wall_s: started.elapsed().as_secs_f64(),
        peak_rss_kb,
    })
}

/// The unsigned integer after the first `"key":` in `text`.
pub fn json_u64_field(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn scenario_round(ctx: &Ctx) -> Result<Round, String> {
    let dir = ctx.workdir(Workload::ScenarioLibrary)?;
    let json = dir.join("verdicts.json");
    let args: Vec<String> = vec![
        "scenario".into(),
        "run".into(),
        path_arg(&ctx.root.join("scenarios")),
        "--threads".into(),
        "1".into(),
        "--json".into(),
        path_arg(&json),
    ];
    let mut round = Round::default();
    let usage = proc::run(&ctx.programs.minnet, &args, &dir)?;
    round.wall_s = usage.wall_s;
    round.absorb(&usage);
    let bytes = std::fs::read(&json).unwrap_or_default();
    let text = String::from_utf8_lossy(&bytes).into_owned();
    // One operation per scenario run; a verdict other than the file's
    // declared one is a failed operation.
    round.attempted = json_u64_field(&text, "total").unwrap_or(0).max(1);
    match json_u64_field(&text, "unexpected") {
        Some(0) if usage.succeeded() => {}
        Some(n) if n > 0 => round.fail(n, format!("{n} scenario(s) did not end as declared")),
        _ => round.fail(
            round.attempted,
            format!("scenario run exited {:?}", usage.exit_code),
        ),
    }
    round.outputs.push(("verdicts.json".into(), bytes));
    Ok(round)
}

fn null_scenarios(ctx: &Ctx) -> Result<NullRun, String> {
    let dir = ctx.workdir(Workload::ScenarioLibrary)?;
    let args: Vec<String> = vec![
        "scenario".into(),
        "validate".into(),
        path_arg(&ctx.root.join("scenarios")),
    ];
    let usage = proc::run(&ctx.programs.minnet, &args, &dir)?;
    if !usage.succeeded() {
        return Err(format!("scenario validate exited {:?}", usage.exit_code));
    }
    Ok(NullRun {
        wall_s: usage.wall_s,
        peak_rss_kb: usage.peak_rss_kb,
    })
}

/// A running `minnetd` child.
pub struct DaemonProc {
    /// `None` once the process has been reaped.
    child: Option<Child>,
    started: Instant,
    pub client: ServiceClient,
    /// Spawn → first `pong`.
    pub start_s: f64,
}

impl DaemonProc {
    /// Spawn `minnetd` on `state_dir` with an ephemeral port and wait
    /// for its first `pong`.
    pub fn spawn(ctx: &Ctx, state_dir: &Path, extra: &[&str]) -> Result<DaemonProc, String> {
        let started = Instant::now();
        let child = Command::new(&ctx.programs.minnetd)
            .args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .args(["--job-threads", "1"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning minnetd: {e}"))?;
        // Owned by the struct from here on, so every error path below
        // kills and reaps it on drop.
        let mut daemon = DaemonProc {
            child: Some(child),
            started,
            client: ServiceClient::new(String::new()),
            start_s: 0.0,
        };
        let stdout = daemon
            .child
            .as_mut()
            .and_then(|c| c.stdout.take())
            .expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading minnetd's address: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("minnetd listening on ")
            .ok_or_else(|| format!("minnetd did not announce its address (got {line:?})"))?;
        daemon.client = ServiceClient::new(addr).with_timeout(Duration::from_secs(30));
        daemon
            .client
            .ping()
            .map_err(|e| format!("minnetd did not answer ping: {e}"))?;
        daemon.start_s = started.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// Ask for a graceful drain and reap the process (killed if it has
    /// not exited within ten seconds).
    pub fn drain(mut self) -> Result<Usage, String> {
        let _ = self.client.drain();
        let child = self.child.take().expect("a daemon is reaped once");
        proc::reap_within(child, self.started, Duration::from_secs(10))
            .map_err(|e| format!("waiting for minnetd: {e}"))
    }
}

/// Kill and reap: how an admission-only daemon (whose backlog never
/// finishes) is stopped, and what keeps an error path from leaving a
/// daemon behind.
impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Submit `spec` and poll `result` until its bytes arrive. Returns the
/// result bytes, whether the submit was answered from the cache, and
/// the submit → `Accepted` time in ms.
fn submit_and_fetch(client: &ServiceClient, spec: &JobSpec) -> Result<(String, bool, f64), String> {
    let t0 = Instant::now();
    let (job_id, cached) = match client.submit("bench", spec)? {
        Response::Accepted { job_id, cached } => (job_id, cached),
        other => return Err(format!("submit answered {other:?}")),
    };
    let ack_ms = t0.elapsed().as_secs_f64() * 1e3;
    loop {
        match client.result(&job_id)? {
            Response::JobResult { result, .. } => return Ok((result, cached, ack_ms)),
            Response::JobStatus { state, .. } if state == "queued" || state == "running" => {
                if t0.elapsed() > Duration::from_secs(30) {
                    return Err(format!("job {job_id} still {state} after 30 s"));
                }
                std::thread::sleep(POLL);
            }
            other => return Err(format!("result answered {other:?}")),
        }
    }
}

fn daemon_round(ctx: &Ctx) -> Result<Round, String> {
    let dir = ctx.workdir(Workload::DaemonJobs)?;
    let state = dir.join("state");
    let daemon = DaemonProc::spawn(ctx, &state, &["--workers", "1"])?;
    let mut round = Round::default();
    let mut times = JobTimes {
        start_s: daemon.start_s,
        ..JobTimes::default()
    };
    let specs: Vec<JobSpec> = (0..JOBS).map(|i| job_spec(ctx, i)).collect();
    let mut cold: Vec<Option<String>> = Vec::with_capacity(JOBS);

    let started = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        round.attempted += 1;
        let t0 = Instant::now();
        match submit_and_fetch(&daemon.client, spec) {
            Ok((result, _, ack_ms)) => {
                times.cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                times.ack_ms.push(ack_ms);
                let ok_points = result.matches("\"outcome\":\"ok\"").count();
                if ok_points != spec.loads.len() {
                    round.fail(
                        1,
                        format!("job {i}: {ok_points}/{} points ok", spec.loads.len()),
                    );
                }
                cold.push(Some(result));
            }
            Err(e) => {
                round.fail(1, format!("job {i}: {e}"));
                cold.push(None);
            }
        }
    }
    times.cold_wall_s = started.elapsed().as_secs_f64();
    for (i, spec) in specs.iter().enumerate() {
        round.attempted += 1;
        let t0 = Instant::now();
        match submit_and_fetch(&daemon.client, spec) {
            Ok((result, cached, _)) => {
                times.hit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if !cached {
                    round.fail(
                        1,
                        format!("job {i}: resubmission was not served from the cache"),
                    );
                } else if cold[i].as_deref() != Some(result.as_str()) {
                    round.fail(
                        1,
                        format!("job {i}: cache-hit bytes differ from the cold result"),
                    );
                }
            }
            Err(e) => round.fail(1, format!("job {i} (hit): {e}")),
        }
    }
    round.wall_s = started.elapsed().as_secs_f64();

    times.journal_bytes = std::fs::metadata(state.join("journal.jsonl")).map_or(0, |m| m.len());
    let usage = daemon.drain()?;
    round.absorb(&usage);
    if !usage.succeeded() {
        round.fail(
            1,
            format!("minnetd exited {:?} after drain", usage.exit_code),
        );
    }
    for (i, result) in cold.into_iter().enumerate() {
        round.outputs.push((
            format!("job{i:03}"),
            result.unwrap_or_default().into_bytes(),
        ));
    }
    round.jobs = Some(times);
    Ok(round)
}

fn null_daemon(ctx: &Ctx) -> Result<NullRun, String> {
    let dir = ctx.workdir(Workload::DaemonJobs)?;
    let daemon = DaemonProc::spawn(ctx, &dir.join("state"), &["--workers", "1"])?;
    let wall_s = daemon.start_s;
    let usage = daemon.drain()?;
    Ok(NullRun {
        wall_s,
        peak_rss_kb: usage.peak_rss_kb,
    })
}

/// One measured round of `workload`, tracing off.
pub fn run_round(ctx: &Ctx, workload: Workload) -> Result<Round, String> {
    match workload {
        Workload::ScenarioLibrary => scenario_round(ctx),
        Workload::DaemonJobs => daemon_round(ctx),
        _ => sweep_round(ctx, workload),
    }
}

/// One null run of `workload`.
pub fn run_null(ctx: &Ctx, workload: Workload) -> Result<NullRun, String> {
    match workload {
        Workload::ScenarioLibrary => null_scenarios(ctx),
        Workload::DaemonJobs => null_daemon(ctx),
        _ => null_sweeps(ctx, workload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_match_the_metric_table() {
        for (w, name) in Workload::ALL.into_iter().zip(crate::metrics::WORKLOADS) {
            assert_eq!(w.name(), name);
            assert_eq!(Workload::from_name(name), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn json_field_scrape() {
        let doc = "{\"v\":1,\"total\":9,\"unexpected\": 0,\"skipped\":[]}";
        assert_eq!(json_u64_field(doc, "total"), Some(9));
        assert_eq!(json_u64_field(doc, "unexpected"), Some(0));
        assert_eq!(json_u64_field(doc, "missing"), None);
    }

    #[test]
    fn null_sweep_keeps_argv_but_simulates_one_cycle() {
        let s = Sweep {
            tag: "dmin",
            network: NetworkSpec::dmin(2),
            k: 4,
            n: 3,
            loads: vec!["0.1".into(), "0.3".into()],
            fixed_size: Some(64),
            warmup: 20_000,
            measure: 100_000,
        };
        let real = s.argv(7, false, &[]);
        let null = s.argv(7, true, &[]);
        assert_eq!(real.len(), null.len());
        let differing: Vec<_> = real.iter().zip(&null).filter(|(a, b)| a != b).collect();
        assert_eq!(differing.len(), 2, "only --warmup and --measure change");
        assert!(real.windows(2).any(|w| w == ["--dilation", "2"]));
        assert!(real.windows(2).any(|w| w == ["--loads", "0.1,0.3"]));
        assert_eq!(s.loads_f64(), vec![0.1, 0.3]);
        let exp = s.experiment(7);
        assert_eq!(
            (exp.sim.seed, exp.sim.warmup, exp.sim.measure),
            (7, 20_000, 100_000)
        );
    }

    #[test]
    fn round_digest_depends_on_names_and_bytes() {
        let mut a = Round::default();
        a.outputs.push(("x.csv".into(), b"1,2\n".to_vec()));
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.outputs[0].1.push(b'!');
        assert_ne!(a.digest(), b.digest());
        b.check_same_outputs(&a.outputs);
        assert_eq!(b.failed, 1);
    }
}
