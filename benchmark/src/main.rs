//! The repository's benchmark: five named workloads driven from
//! outside as child processes, end-to-end wall time from argv to result
//! bytes, and a per-layer waterfall from a traced in-process replay.
//! See `README.md` for what each workload is for and how to read the
//! output; `../BENCHMARK.json` is the contract the driver runs it by.

mod host;
mod json;
mod metrics;
mod proc;
mod replay;
mod stats;
mod trace;
mod workloads;

use metrics::{END_TO_END, GOLDEN_SEED, MEASURED_ROUNDS, WARMUP_ROUNDS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Ctx, Round, Workload, JOBS};

const USAGE: &str = "minnet-benchmark — end-to-end and per-layer benchmark of minnet / minnetd

USAGE: cargo run --release --manifest-path benchmark/Cargo.toml -- [options]

  --seed N            seed of every sweep and the job-seed base      [1995]
  --workload NAME     run one workload (default: all five, interleaved)
  --seconds N         measure each workload for N seconds
                      (default: 1 discarded warm-up round + 7 measured)
  --trace [0|1]       traced in-process replay and the per-layer metrics;
                      with --workload, `--trace 1` runs only the traced part
  --selfcheck         two full sets back to back; exit 1 if any end-to-end
                      figure moves by more than its bound
  --smoke             one round, simulation windows / 10, goldens skipped
  --record-golden     rewrite benchmark/golden/digests.txt (needs --seed 1995)
";

struct Options {
    seed: u64,
    workload: Option<Workload>,
    seconds: Option<f64>,
    trace: bool,
    selfcheck: bool,
    smoke: bool,
    record_golden: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: GOLDEN_SEED,
        workload: None,
        seconds: None,
        trace: false,
        selfcheck: false,
        smoke: false,
        record_golden: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workload" => {
                let name = value("--workload")?;
                o.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => o.selfcheck = true,
            "--smoke" => o.smoke = true,
            "--record-golden" => o.record_golden = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if o.record_golden && (o.seed != GOLDEN_SEED || o.smoke) {
        return Err(format!(
            "--record-golden records at --seed {GOLDEN_SEED} with full windows"
        ));
    }
    Ok(o)
}

/// When a workload's measuring stops.
#[derive(Clone, Copy)]
enum Stop {
    /// `warmup` discarded rounds, then `measured` kept ones.
    Rounds { warmup: usize, measured: usize },
    /// Until the workload has been measured for this many seconds.
    Seconds(f64),
}

/// Everything measured about one workload in one set of rounds.
#[derive(Default)]
struct WorkloadRun {
    /// Metric name → one value per round (or per null run).
    samples: BTreeMap<String, Vec<f64>>,
    /// Pooled per-job latencies.
    cold_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The first round's outputs: later rounds must reproduce them.
    first_outputs: Option<Vec<(String, Vec<u8>)>>,
    rounds_kept: usize,
    rounds_seen: usize,
    elapsed_s: f64,
}

impl WorkloadRun {
    fn push(&mut self, metric: &str, value: f64) {
        self.samples
            .entry(metric.to_string())
            .or_default()
            .push(value);
    }

    fn done(&self, stop: Stop) -> bool {
        match stop {
            Stop::Rounds { warmup, measured } => self.rounds_seen >= warmup + measured,
            Stop::Seconds(s) => self.rounds_kept >= 1 && self.elapsed_s >= s,
        }
    }

    /// The figure reported for `metric`: the median of its samples —
    /// except `setup_s`, which is the fastest null run. A null run is
    /// milliseconds long and a busy neighbour only ever slows it, so
    /// the fastest of a run's dozens is what the host's minutes-long
    /// slow spells leave alone; their median moved by 27% between two
    /// sets of ten runs, more than any bound the contract allows.
    fn reported(&self, metric: &str) -> f64 {
        let samples = self.samples.get(metric).map_or(&[][..], Vec::as_slice);
        match metric {
            "setup_s" => samples.iter().copied().reduce(f64::min).unwrap_or(0.0),
            _ => stats::median(samples),
        }
    }
}

fn golden_path(root: &Path) -> PathBuf {
    root.join("benchmark/golden/digests.txt")
}

fn read_goldens(root: &Path) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(golden_path(root)).unwrap_or_default();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, hex) = l.split_once(' ')?;
            Some((name.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

fn write_goldens(root: &Path, digests: &BTreeMap<String, u64>) -> Result<(), String> {
    let mut text = format!(
        "# FNV-1a digests of each workload's result bytes at --seed {GOLDEN_SEED}, full windows.\n\
         # Rewritten by `-- --record-golden`; a benchmark-only change.\n"
    );
    for (name, digest) in digests {
        text.push_str(&format!("{name} {digest:016x}\n"));
    }
    let path = golden_path(root);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

struct Harness {
    ctx: Ctx,
    goldens: BTreeMap<String, u64>,
    record_golden: bool,
}

impl Harness {
    /// Whether the committed digest applies to this run's inputs.
    fn golden_applies(&self, workload: Workload) -> bool {
        !self.ctx.smoke && (self.ctx.seed == GOLDEN_SEED || workload == Workload::ScenarioLibrary)
    }

    /// Check a round's outputs: the first round against the golden (or
    /// recorded as the new golden), later rounds against the first.
    fn check_outputs(&mut self, workload: Workload, run: &mut WorkloadRun, round: &mut Round) {
        if let Some(first) = &run.first_outputs {
            round.check_same_outputs(first);
            return;
        }
        if self.record_golden {
            self.goldens
                .insert(workload.name().to_string(), round.digest());
        } else if self.golden_applies(workload) {
            match self.goldens.get(workload.name()) {
                Some(&want) if want == round.digest() => {}
                Some(&want) => {
                    round.failed += 1;
                    round.problems.push(format!(
                        "digest {:016x} misses golden {want:016x} (re-record with --record-golden \
                         only if the change is meant to alter results)",
                        round.digest()
                    ));
                }
                None => round
                    .problems
                    .push("no golden recorded for this workload".into()),
            }
        }
        run.first_outputs = Some(round.outputs.clone());
    }

    /// One CLI round of `workload` with its output checks, folded into
    /// `run` unless `discard`.
    fn cli_round(
        &mut self,
        workload: Workload,
        run: &mut WorkloadRun,
        discard: bool,
    ) -> Result<Round, String> {
        let mut round = workloads::run_round(&self.ctx, workload)?;
        self.check_outputs(workload, run, &mut round);
        if !discard {
            run.push("wall_s", round.wall_s);
            run.push("cli.cpu_s", round.cpu_s);
            run.attempted += round.attempted;
            run.failed += round.failed.min(round.attempted);
            run.problems.extend(round.problems.iter().cloned());
            if let Some(t) = &round.jobs {
                run.push("jobs_per_s", JOBS as f64 / t.cold_wall_s);
                run.push("daemon.submit_ack_ms", stats::median(&t.ack_ms));
                run.push("daemon.journal_bytes", t.journal_bytes as f64);
                run.push("daemon.start_s", t.start_s);
                run.cold_ms.extend_from_slice(&t.cold_ms);
                run.hit_ms.extend_from_slice(&t.hit_ms);
            }
        }
        Ok(round)
    }

    /// One untraced round: the null runs (one `setup_s` sample each),
    /// then the workload; `peak_rss_mb` is over the children of both.
    fn measured_round(
        &mut self,
        workload: Workload,
        run: &mut WorkloadRun,
        stop: Stop,
    ) -> Result<(), String> {
        let started = Instant::now();
        let discard = matches!(stop, Stop::Rounds { warmup, .. } if run.rounds_seen < warmup);
        let mut peak_rss_kb = 0;
        for _ in 0..workload.setup_reps(self.ctx.smoke) {
            let null = workloads::run_null(&self.ctx, workload)?;
            peak_rss_kb = peak_rss_kb.max(null.peak_rss_kb);
            if !discard {
                run.push("setup_s", null.wall_s);
            }
        }
        let round = self.cli_round(workload, run, discard)?;
        run.rounds_seen += 1;
        if !discard {
            // Over every child of the round, the null runs' included.
            let peak_rss_kb = peak_rss_kb.max(round.peak_rss_kb);
            run.push("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
            run.rounds_kept += 1;
            run.elapsed_s += started.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// One traced round: a CLI round for reference bytes and outside
    /// timings, then the in-process replay under spans.
    fn traced_round(
        &mut self,
        workload: Workload,
        run: &mut WorkloadRun,
        tracer: &mut trace::Tracer,
    ) -> Result<(), String> {
        let started = Instant::now();
        let info: Vec<String> = vec!["info".into()];
        let spawns: Vec<f64> = (0..5)
            .map(|_| proc::run(&self.ctx.programs.minnet, &info, &self.ctx.work).map(|u| u.wall_s))
            .collect::<Result<_, _>>()?;
        run.push("cli.spawn_s", stats::median(&spawns));

        let cli = self.cli_round(workload, run, false)?;
        tracer.round = run.rounds_seen as u32;
        let (values, problems) = replay::traced_round(&self.ctx, workload, tracer, &cli)?;
        run.problems.extend(problems);
        for (name, value) in values {
            run.push(&name, value);
        }
        run.rounds_seen += 1;
        run.rounds_kept += 1;
        run.elapsed_s += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Run `workloads` round by round, interleaved, until each is done.
    fn run_set(
        &mut self,
        workloads: &[Workload],
        stop: Stop,
        traced: bool,
    ) -> Result<BTreeMap<Workload, WorkloadRun>, String> {
        let mut runs: BTreeMap<Workload, WorkloadRun> = workloads
            .iter()
            .map(|&w| (w, WorkloadRun::default()))
            .collect();
        let mut tracers: BTreeMap<Workload, trace::Tracer> = workloads
            .iter()
            .map(|&w| (w, trace::Tracer::new()))
            .collect();
        loop {
            let mut progressed = false;
            for &w in workloads {
                let run = runs.get_mut(&w).expect("one run per workload");
                // A pooled p95 needs ten samples beyond it: 200 jobs.
                let enough = !traced || w != Workload::DaemonJobs || run.cold_ms.len() >= 2 * JOBS;
                if run.done(stop) && enough {
                    continue;
                }
                progressed = true;
                if traced {
                    self.traced_round(
                        w,
                        run,
                        tracers.get_mut(&w).expect("one tracer per workload"),
                    )?;
                } else {
                    self.measured_round(w, run, stop)?;
                }
            }
            if !progressed {
                break;
            }
        }
        if traced {
            let out = self.ctx.root.join("benchmark/out");
            for (w, tracer) in &tracers {
                let path = out.join(format!("trace.{}.jsonl", w.name()));
                tracer
                    .write_jsonl(&path)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                report_self_times(*w, tracer);
            }
            for (w, run) in runs.iter_mut() {
                finish_traced(*w, run);
            }
        }
        Ok(runs)
    }
}

/// Pooled and derived per-layer figures, and the repeat check on exact
/// counts, once a traced workload's rounds are in.
fn finish_traced(workload: Workload, run: &mut WorkloadRun) {
    let fail_share = run.failed as f64 / run.attempted.max(1) as f64;
    run.push("fail_share", fail_share);
    if workload == Workload::DaemonJobs {
        let (cold, hit) = (run.cold_ms.clone(), run.hit_ms.clone());
        run.push("job_p50_ms", stats::median(&cold));
        run.push("hit_p50_ms", stats::median(&hit));
        for (metric, pool) in [("job_p95_ms", &cold), ("daemon.hit_p95_ms", &hit)] {
            match stats::percentile(pool, 0.95) {
                Some(p95) => run.push(metric, p95),
                None => run
                    .problems
                    .push(format!("{metric}: too few samples ({})", pool.len())),
            }
        }
    }
    for m in metrics::per_layer().iter().filter(|m| m.exact) {
        if let Some(v) = run.samples.get(&m.name) {
            if v.iter().any(|x| x.to_bits() != v[0].to_bits()) {
                run.problems.push(format!(
                    "{}: exact count differs between rounds: {v:?}",
                    m.name
                ));
            }
        }
    }
}

/// Print where the traced time went: self time per span name.
fn report_self_times(workload: Workload, tracer: &trace::Tracer) {
    let spans = tracer.spans();
    let own = trace::self_times_ns(spans);
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *by_name.entry(&s.name).or_default() += ns;
    }
    let total: u64 = by_name.values().sum();
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    println!(
        "# {}: traced self time by span (all rounds)",
        workload.name()
    );
    for (name, ns) in rows.into_iter().take(12) {
        println!(
            "#   {name:38} {:>10.4} s  {:>5.1}%",
            ns as f64 / 1e9,
            ns as f64 * 100.0 / total.max(1) as f64
        );
    }
}

fn print_header(root: &Path, o: &Options, profile: &BTreeMap<String, String>, stop: Stop) {
    println!("# minnet-benchmark");
    for (key, value) in host::describe(root) {
        println!("# {key:8} {value}");
    }
    let profile: Vec<String> = profile.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# profile  release: {}", profile.join(" "));
    println!("# seed     {}", o.seed);
    match stop {
        Stop::Rounds { warmup, measured } => {
            println!("# rounds   {warmup} discarded + {measured} measured, workloads interleaved")
        }
        Stop::Seconds(s) => println!("# rounds   as many as fit in {s} s per workload"),
    }
    println!("# load     every process --threads 1; minnetd --workers 1, one closed-loop client");
    if o.smoke {
        println!("# smoke    simulation windows / 10, goldens skipped");
    }
}

/// The table: every metric by name with unit, minimum, median,
/// quartiles, MAD, sample count, bound and observed spread.
fn print_table(runs: &BTreeMap<Workload, WorkloadRun>, traced: bool) {
    println!(
        "{:22} {:34} {:>6} {:>14} {:>14} {:>14} {:>14} {:>12} {:>5} {:>6} {:>7}  [layer] -> should move",
        "workload", "metric", "unit", "min", "median", "q1", "q3", "mad", "n", "bound", "spread"
    );
    let layers = metrics::per_layer();
    for (w, run) in runs {
        let row = |name: &str, unit: &str, bound: Option<f64>, note: &str| {
            let Some(s) = run.samples.get(name).and_then(|v| stats::summarize(v)) else {
                return;
            };
            let bound = bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "{:22} {:34} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>12.6} {:>5} {:>6} {:>6.1}%  {note}",
                w.name(),
                name,
                unit,
                s.min,
                s.median,
                s.q1,
                s.q3,
                s.mad,
                s.n,
                bound,
                s.spread() * 100.0
            );
        };
        if !traced {
            for m in &END_TO_END {
                row(m.name, m.unit, Some(m.bound), "");
            }
        }
        for m in &layers {
            row(
                &m.name,
                m.unit,
                None,
                &format!("[{}] -> {}", m.layer(), m.moves),
            );
        }
        if !run.cold_ms.is_empty() {
            let pooled = [("cold", &run.cold_ms), ("hit", &run.hit_ms)];
            for (what, pool) in pooled {
                let p95 = stats::percentile(pool, 0.95)
                    .map_or("n/a (needs 10 samples beyond it)".to_string(), |p| {
                        format!("{p:.3} ms")
                    });
                println!(
                    "{:22} {what} job latency, pooled: p50 {:.3} ms, p95 {p95}, n {}",
                    w.name(),
                    stats::median(pool),
                    pool.len()
                );
            }
        }
        println!(
            "{:22} operations: {} attempted, {} failed (fail_share {:.4})",
            w.name(),
            run.attempted,
            run.failed,
            run.failed as f64 / run.attempted.max(1) as f64
        );
        for p in &run.problems {
            println!("{:22} PROBLEM: {p}", w.name());
        }
    }
}

/// The last line of stdout: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_line(
    runs: &BTreeMap<Workload, WorkloadRun>,
    traced: bool,
    qualify: bool,
) -> (String, bool) {
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut fields = Vec::new();
    let layers = metrics::per_layer();
    for (w, run) in runs {
        attempted += run.attempted;
        failed += run.failed;
        correct &= run.failed == 0 && run.problems.is_empty();
        let mut field = |name: &str, unit: &str| {
            let key = if qualify {
                format!("{}/{name}", w.name())
            } else {
                name.to_string()
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(&key),
                json::number(run.reported(name)),
                json::escape(unit)
            ));
        };
        if traced {
            layers.iter().for_each(|m| field(&m.name, m.unit));
        } else {
            END_TO_END.iter().for_each(|m| field(m.name, m.unit));
        }
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    (line, correct)
}

/// Compare two sets: every reported end-to-end figure must agree
/// within its bound. Returns the offending rows.
fn selfcheck(
    a: &BTreeMap<Workload, WorkloadRun>,
    b: &BTreeMap<Workload, WorkloadRun>,
) -> Vec<String> {
    let mut bad = Vec::new();
    println!(
        "{:22} {:14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "moved", "bound"
    );
    for (w, first) in a {
        let second = &b[w];
        for m in &END_TO_END {
            let (x, y) = (first.reported(m.name), second.reported(m.name));
            let moved = stats::relative_change(x, y);
            println!(
                "{:22} {:14} {x:>14.6} {y:>14.6} {:>7.1}% {:>5.0}%",
                w.name(),
                m.name,
                moved * 100.0,
                m.bound * 100.0
            );
            if moved > m.bound {
                bad.push(format!(
                    "{}/{}: {x} and {y} differ by more than {}",
                    w.name(),
                    m.name,
                    m.bound
                ));
            }
        }
    }
    bad
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(true);
    }
    let o = parse_options(&args).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    let root = host::repo_root();
    let profile = host::checked_release_profile(&root)?;
    let programs = host::build_programs(&root)?;
    let work = root.join("benchmark/out/work");
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;

    let stop = match (o.seconds, o.smoke) {
        (Some(s), _) => Stop::Seconds(s),
        (None, true) => Stop::Rounds {
            warmup: 0,
            measured: 1,
        },
        (None, false) => Stop::Rounds {
            warmup: WARMUP_ROUNDS,
            measured: MEASURED_ROUNDS,
        },
    };
    // The traced part of a full run: two rounds per workload.
    let trace_stop = match stop {
        Stop::Rounds { .. } if o.smoke => Stop::Rounds {
            warmup: 0,
            measured: 1,
        },
        Stop::Rounds { .. } => Stop::Rounds {
            warmup: 0,
            measured: 2,
        },
        seconds => seconds,
    };
    print_header(&root, &o, &profile, stop);

    let mut harness = Harness {
        goldens: read_goldens(&root),
        record_golden: o.record_golden,
        ctx: Ctx {
            root: root.clone(),
            programs,
            work,
            seed: o.seed,
            smoke: o.smoke,
        },
    };
    let selected: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // The driver's `--workload W --trace 1` asks for the per-layer
    // metrics alone; every other form measures end to end first.
    let only_traced = o.trace && o.workload.is_some();
    let mut correct = true;
    let mut last_line = String::new();

    if !only_traced {
        let runs = harness.run_set(&selected, stop, false)?;
        println!(
            "# rss floor {:.1} MB (the harness's own peak; a child's peak cannot read lower)",
            proc::own_peak_rss_kb() as f64 / 1024.0
        );
        print_table(&runs, false);
        let (line, ok) = result_line(&runs, false, o.workload.is_none());
        (last_line, correct) = (line, ok);
        if o.selfcheck {
            let again = harness.run_set(&selected, stop, false)?;
            print_table(&again, false);
            let bad = selfcheck(&runs, &again);
            for b in &bad {
                println!("SELFCHECK: {b}");
            }
            correct &= bad.is_empty() && result_line(&again, false, true).1;
        }
        if o.record_golden {
            write_goldens(&root, &harness.goldens)?;
            println!("# recorded {}", golden_path(&root).display());
        }
    }
    if o.trace {
        let runs = harness.run_set(&selected, trace_stop, true)?;
        print_table(&runs, true);
        let (line, ok) = result_line(&runs, true, o.workload.is_none());
        correct &= ok;
        if only_traced {
            last_line = line;
        }
    }
    println!("{last_line}");
    Ok(correct)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("minnet-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_an_optional_flag_value() {
        assert!(options(&["--trace"]).unwrap().trace);
        assert!(options(&["--trace", "1", "--seed", "3"]).unwrap().trace);
        assert!(!options(&["--trace", "0"]).unwrap().trace);
        let o = options(&[
            "--workload",
            "scale_1k",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::Scale1k), 9, Some(20.0), false)
        );
        assert!(options(&["--trace", "--smoke"]).unwrap().smoke);
    }

    #[test]
    fn bad_options_are_refused() {
        assert!(options(&["--workload", "nope"]).is_err());
        assert!(options(&["--seconds", "0"]).is_err());
        assert!(options(&["--seconds", "61"]).is_err());
        assert!(options(&["--frobnicate"]).is_err());
        assert!(options(&["--record-golden", "--seed", "7"]).is_err());
        assert!(options(&["--record-golden", "--smoke"]).is_err());
    }

    #[test]
    fn setup_is_the_fastest_null_run_and_the_rest_are_medians() {
        let mut run = WorkloadRun::default();
        for x in [3.0, 1.0, 2.0, 5.0, 4.0] {
            run.push("setup_s", x);
            run.push("peak_rss_mb", x);
        }
        assert_eq!(run.reported("setup_s"), 1.0);
        assert_eq!(run.reported("peak_rss_mb"), 3.0);
        assert_eq!(run.reported("wall_s"), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut run = WorkloadRun {
            attempted: 16,
            ..WorkloadRun::default()
        };
        for m in &END_TO_END {
            run.push(m.name, 1.25);
        }
        let runs = BTreeMap::from([(Workload::PaperLineup, run)]);
        let (line, correct) = result_line(&runs, false, false);
        assert!(correct);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 16, \"failed\": 0, \"metrics\": {"));
        for m in &END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.25, \"unit\": \"{}\"}}",
                m.name, m.unit
            )));
        }
        let (traced, _) = result_line(&runs, true, false);
        assert_eq!(
            traced.matches("\"value\"").count(),
            metrics::per_layer().len()
        );
    }

    #[test]
    fn selfcheck_flags_a_figure_that_moved_past_its_bound() {
        let set = |setup: f64| {
            let mut run = WorkloadRun::default();
            for m in &END_TO_END {
                run.push(m.name, if m.name == "setup_s" { setup } else { 1.0 });
            }
            BTreeMap::from([(Workload::Scale1k, run)])
        };
        assert!(selfcheck(&set(1.0), &set(1.2)).is_empty());
        assert_eq!(selfcheck(&set(1.0), &set(1.3)).len(), 1);
        assert_eq!(selfcheck(&set(1.3), &set(0.9)).len(), 1);
    }
}
