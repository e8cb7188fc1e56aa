//! `minnet` — command-line front end for the wormhole-MIN simulator.
//!
//! ```text
//! minnet info     --network bmin --k 4 --n 3
//! minnet simulate --network dmin --load 0.5
//! minnet sweep    --network vmin --loads 0.1,0.3,0.5,0.7 --csv out.csv
//! minnet saturate --network tmin --pattern hotspot:0.05
//! minnet partition --wiring butterfly --clusters msd
//! ```
//!
//! Run `minnet help` for the full option list.

use minnet::routing::{dependency_graph, find_cycle, DependencyRule};
use minnet::partition::UnidirPartitionAnalysis;
use minnet::{
    campaign_curve, curve_csv, curve_table, find_saturation, outcome_counts, saturation_load,
    spec, CampaignPolicy, Experiment, JobSpec, NetworkSpec, OutputFile, PointOutcome, Response,
    ServiceClient, SweepPoint,
};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};

/// The process's stdout: locked once, written once. Every command
/// `writeln!`s into it and [`finish`] flushes it — std ignores `SIGPIPE`,
/// so printing to a reader that left (`| head -1`) is an `EPIPE` to be
/// handled here, not a panic inside a print macro.
type Out = BufWriter<io::StdoutLock<'static>>;

const USAGE: &str = "minnet — switch-based wormhole network simulator (Ni, Gui & Moore reproduction)

USAGE: minnet <command> [options]

COMMANDS
  info        print network facts (channels, switches, paths, deadlock check)
  simulate    one run at a fixed offered load
  sweep       latency-throughput curve over several loads
  saturate    bisection search for the maximum sustainable load
  partition   static partitionability analysis (contention / balance)
  scenario    run|list|validate declarative .scn scenario files
  submit      send a sweep job to a minnetd service daemon
  status      ask the daemon for a job's state (queued|running|done|failed)
  result      fetch a finished job's result JSON from the daemon
  drain       ask the daemon to close admissions and finish its backlog
  help        this text

SERVICE (minnetd client; see `minnetd --help` to run the daemon)
  minnet submit [experiment options] [--daemon HOST:PORT] [--client NAME]
                [--wait] [--timeout-ms N] [--json PATH]
  minnet status <job-id> [--daemon HOST:PORT]
  minnet result <job-id> [--daemon HOST:PORT] [--json PATH]
  minnet drain            [--daemon HOST:PORT]
The daemon address defaults to 127.0.0.1:7117. `submit` prints the
job id (the FNV hash of the full job config — identical submissions
share one id and are served from the result cache, byte-identical).
--wait polls until the job finishes and prints the result JSON.

SCENARIOS
  minnet scenario run scenarios/ [--chaos] [--json PATH]
                 [--threads N] [--retries N] [--checkpoint-dir DIR]
                 [--budget-cycles N] [--budget-ms N]
  minnet scenario list scenarios/
  minnet scenario validate scenarios/
Each .scn file declares a network, workload, fault/chaos schedule and
expectations; `run` judges them into pass/partial/fail verdicts and
exits 0 only if every scenario ends as its file declares (a
watchdog-trip fixture *expects* fail). Chaos-gated scenarios are
skipped unless --chaos. --json writes the deterministic verdict
report (byte-identical across repeat runs and thread counts).
--budget-cycles / --budget-ms tighten each scenario's declared budget;
they never loosen it.

COMMON OPTIONS
  --network tmin|dmin|vmin|bmin     network design           [tmin]
  --wiring cube|butterfly|omega|baseline   unidirectional wiring [cube]
  --dilation N     DMIN dilation                             [2]
  --vcs N          VMIN virtual channels, 1..=64             [2]
  --k N --n N      geometry, N = k^n nodes (k 2..=256, n 1..=16) [4, 3]
  --pattern uniform|hotspot:<x>|shuffle|butterfly:<i>        [uniform]
  --clusters global|msd|lsd|halves   node clustering         [global]
  --rates a,b,..   per-cluster relative rates
  --sizes paper|fixed:<len>|bimodal:<s>,<l>,<p>              [paper]
  --load F         offered load (simulate)                   [0.5]
  --loads a,b,..   offered loads (sweep)                     [0.1..0.9]
  --warmup N --measure N --seed N --buffer-depth N --threads N
  --csv PATH       also write the sweep as CSV

RESILIENCE (sweep; the two budgets also simulate, saturate, submit)
  --budget-cycles N   cut any run at N simulated cycles (0 = off)  [0]
  --budget-ms N       cut any run at N wall-clock ms (0 = off)     [0]
  --retries N         same-point retries after a failed run        [0]
  --checkpoint PATH   append finished sweep points to a JSONL
                      checkpoint (creates it, or resumes if present)
  --resume PATH       like --checkpoint but the file must exist
A budget-cut point is reported PARTIAL (its truncated stats are kept);
a panicking or erroring point is reported FAILED after retries. The
curve always completes with per-point outcomes.

An option the command does not read is an error, not a default.
";

/// Print the usage text and exit with `code`: 0 when it was asked for,
/// 2 when the command line made no sense.
fn usage(out: &mut Out, code: i32) -> ! {
    let written = out.write_all(USAGE.as_bytes());
    finish(out, written, code)
}

/// Flush `out` and end the process with `code`. A reader that closed
/// the pipe got all it asked for: that ends the process quietly with
/// status 0. Any other failure to write stdout is an error.
fn finish(out: &mut Out, written: io::Result<()>, code: i32) -> ! {
    match written.and_then(|()| out.flush()) {
        Ok(()) => std::process::exit(code),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => die(&format!("writing stdout: {e}")),
    }
}

struct Args {
    cmd: String,
    opts: BTreeMap<String, String>,
    /// Positional arguments (the `scenario` family takes an action and
    /// scenario files/directories).
    free: Vec<String>,
}

/// The offered loads `sweep` and `submit` run without `--loads`.
const DEFAULT_LOADS: &str = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9";

/// Options that are bare flags — present or absent, no value.
const BOOL_FLAGS: &[&str] = &["chaos", "wait"];

/// What [`experiment`] reads: the options of every command that builds one.
const EXPERIMENT: &[&str] = &[
    "network", "wiring", "dilation", "vcs", "k", "n", "pattern", "clusters", "rates", "sizes",
    "warmup", "measure", "seed", "buffer-depth", "budget-cycles", "budget-ms",
];

/// The options `cmd` reads, as two lists (its own, and [`EXPERIMENT`] if it
/// builds one); `None` for no command at all. A name outside them would
/// be parsed and never looked at — a misspelt `--bufer-depth 4` running at
/// depth 1 — so [`parse_args`] refuses it.
fn options_of(cmd: &str) -> Option<[&'static [&'static str]; 2]> {
    Some(match cmd {
        "info" => [&[], EXPERIMENT],
        "simulate" => [&["load"], EXPERIMENT],
        "sweep" => [&["loads", "threads", "csv", "retries", "checkpoint", "resume"], EXPERIMENT],
        "saturate" => [&["lo", "hi", "iters"], EXPERIMENT],
        "partition" => [&["k", "n", "wiring", "clusters"], &[]],
        "scenario" => [
            &["chaos", "json", "threads", "retries", "checkpoint-dir", "budget-cycles", "budget-ms"],
            &[],
        ],
        "submit" => [
            &[
                "daemon", "client", "wait", "timeout-ms", "json", "network", "wiring", "dilation",
                "vcs", "k", "n", "pattern", "sizes", "loads", "warmup", "measure", "seed",
                "budget-cycles", "budget-ms", "retries",
            ],
            &[],
        ],
        "status" => [&["daemon", "job"], &[]],
        "result" => [&["daemon", "job", "json"], &[]],
        "drain" => [&["daemon"], &[]],
        _ => return None,
    })
}

fn parse_args(out: &mut Out) -> Args {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().unwrap_or_default();
    if ["help", "--help", "-h"].contains(&cmd.as_str()) {
        usage(out, 0);
    }
    let Some(known) = options_of(&cmd) else { usage(out, 2) };
    let mut opts = BTreeMap::new();
    let mut free = Vec::new();
    while let Some(key) = it.next() {
        if key == "--help" || key == "-h" {
            usage(out, 0);
        }
        let Some(name) = key.strip_prefix("--") else {
            free.push(key);
            continue;
        };
        if !known.iter().any(|list| list.contains(&name)) {
            eprintln!("error: {cmd}: unknown option --{name}");
            std::process::exit(2);
        }
        if BOOL_FLAGS.contains(&name) {
            opts.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("--{name} needs a value");
            usage(out, 2);
        };
        opts.insert(name.to_string(), value);
    }
    Args { cmd, opts, free }
}

/// `--key value` parsed as `T`, or `default` when the option is absent.
/// Parsing straight into the stored type rejects what a cast would
/// silently wrap (`--vcs 258` into a `u8`).
fn parse_opt<T: std::str::FromStr>(a: &Args, key: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    a.opts
        .get(key)
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--{key}: {e}"))))
        .unwrap_or(default)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// [`die`] for a command that has already written to `out`: what it
/// wrote is shown first. A stdout that cannot take it changes nothing —
/// the process is failing with `msg` either way.
fn die_after(out: &mut Out, msg: &str) -> ! {
    let _ = out.flush();
    die(msg)
}

/// The file `--<key> PATH` names, opened — and so known to be writable —
/// before the work whose result it will hold.
fn output_file(a: &Args, key: &str) -> Option<OutputFile> {
    a.opts
        .get(key)
        .map(|path| OutputFile::open(path).unwrap_or_else(|e| die(&e)))
}

/// Make `bytes` the content of the `file` that [`output_file`] opened
/// for `--<key>`, and say so.
fn replace_output(
    a: &Args,
    out: &mut Out,
    key: &str,
    file: OutputFile,
    bytes: &[u8],
) -> io::Result<()> {
    file.replace(bytes).unwrap_or_else(|e| die_after(out, &e));
    writeln!(out, "wrote {}", a.opts[key])
}

/// `--key`'s text, or `default` when the option is absent, read by one
/// of the [`spec`] parsers; the error names the flag.
fn read<T, F>(a: &Args, key: &str, default: &str, parse: F) -> T
where
    F: FnOnce(&str) -> Result<T, String>,
{
    let text = a.opts.get(key).map_or(default, String::as_str);
    parse(text).unwrap_or_else(|e| die(&format!("--{key}: {e}")))
}

/// The experiment the [`EXPERIMENT`] options describe, read by
/// [`spec::Settings`] — the reader every door shares — over the command
/// line's own windows (20 000 warmup and 100 000 measured cycles);
/// `--buffer-depth` is the key `buffer_depth`. A refusal names its flag.
fn experiment(a: &Args) -> Experiment {
    let mut settings = spec::Settings::default();
    let given = a.opts.iter().filter(|(flag, _)| EXPERIMENT.contains(&flag.as_str()));
    let given = given.map(|(flag, value)| (flag.as_str(), value.as_str()));
    for (flag, value) in [("warmup", "20000"), ("measure", "100000")].into_iter().chain(given) {
        settings.set(&flag.replace('-', "_"), value).unwrap_or_else(|r| refused(r));
    }
    settings.finish().unwrap_or_else(|r| refused(r))
}

/// [`die`] with what [`spec::Settings`] refused, named by its flag.
fn refused(r: spec::Refusal) -> ! {
    die(&format!("--{}: {}", r.key.replace('_', "-"), r.why))
}

/// The campaign policy from `--retries` / `--checkpoint` / `--resume`.
fn policy(a: &Args) -> CampaignPolicy {
    let checkpoint = a.opts.get("checkpoint");
    let resume = a.opts.get("resume");
    if checkpoint.is_some() && resume.is_some() {
        die("--checkpoint and --resume are mutually exclusive (--resume is \
             --checkpoint that refuses to start a fresh file)");
    }
    CampaignPolicy {
        retries: parse_opt(a, "retries", 0),
        checkpoint: checkpoint.or(resume).map(Into::into),
        require_existing: resume.is_some(),
    }
}

fn threads(a: &Args) -> usize {
    a.opts
        .get("threads")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--threads: {e}"))))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

fn cmd_info(a: &Args, out: &mut Out) -> io::Result<()> {
    let exp = experiment(a);
    let net = exp.network.build(exp.geometry);
    writeln!(out, "network    : {}", exp.network.name())?;
    writeln!(
        out,
        "geometry   : {} nodes, {}x{} switches, {} stages",
        exp.geometry.nodes(),
        exp.geometry.k(),
        exp.geometry.k(),
        exp.geometry.n()
    )?;
    writeln!(out, "switches   : {}", net.num_switches())?;
    writeln!(out, "channels   : {}", net.num_channels())?;
    let adj = dependency_graph(&net, DependencyRule::Paper);
    writeln!(
        out,
        "deadlock   : {}",
        if find_cycle(&adj).is_none() {
            "free (acyclic channel dependency graph)"
        } else {
            "CYCLE FOUND"
        }
    )?;
    let bidir = net.kind.is_bidirectional();
    writeln!(
        out,
        "mean path  : {:.2} channels (uniform pairs)",
        if bidir {
            2.0 * (minnet::model::mean_first_difference(&exp.geometry) + 1.0)
        } else {
            (exp.geometry.n() + 1) as f64
        }
    )?;
    writeln!(
        out,
        "unloaded   : {:.1} us mean latency for paper-sized messages",
        minnet::model::mean_unloaded_latency(&exp.geometry, bidir, exp.sizes.mean())
            * minnet::sim::CYCLE_US
    )
}

fn cmd_simulate(a: &Args, out: &mut Out) -> io::Result<()> {
    let exp = experiment(a);
    let load = read(a, "load", "0.5", spec::parse_load);
    let r = exp.run(load).unwrap_or_else(|e| die(&e));
    writeln!(out, "network   : {}", exp.network.name())?;
    writeln!(out, "offered   : {:.1}%", load * 100.0)?;
    writeln!(out, "accepted  : {:.2}%", r.throughput_percent())?;
    writeln!(
        out,
        "latency   : mean {:.1} us   p50 {:.1}   p95 {:.1}   p99 {:.1}   max {:.1}",
        r.mean_latency_us(),
        r.p50_latency_cycles as f64 * minnet::sim::CYCLE_US,
        r.p95_latency_cycles as f64 * minnet::sim::CYCLE_US,
        r.p99_latency_cycles as f64 * minnet::sim::CYCLE_US,
        r.max_latency_cycles as f64 * minnet::sim::CYCLE_US,
    )?;
    // `mean_queue` sums every source's queue; `max_queue` is one source's.
    writeln!(
        out,
        "queueing  : network mean {:.1} msgs, per-source mean {:.2}, longest source queue {}",
        r.mean_queue,
        r.mean_queue / f64::from(exp.geometry.nodes()),
        r.max_queue
    )?;
    writeln!(
        out,
        "verdict   : {}",
        match (r.sustainable, r.steady) {
            (true, true) => "sustainable",
            (true, false) => "lagging (delivery behind generation)",
            _ => "SATURATED (queue limit exceeded)",
        }
    )
}

fn cmd_sweep(a: &Args, out: &mut Out) -> io::Result<()> {
    let exp = experiment(a);
    let loads = read(a, "loads", DEFAULT_LOADS, spec::parse_loads);
    // Every option is read before the file is created: a bad --threads
    // leaves no empty CSV behind.
    let (threads, policy) = (threads(a), policy(a));
    let csv = output_file(a, "csv");
    let points = campaign_curve(&exp, &loads, threads, &policy).unwrap_or_else(|e| die(&e));

    // The classic table over the points that completed; Partial/Failed
    // points are listed separately so truncated stats are never mixed
    // silently into the curve.
    let completed: Vec<SweepPoint> = points
        .iter()
        .filter_map(|p| {
            p.outcome.ok_report().map(|r| SweepPoint {
                offered: p.offered,
                report: r.clone(),
            })
        })
        .collect();
    write!(out, "{}", curve_table(&exp.network.name(), &completed))?;
    for p in &points {
        match &p.outcome {
            PointOutcome::Ok(_) => {}
            PointOutcome::Partial { report, reason } => writeln!(
                out,
                "  load {:.0}%: PARTIAL after {} cycles ({reason}) — accepted {:.2}% so far",
                p.offered * 100.0,
                report.cycles,
                report.throughput_percent()
            )?,
            PointOutcome::Failed { reason } => writeln!(
                out,
                "  load {:.0}%: FAILED after {} attempt(s): {reason}",
                p.offered * 100.0,
                p.attempts
            )?,
        }
    }
    let (ok, partial, failed) = outcome_counts(points.iter().map(|p| &p.outcome));
    writeln!(out, "outcomes: {ok} ok, {partial} partial, {failed} failed")?;
    if let Some(sat) = saturation_load(&completed) {
        writeln!(
            out,
            "max sustainable throughput: {:.1}% (offered {:.0}%)",
            sat.report.throughput_percent(),
            sat.offered * 100.0
        )?;
    }
    if let Some(csv) = csv {
        let bytes = curve_csv(&exp.network.name(), &completed);
        replace_output(a, out, "csv", csv, bytes.as_bytes())?;
    }
    Ok(())
}

fn cmd_saturate(a: &Args, out: &mut Out) -> io::Result<()> {
    let exp = experiment(a);
    let lo = read(a, "lo", "0.05", spec::parse_load);
    let hi = read(a, "hi", "1", spec::parse_load);
    let iters: u32 = parse_opt(a, "iters", 6);
    match find_saturation(&exp, lo, hi, iters).unwrap_or_else(|e| die(&e)) {
        Some(p) => writeln!(
            out,
            "{}: sustainable up to offered {:.1}% — accepted {:.1}%, mean latency {:.1} us",
            exp.network.name(),
            p.offered * 100.0,
            p.report.throughput_percent(),
            p.report.mean_latency_us()
        ),
        None => writeln!(out, "{}: already saturated at {:.1}%", exp.network.name(), lo * 100.0),
    }
}

fn cmd_partition(a: &Args, out: &mut Out) -> io::Result<()> {
    let exp = experiment(a);
    let NetworkSpec::Tmin(kind) = exp.network else {
        unreachable!("partition reads no --network: the network is a TMIN on --wiring")
    };
    let g = exp.geometry;
    let map = minnet::traffic::ClusterMap::build(&g, &exp.clustering).unwrap_or_else(|e| die(&e));
    let clusters: Vec<Vec<u32>> = (0..map.len() as u32).map(|c| map.members(c).collect()).collect();
    let analysis = UnidirPartitionAnalysis::analyze(g, kind, &clusters);
    writeln!(
        out,
        "wiring {kind:?}, {} clusters over {} nodes",
        clusters.len(),
        g.nodes()
    )?;
    for (ci, members) in clusters.iter().enumerate() {
        let counts: Vec<usize> = (0..=g.n()).map(|l| analysis.channels_used(ci, l)).collect();
        writeln!(
            out,
            "  cluster {ci} ({} nodes): channels/level {:?}{}",
            members.len(),
            counts,
            if analysis.is_channel_balanced(ci) {
                "  [balanced]"
            } else {
                "  [NOT balanced]"
            }
        )?;
    }
    let shared = analysis.shared_positions();
    if shared.is_empty() {
        writeln!(out, "  contention-free: yes")
    } else {
        writeln!(out, "  contention-free: NO — {} shared channels", shared.len())
    }
}

/// The scenario files named by the positional arguments (after the
/// action), defaulting to the `scenarios/` library directory.
fn scenario_paths(a: &Args) -> Vec<std::path::PathBuf> {
    let roots: Vec<&str> = if a.free.len() > 1 {
        a.free[1..].iter().map(String::as_str).collect()
    } else {
        vec!["scenarios"]
    };
    let mut files = Vec::new();
    for root in roots {
        files.extend(
            minnet::scenario_files(std::path::Path::new(root)).unwrap_or_else(|e| die(&e)),
        );
    }
    files
}

fn cmd_scenario(a: &Args, out: &mut Out) -> io::Result<()> {
    let action = a.free.first().map(String::as_str).unwrap_or_else(|| {
        eprintln!("scenario needs an action: run, list, or validate");
        usage(out, 2);
    });
    let files = scenario_paths(a);
    match action {
        "list" | "validate" => {
            let mut bad = 0usize;
            for path in &files {
                match minnet::Scenario::load(path) {
                    Ok(s) => {
                        let mut tags = Vec::new();
                        if s.expected_verdict() != minnet::VerdictStatus::Pass {
                            tags.push(format!("expects {}", s.expected_verdict().as_str()));
                        }
                        if s.is_chaos_opt_in() {
                            tags.push("chaos-gated".to_string());
                        }
                        let tags = if tags.is_empty() {
                            String::new()
                        } else {
                            format!(" [{}]", tags.join(", "))
                        };
                        writeln!(out, "{:30} {}{tags}", s.name(), s.description())?;
                    }
                    Err(e) => {
                        bad += 1;
                        eprintln!("INVALID {}: {e}", path.display());
                    }
                }
            }
            if bad > 0 {
                die_after(out, &format!("{bad} invalid scenario file(s)"));
            }
            if action == "validate" {
                writeln!(out, "{} scenario file(s) valid", files.len())?;
            }
        }
        "run" => {
            let include_chaos = a.opts.contains_key("chaos");
            let retries: u32 = parse_opt(a, "retries", 0);
            let ckpt_dir = a.opts.get("checkpoint-dir").map(std::path::PathBuf::from);
            if let Some(d) = &ckpt_dir {
                std::fs::create_dir_all(d)
                    .unwrap_or_else(|e| die(&format!("creating {}: {e}", d.display())));
            }
            let budget = minnet_sim::RunBudget {
                max_cycles: parse_opt(a, "budget-cycles", 0),
                max_wall_ms: parse_opt(a, "budget-ms", 0),
            };
            let json = output_file(a, "json");
            let set = minnet::run_scenario_files(
                &files,
                threads(a),
                retries,
                include_chaos,
                ckpt_dir.as_deref(),
                (!budget.is_unlimited()).then_some(budget),
            )
            .unwrap_or_else(|e| die(&e));
            for v in &set.verdicts {
                writeln!(out, "{v}")?;
            }
            for name in &set.skipped {
                writeln!(out, "SKIP {name} (chaos-gated; rerun with --chaos)")?;
            }
            let as_expected = set.all_as_expected();
            writeln!(
                out,
                "{} scenario(s): {} as declared, {} surprising, {} skipped",
                set.verdicts.len(),
                set.verdicts.iter().filter(|v| v.as_expected()).count(),
                set.verdicts.iter().filter(|v| !v.as_expected()).count(),
                set.skipped.len()
            )?;
            if let Some(json) = json {
                let bytes = minnet::verdict_report_json(&set);
                replace_output(a, out, "json", json, bytes.as_bytes())?;
            }
            if !as_expected {
                finish(out, Ok(()), 1);
            }
        }
        other => {
            eprintln!("unknown scenario action {other:?} (run, list, validate)");
            usage(out, 2);
        }
    }
    Ok(())
}

/// The service client for `--daemon` (default: minnetd's well-known
/// local port).
fn service_client(a: &Args) -> ServiceClient {
    let addr = a
        .opts
        .get("daemon")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7117".to_string());
    ServiceClient::new(addr)
}

/// A [`JobSpec`] from the same experiment options the local commands
/// take; unset options keep the paper defaults. Validation happens on
/// the daemon, which answers structured `config` errors.
fn job_spec(a: &Args) -> JobSpec {
    let d = JobSpec::default();
    let text = |key: &str, default: String| a.opts.get(key).cloned().unwrap_or(default);
    JobSpec {
        network: text("network", d.network),
        wiring: text("wiring", d.wiring),
        dilation: parse_opt(a, "dilation", d.dilation),
        vcs: parse_opt(a, "vcs", d.vcs),
        k: parse_opt(a, "k", d.k),
        n: parse_opt(a, "n", d.n),
        pattern: text("pattern", d.pattern),
        sizes: text("sizes", d.sizes),
        loads: read(a, "loads", DEFAULT_LOADS, spec::parse_loads),
        warmup: parse_opt(a, "warmup", d.warmup),
        measure: parse_opt(a, "measure", d.measure),
        seed: parse_opt(a, "seed", d.seed),
        budget_cycles: parse_opt(a, "budget-cycles", d.budget_cycles),
        budget_ms: parse_opt(a, "budget-ms", d.budget_ms),
        retries: parse_opt(a, "retries", d.retries),
        ..d
    }
}

/// The job id for `status`/`result`: positional or `--job`.
fn job_id_arg(a: &Args) -> String {
    a.opts
        .get("job")
        .cloned()
        .or_else(|| a.free.first().cloned())
        .unwrap_or_else(|| die("give a job id (positional, or --job ID)"))
}

/// Write a result JSON into `json` — the opened `--json PATH` — or,
/// without one, to stdout.
fn emit_result(a: &Args, out: &mut Out, json: Option<OutputFile>, result: &str) -> io::Result<()> {
    match json {
        Some(json) => replace_output(a, out, "json", json, format!("{result}\n").as_bytes()),
        None => writeln!(out, "{result}"),
    }
}

fn cmd_submit(a: &Args, out: &mut Out) -> io::Result<()> {
    let client = service_client(a);
    let name = a
        .opts
        .get("client")
        .cloned()
        .unwrap_or_else(|| "minnet-cli".to_string());
    let wait = a.opts.contains_key("wait");
    let json = if wait { output_file(a, "json") } else { None };
    match client.submit(&name, &job_spec(a)).unwrap_or_else(|e| die(&e)) {
        Response::Accepted { job_id, cached } => {
            eprintln!(
                "accepted {job_id}{}",
                if cached { " (cached)" } else { "" }
            );
            if wait {
                let deadline =
                    std::time::Duration::from_millis(parse_opt(a, "timeout-ms", 300_000));
                let result = client.wait_result(&job_id, deadline).unwrap_or_else(|e| die(&e));
                emit_result(a, out, json, &result)
            } else {
                writeln!(out, "{job_id}")
            }
        }
        Response::Rejected {
            reason,
            retry_after_ms,
        } => die(&format!("rejected: {reason} (retry after {retry_after_ms} ms)")),
        Response::Error { kind, message } => die(&format!("[{kind}] {message}")),
        other => die(&format!("unexpected response: {other:?}")),
    }
}

fn cmd_status(a: &Args, out: &mut Out) -> io::Result<()> {
    let client = service_client(a);
    match client.status(&job_id_arg(a)).unwrap_or_else(|e| die(&e)) {
        Response::JobStatus { job_id, state } => writeln!(out, "{job_id}: {state}"),
        Response::Error { kind, message } => die(&format!("[{kind}] {message}")),
        other => die(&format!("unexpected response: {other:?}")),
    }
}

fn cmd_result(a: &Args, out: &mut Out) -> io::Result<()> {
    let client = service_client(a);
    match client.result(&job_id_arg(a)).unwrap_or_else(|e| die(&e)) {
        Response::JobResult { result, .. } => emit_result(a, out, output_file(a, "json"), &result),
        Response::JobStatus { job_id, state } => {
            die(&format!("{job_id} is not finished (state: {state})"))
        }
        Response::Error { kind, message } => die(&format!("[{kind}] {message}")),
        other => die(&format!("unexpected response: {other:?}")),
    }
}

fn cmd_drain(a: &Args, out: &mut Out) -> io::Result<()> {
    let client = service_client(a);
    match client.drain().unwrap_or_else(|e| die(&e)) {
        Response::Draining => {
            writeln!(out, "draining: admissions closed, accepted backlog finishing")
        }
        other => die(&format!("unexpected response: {other:?}")),
    }
}

fn main() {
    let mut out = BufWriter::new(io::stdout().lock());
    let args = parse_args(&mut out);
    let takes_free = matches!(args.cmd.as_str(), "scenario" | "status" | "result");
    if !takes_free && !args.free.is_empty() {
        die(&format!("unexpected argument {:?}", args.free[0]));
    }
    let written = match args.cmd.as_str() {
        "info" => cmd_info(&args, &mut out),
        "simulate" => cmd_simulate(&args, &mut out),
        "sweep" => cmd_sweep(&args, &mut out),
        "saturate" => cmd_saturate(&args, &mut out),
        "partition" => cmd_partition(&args, &mut out),
        "scenario" => cmd_scenario(&args, &mut out),
        "submit" => cmd_submit(&args, &mut out),
        "status" => cmd_status(&args, &mut out),
        "result" => cmd_result(&args, &mut out),
        "drain" => cmd_drain(&args, &mut out),
        _ => unreachable!("parse_args admits only the commands of options_of"),
    };
    finish(&mut out, written, 0)
}
