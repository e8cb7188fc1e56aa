//! Fault smoke benchmark: run the graceful-degradation experiment on the
//! paper lineup and write machine-readable numbers to `BENCH_faults.json`.
//!
//! ```text
//! cargo run --release -p minnet-bench --bin faults_smoke           # ./BENCH_faults.json
//! cargo run --release -p minnet-bench --bin faults_smoke -- out.json
//! cargo run --release -p minnet-bench --bin faults_smoke -- out.json \
//!     --budget-ms 5000 --retries 1 --checkpoint-dir ckpts/
//! ```
//!
//! For each paper-lineup network the binary evaluates the
//! graceful-degradation campaign at a fixed moderate load under an
//! increasing number of randomly-killed inter-stage links
//! (seed-reproducible fault sets). Each point row records delivered
//! throughput and latency with 95% confidence half-widths across
//! replications, the fault accounting (packets aborted mid-flight at
//! fault onset, packets refused at injection because no live route
//! existed), and the per-point `ok` / `partial` / `failed` outcome
//! counts — a budget-cut or panicked replication annotates the point
//! instead of aborting the whole artifact. Point statistics aggregate
//! the `ok` replications only; a point with zero healthy replications
//! writes zeros and is flagged by its counts.
//!
//! The point of the artifact is the *shape*: networks with path diversity
//! (BMIN, DMIN) degrade gracefully — throughput dips, nothing
//! disconnects — while single-path networks (TMIN, VMIN) report the
//! disconnected traffic as structured refusals instead of stalling. CI
//! uploads the file next to `BENCH_sweep.json` and `bench_compare
//! --faults` diffs it against the committed `BENCH_faults_baseline.json`
//! (warn-only) so fault-path drift leaves a history.
//!
//! Resilience flags mirror `sweep_smoke`: `--budget-cycles` /
//! `--budget-ms` bound each run, `--retries` reruns failed points on
//! derived seeds, and `--checkpoint-dir DIR` (or `--resume-dir`, which
//! requires the files to exist) keeps one JSONL checkpoint per network
//! under `DIR`.
//!
//! The JSON is written by hand (no serde in this offline workspace); see
//! EXPERIMENTS.md for the schema.

use minnet::{
    campaign_degradation_curve, outcome_counts, CampaignPolicy, DegradationCampaignPoint,
    Experiment, NetworkSpec,
};
use minnet_traffic::MessageSizeDist;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const LOAD: f64 = 0.2;
const FAULTS: [usize; 4] = [0, 1, 2, 4];
const REPLICATIONS: usize = 3;
const WARMUP: u64 = 500;
const MEASURE: u64 = 4_000;

struct Cli {
    out_path: String,
    budget_cycles: u64,
    budget_ms: u64,
    retries: u32,
    ckpt_dir: Option<PathBuf>,
    require_existing: bool,
}

fn parse_cli() -> Result<Cli, String> {
    const USAGE: &str = "usage: faults_smoke [OUT.json] [--budget-cycles N] [--budget-ms N] \
                         [--retries N] [--checkpoint-dir DIR | --resume-dir DIR]";
    let mut cli = Cli {
        out_path: "BENCH_faults.json".into(),
        budget_cycles: 0,
        budget_ms: 0,
        retries: 0,
        ckpt_dir: None,
        require_existing: false,
    };
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value; {USAGE}"));
        match a.as_str() {
            "--budget-cycles" => {
                cli.budget_cycles = value(&a)?.parse().map_err(|e| format!("{a}: {e}"))?;
            }
            "--budget-ms" => {
                cli.budget_ms = value(&a)?.parse().map_err(|e| format!("{a}: {e}"))?;
            }
            "--retries" => {
                cli.retries = value(&a)?.parse().map_err(|e| format!("{a}: {e}"))?;
            }
            "--checkpoint-dir" => cli.ckpt_dir = Some(value(&a)?.into()),
            "--resume-dir" => {
                cli.ckpt_dir = Some(value(&a)?.into());
                cli.require_existing = true;
            }
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}; {USAGE}")),
            _ => {
                if positional > 0 {
                    return Err(format!("unexpected argument {a}; {USAGE}"));
                }
                cli.out_path = a;
                positional += 1;
            }
        }
    }
    Ok(cli)
}

fn smoke_experiment(cli: &Cli, spec: NetworkSpec) -> Experiment {
    let mut exp = Experiment::paper_default(spec);
    exp.sizes = MessageSizeDist::Fixed(64);
    exp.sim.warmup = WARMUP;
    exp.sim.measure = MEASURE;
    exp.sim.budget.max_cycles = cli.budget_cycles;
    exp.sim.budget.max_wall_ms = cli.budget_ms;
    exp
}

struct NetResult {
    name: String,
    run_ms: f64,
    /// Resident bytes of the compiled route table and the CSR topology
    /// arenas — the setup-memory companions `bench_compare` diffs
    /// (warn-only) against the baseline.
    table_bytes: u64,
    graph_bytes: u64,
    points: Vec<DegradationCampaignPoint>,
}

fn point_row(json: &mut String, p: &DegradationCampaignPoint, last: bool) {
    let (ok, partial, failed) = outcome_counts(&p.outcomes);
    // Zeros when no replication survived; the counts flag the hole.
    let zero = minnet::sweep::DegradationPoint {
        fault_count: p.fault_count,
        accepted_flits_per_node_cycle: 0.0,
        accepted_ci95: 0.0,
        mean_latency_cycles: 0.0,
        latency_ci95_cycles: 0.0,
        mean_aborted_packets: 0.0,
        mean_undeliverable_packets: 0.0,
        sustainable: false,
        steady: false,
        replications: Vec::new(),
    };
    let s = p.ok_stats.as_ref().unwrap_or(&zero);
    json.push_str("        {");
    let _ = write!(
        json,
        "\"fault_count\": {}, \"accepted_flits_per_node_cycle\": {:.6}, \
         \"accepted_ci95\": {:.6}, \"mean_latency_cycles\": {:.6}, \
         \"latency_ci95_cycles\": {:.6}, \"mean_aborted_packets\": {:.3}, \
         \"mean_undeliverable_packets\": {:.3}, \"sustainable\": {}, \"steady\": {}, \
         \"ok\": {ok}, \"partial\": {partial}, \"failed\": {failed}",
        p.fault_count,
        s.accepted_flits_per_node_cycle,
        s.accepted_ci95,
        s.mean_latency_cycles,
        s.latency_ci95_cycles,
        s.mean_aborted_packets,
        s.mean_undeliverable_packets,
        s.sustainable,
        s.steady,
    );
    json.push_str(if last { "}\n" } else { "},\n" });
}

fn main() -> Result<(), String> {
    let cli = parse_cli()?;
    if let Some(dir) = &cli.ckpt_dir {
        if !cli.require_existing {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("creating checkpoint dir {}: {e}", dir.display()))?;
        }
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);

    let mut results = Vec::new();
    for spec in NetworkSpec::paper_lineup() {
        let exp = smoke_experiment(&cli, spec);
        let policy = CampaignPolicy {
            retries: cli.retries,
            checkpoint: cli
                .ckpt_dir
                .as_ref()
                .map(|d| d.join(format!("{}.jsonl", spec.name()))),
            require_existing: cli.require_existing,
        };
        let compiled = exp.compile()?;
        let table_bytes = compiled
            .network()
            .routes()
            .map_or(0, minnet_routing::RouteTable::approx_bytes);
        let graph_bytes = compiled.network().network().approx_bytes() as u64;
        drop(compiled); // the campaign compiles internally
        let t = Instant::now();
        let points =
            campaign_degradation_curve(&exp, LOAD, &FAULTS, REPLICATIONS, threads, &policy)?;
        let run_ms = t.elapsed().as_secs_f64() * 1e3;
        for p in &points {
            let (ok, partial, failed) = outcome_counts(&p.outcomes);
            match &p.ok_stats {
                Some(s) => println!(
                    "{:>8} | {} faults: accepted {:.4} ±{:.4} f/n/c | latency {:7.1} ±{:5.1} cyc | aborted {:5.1} | refused {:6.1} | {ok} ok / {partial} partial / {failed} failed",
                    spec.name(),
                    p.fault_count,
                    s.accepted_flits_per_node_cycle,
                    s.accepted_ci95,
                    s.mean_latency_cycles,
                    s.latency_ci95_cycles,
                    s.mean_aborted_packets,
                    s.mean_undeliverable_packets,
                ),
                None => println!(
                    "{:>8} | {} faults: no healthy replications | {ok} ok / {partial} partial / {failed} failed",
                    spec.name(),
                    p.fault_count,
                ),
            }
        }
        results.push(NetResult {
            name: spec.name(),
            run_ms,
            table_bytes,
            graph_bytes,
            points,
        });
    }

    let mut json = String::from("{\n  \"meta\": {\n");
    let _ = writeln!(json, "    \"load\": {LOAD},");
    let _ = writeln!(json, "    \"fault_counts\": {FAULTS:?},");
    let _ = writeln!(json, "    \"replications\": {REPLICATIONS},");
    let _ = writeln!(json, "    \"warmup\": {WARMUP},");
    let _ = writeln!(json, "    \"measure\": {MEASURE},");
    let _ = writeln!(json, "    \"budget_cycles\": {},", cli.budget_cycles);
    let _ = writeln!(json, "    \"budget_ms\": {},", cli.budget_ms);
    let _ = writeln!(json, "    \"retries\": {},", cli.retries);
    let _ = writeln!(json, "    \"threads_used\": {threads},");
    let _ = writeln!(json, "{}", minnet_bench::host::host_meta_json("    "));
    json.push_str("  },\n  \"networks\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"run_ms\": {:.3},", r.run_ms);
        let _ = writeln!(json, "      \"table_bytes\": {},", r.table_bytes);
        let _ = writeln!(json, "      \"graph_bytes\": {},", r.graph_bytes);
        json.push_str("      \"points\": [\n");
        for (j, p) in r.points.iter().enumerate() {
            point_row(&mut json, p, j + 1 == r.points.len());
        }
        json.push_str("      ]\n");
        json.push_str(if i + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&cli.out_path, &json)
        .map_err(|e| format!("writing {}: {e}", cli.out_path))?;
    println!("wrote {}", cli.out_path);
    Ok(())
}
