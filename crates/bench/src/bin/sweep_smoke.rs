//! Sweep smoke benchmark: run a fixed micro-sweep through the compiled
//! pipeline and write machine-readable numbers to `BENCH_sweep.json`.
//!
//! ```text
//! cargo run --release -p minnet-bench --bin sweep_smoke            # ./BENCH_sweep.json
//! cargo run --release -p minnet-bench --bin sweep_smoke -- out.json
//! cargo run --release -p minnet-bench --features hotstats --bin sweep_smoke
//! cargo run --release -p minnet-bench --bin sweep_smoke -- out.json \
//!     --budget-ms 5000 --retries 1 --checkpoint-dir ckpts/
//! ```
//!
//! For each paper-lineup network the binary measures, with wall clocks
//! around the real API calls:
//!
//! * `setup_ms` — one [`Experiment::compile`]: graph + routing table +
//!   workload template;
//! * `loads[]` — one row per offered load, each a single-threaded
//!   replicated point (3 replications) through the campaign runner:
//!   wall time, simulated cycles, and cycles/sec. Per-load rows make
//!   load-dependent engine changes (the event-horizon fast-forward, the
//!   struct-of-arrays hot state) visible instead of averaged away;
//! * `run_ms` / `cycles_per_sec` — the single-threaded totals over all
//!   load rows, the engine-throughput headline CI compares against
//!   `BENCH_baseline.json`;
//! * `run_ms_mt` — the same full sweep issued once through the worker
//!   pool with `threads_used` workers (`available_parallelism`, capped
//!   at 8), the scaling row;
//! * `one_shot_ms` — the same runs issued as independent
//!   [`Experiment::run_seeded`] calls, the pre-compilation cost model
//!   (skipped when a budget is set — a cut one-shot run is an error on
//!   that legacy surface, and its timing would be meaningless anyway);
//! * `ok` / `partial` / `failed` — per-network outcome counts over every
//!   campaign task, so budget cuts and isolated failures are visible in
//!   the artifact instead of masquerading as fast runs (`bench_compare`
//!   prints them next to the throughput diff);
//! * `cycles_per_sec_scalar` / `cycles_per_sec_lockstep` — per load, the
//!   same 3 replication seeds issued (a) one lane at a time through the
//!   scalar entry and (b) as one lockstep fleet chunked over
//!   `meta.lockstep_threads` = `min(replications, threads_used)` lane
//!   blocks. Aggregate throughput: summed lane cycles over fleet wall
//!   time — the honest lockstep headline (thread count labeled, not
//!   hidden). Zero when a budget is set (budget-armed runs are
//!   lockstep-ineligible and fall back to scalar anyway).
//!
//! The `meta` block records the sweep shape plus the host identity
//! (`rustc`, target triple, compile-time target features, core count —
//! see `minnet_bench::host`); `bench_compare` warns when the baseline
//! was taken on a different host, since cross-host wall-clock diffs are
//! noise.
//!
//! Resilience flags mirror the `minnet` CLI: `--budget-cycles` /
//! `--budget-ms` bound each run, `--retries` reruns failed points on
//! derived seeds, and `--checkpoint-dir DIR` (or `--resume-dir`, which
//! requires the files to exist) keeps one JSONL checkpoint per network
//! and row under `DIR` — kill the process mid-sweep and rerun to finish
//! only the missing points. Timing rows resumed from a checkpoint
//! measure only the tasks actually run.
//!
//! With the `hotstats` feature on, every load row also carries the
//! engine's per-phase breakdown (arrivals/allocate/transmit wall time,
//! executed vs fast-forward-skipped cycles) drained from
//! `minnet_sim::hotstats` between rows.
//!
//! The JSON is written by hand (no serde in this offline workspace); the
//! schema is one object per network in `"networks"`, plus a `"meta"`
//! object recording the sweep shape. CI uploads the file as an artifact
//! and diffs `cycles_per_sec` against the committed `BENCH_baseline.json`
//! (warn-only; see `bench_compare`), so regressions in the compiled path,
//! the setup split, or any single load row leave a history.

use minnet::{
    campaign_replicated_curve, outcome_counts, CampaignPolicy, Experiment, NetworkSpec,
    ReplicatedCampaignPoint,
};
use minnet_traffic::MessageSizeDist;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const LOADS: [f64; 7] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
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
    const USAGE: &str = "usage: sweep_smoke [OUT.json] [--budget-cycles N] [--budget-ms N] \
                         [--retries N] [--checkpoint-dir DIR | --resume-dir DIR]";
    let mut cli = Cli {
        out_path: "BENCH_sweep.json".into(),
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

impl Cli {
    fn smoke_experiment(&self, spec: NetworkSpec) -> Experiment {
        let mut exp = Experiment::paper_default(spec);
        exp.sizes = MessageSizeDist::Fixed(64);
        exp.sim.warmup = WARMUP;
        exp.sim.measure = MEASURE;
        exp.sim.budget.max_cycles = self.budget_cycles;
        exp.sim.budget.max_wall_ms = self.budget_ms;
        exp
    }

    /// The campaign policy for one checkpointable unit (`tag` names the
    /// per-network, per-row JSONL file under the checkpoint dir).
    fn policy(&self, tag: &str) -> CampaignPolicy {
        CampaignPolicy {
            retries: self.retries,
            checkpoint: self
                .ckpt_dir
                .as_ref()
                .map(|d| d.join(format!("{tag}.jsonl"))),
            require_existing: self.require_existing,
        }
    }
}

/// One single-threaded replicated point at a fixed load.
struct LoadRow {
    load: f64,
    run_ms: f64,
    cycles: u64,
    cycles_per_sec: f64,
    /// Direct-engine comparison: the replication seeds one at a time
    /// through the scalar entry. Zero when a budget skips the section.
    cycles_per_sec_scalar: f64,
    /// The same seeds as one lockstep fleet over
    /// `min(replications, threads)` lane-block threads (aggregate:
    /// summed lane cycles / fleet wall time). Zero when skipped.
    cycles_per_sec_lockstep: f64,
    #[cfg(feature = "hotstats")]
    hot: minnet_sim::hotstats::HotStats,
}

struct NetResult {
    name: String,
    setup_ms: f64,
    /// Resident bytes the compiled route table owns and of the CSR
    /// topology arenas — the memory companions to `setup_ms`, so
    /// `bench_compare` can flag setup-memory regressions alongside time
    /// ones.
    table_bytes: u64,
    graph_bytes: u64,
    run_ms: f64,
    run_ms_mt: f64,
    one_shot_ms: f64,
    cycles_per_sec: f64,
    total_cycles: u64,
    mean_latency_cycles: f64,
    latency_ci95_cycles: f64,
    ok: usize,
    partial: usize,
    failed: usize,
    loads: Vec<LoadRow>,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// Simulated cycles a campaign point actually executed — `Ok` and
/// `Partial` reports both count (a budget-cut run did real work).
fn point_cycles(p: &ReplicatedCampaignPoint) -> u64 {
    p.outcomes
        .iter()
        .filter_map(|o| o.report().map(|r| r.cycles))
        .sum()
}

fn bench_network(
    spec: NetworkSpec,
    threads: usize,
    lockstep_threads: usize,
    cli: &Cli,
) -> Result<NetResult, String> {
    let exp = cli.smoke_experiment(spec);
    let name = spec.name();

    let t = Instant::now();
    let compiled = exp.compile()?;
    let setup_ms = ms(t);
    let table_bytes = compiled
        .network()
        .routes()
        .map_or(0, minnet_routing::RouteTable::approx_bytes);
    let graph_bytes = compiled.network().network().approx_bytes() as u64;
    drop(compiled); // the campaign compiles internally; timed apart

    // Per-load single-threaded rows: comparable engine throughput,
    // unpolluted by worker scheduling.
    #[cfg(feature = "hotstats")]
    let _ = minnet_sim::hotstats::take(); // drain other sections' counters
    let mut loads = Vec::with_capacity(LOADS.len());
    let mut knee_latency = (0.0, 0.0);
    let (mut ok, mut partial, mut failed) = (0, 0, 0);
    for (i, &load) in LOADS.iter().enumerate() {
        let policy = cli.policy(&format!("{name}_row{i}"));
        let t = Instant::now();
        let pts = campaign_replicated_curve(&exp, &[load], REPLICATIONS, 1, &policy)?;
        let run_ms = ms(t);
        let point = &pts[0];
        let (o, p, f) = outcome_counts(&point.outcomes);
        ok += o;
        partial += p;
        failed += f;
        let cycles = point_cycles(point);
        if let Some(stats) = &point.ok_stats {
            knee_latency = (stats.mean_latency_cycles, stats.latency_ci95_cycles);
        }
        loads.push(LoadRow {
            load,
            run_ms,
            cycles,
            cycles_per_sec: cycles as f64 / (run_ms / 1e3),
            cycles_per_sec_scalar: 0.0,
            cycles_per_sec_lockstep: 0.0,
            #[cfg(feature = "hotstats")]
            hot: minnet_sim::hotstats::take(),
        });
    }
    let run_ms: f64 = loads.iter().map(|r| r.run_ms).sum();
    let total_cycles: u64 = loads.iter().map(|r| r.cycles).sum();

    // The same full sweep through the worker pool — the scaling row.
    let policy = cli.policy(&format!("{name}_mt"));
    let t = Instant::now();
    let mt = campaign_replicated_curve(&exp, &LOADS, REPLICATIONS, threads, &policy)?;
    let run_ms_mt = ms(t);
    for point in &mt {
        let (o, p, f) = outcome_counts(&point.outcomes);
        ok += o;
        partial += p;
        failed += f;
    }
    #[cfg(feature = "hotstats")]
    let _ = minnet_sim::hotstats::take(); // keep MT noise out of load rows

    // The same number of runs issued one-shot — every run re-validates
    // the spec, rebuilds the graph, recompiles the workload, and
    // allocates fresh engine state, which is exactly what each sweep
    // point cost before the compiled pipeline. Skipped under a budget:
    // the legacy surface turns a cut into an error.
    let one_shot_ms = if exp.sim.budget.is_unlimited() {
        let t = Instant::now();
        for (i, &load) in LOADS.iter().enumerate() {
            for r in 0..REPLICATIONS {
                exp.run_seeded(load, (i * REPLICATIONS + r) as u64 + 1)?;
            }
        }
        ms(t)
    } else {
        0.0
    };

    // Direct-engine lockstep comparison: the same replication count per
    // load, first one lane at a time through the scalar entry, then as
    // one lockstep fleet chunked over `lockstep_threads` lane blocks.
    // Both paths produce bitwise-identical reports (pinned by the
    // engine_equivalence suite); only the wall clock differs. Skipped
    // under a budget — budget-armed configs are lockstep-ineligible.
    if lockstep_threads > 0 {
        let compiled = exp.compile()?;
        debug_assert!(compiled.network().lockstep_eligible());
        let mut st = minnet_sim::EngineState::new();
        let mut ls = minnet_sim::LockstepState::new();
        for (i, row) in loads.iter_mut().enumerate() {
            let wl = compiled.template().workload_at(row.load)?;
            let seeds: Vec<u64> = (0..REPLICATIONS)
                .map(|r| 0x10C4_57E9_u64 + (i * REPLICATIONS + r) as u64)
                .collect();
            let t = Instant::now();
            let mut scalar_cycles = 0u64;
            for &seed in &seeds {
                let rep = compiled
                    .network()
                    .run_poisson(&wl, seed, &mut st)
                    .map_err(|e| e.to_string())?;
                scalar_cycles += rep.cycles;
            }
            let scalar_ms = ms(t);
            row.cycles_per_sec_scalar = scalar_cycles as f64 / (scalar_ms / 1e3);

            let t = Instant::now();
            let reports = compiled
                .network()
                .run_poisson_lockstep(&wl, &seeds, lockstep_threads, &mut ls);
            let fleet_ms = ms(t);
            let mut fleet_cycles = 0u64;
            for rep in reports {
                fleet_cycles += rep.map_err(|e| e.to_string())?.cycles;
            }
            row.cycles_per_sec_lockstep = fleet_cycles as f64 / (fleet_ms / 1e3);
        }
        #[cfg(feature = "hotstats")]
        let _ = minnet_sim::hotstats::take(); // keep comparison noise out
    }

    Ok(NetResult {
        name,
        setup_ms,
        table_bytes,
        graph_bytes,
        run_ms,
        run_ms_mt,
        one_shot_ms,
        cycles_per_sec: total_cycles as f64 / (run_ms / 1e3),
        total_cycles,
        mean_latency_cycles: knee_latency.0,
        latency_ci95_cycles: knee_latency.1,
        ok,
        partial,
        failed,
        loads,
    })
}

fn write_load_row(json: &mut String, r: &LoadRow, last: bool) {
    json.push_str("        {");
    let _ = write!(
        json,
        "\"load\": {}, \"run_ms\": {:.3}, \"cycles\": {}, \"cycles_per_sec\": {:.1}, \
         \"cycles_per_sec_scalar\": {:.1}, \"cycles_per_sec_lockstep\": {:.1}",
        r.load, r.run_ms, r.cycles, r.cycles_per_sec, r.cycles_per_sec_scalar,
        r.cycles_per_sec_lockstep
    );
    #[cfg(feature = "hotstats")]
    {
        let h = &r.hot;
        let _ = write!(
            json,
            ", \"arrivals_ms\": {:.3}, \"allocate_ms\": {:.3}, \"transmit_ms\": {:.3}, \
             \"cycles_executed\": {}, \"cycles_skipped\": {}, \"ff_jumps\": {}, \
             \"skipped_fraction\": {:.6}, \
             \"alloc_words_scanned\": {}, \"alloc_bits_processed\": {}, \
             \"transmit_words_scanned\": {}, \"transmit_bits_processed\": {}, \
             \"transmit_bits_per_word\": {:.3}",
            h.arrivals_ns as f64 / 1e6,
            h.allocate_ns as f64 / 1e6,
            h.transmit_ns as f64 / 1e6,
            h.cycles_executed,
            h.cycles_skipped,
            h.ff_jumps,
            h.skipped_fraction(),
            h.alloc_words_scanned,
            h.alloc_bits_processed,
            h.transmit_words_scanned,
            h.transmit_bits_processed,
            h.transmit_bits_per_word()
        );
    }
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
    let threads_detected = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = threads_detected.min(8);

    // Lockstep fleets are only meaningful (and only taken) without a
    // run budget; 0 records "comparison skipped" in the artifact.
    let lockstep_threads = if cli.budget_cycles == 0 && cli.budget_ms == 0 {
        threads.clamp(1, REPLICATIONS)
    } else {
        0
    };

    let mut results = Vec::new();
    for spec in NetworkSpec::paper_lineup() {
        let r = bench_network(spec, threads, lockstep_threads, &cli)?;
        let speedup = match r.loads.last() {
            Some(row) if row.cycles_per_sec_scalar > 0.0 => {
                row.cycles_per_sec_lockstep / row.cycles_per_sec_scalar
            }
            _ => 0.0,
        };
        println!(
            "{:>8}: setup {:7.2} ms | sweep {:8.2} ms ({:.2e} cycles/s, 1 thread; {:8.2} ms on {threads}) | one-shot {:8.2} ms | lockstep {speedup:.2}x @{} on {lockstep_threads} | {} ok / {} partial / {} failed",
            r.name, r.setup_ms, r.run_ms, r.cycles_per_sec, r.run_ms_mt, r.one_shot_ms,
            LOADS[LOADS.len() - 1], r.ok, r.partial, r.failed
        );
        results.push(r);
    }

    let mut json = String::from("{\n  \"meta\": {\n");
    let _ = writeln!(json, "    \"loads\": {LOADS:?},");
    let _ = writeln!(json, "    \"replications\": {REPLICATIONS},");
    let _ = writeln!(json, "    \"warmup\": {WARMUP},");
    let _ = writeln!(json, "    \"measure\": {MEASURE},");
    let _ = writeln!(json, "    \"budget_cycles\": {},", cli.budget_cycles);
    let _ = writeln!(json, "    \"budget_ms\": {},", cli.budget_ms);
    let _ = writeln!(json, "    \"retries\": {},", cli.retries);
    let _ = writeln!(json, "    \"threads_detected\": {threads_detected},");
    let _ = writeln!(json, "    \"threads_used\": {threads},");
    let _ = writeln!(json, "    \"lockstep_threads\": {lockstep_threads},");
    let _ = writeln!(json, "    \"hotstats\": {},", cfg!(feature = "hotstats"));
    let _ = writeln!(json, "{}", minnet_bench::host::host_meta_json("    "));
    json.push_str("  },\n  \"networks\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"setup_ms\": {:.3},", r.setup_ms);
        let _ = writeln!(json, "      \"table_bytes\": {},", r.table_bytes);
        let _ = writeln!(json, "      \"graph_bytes\": {},", r.graph_bytes);
        let _ = writeln!(json, "      \"run_ms\": {:.3},", r.run_ms);
        let _ = writeln!(json, "      \"run_ms_mt\": {:.3},", r.run_ms_mt);
        let _ = writeln!(json, "      \"one_shot_ms\": {:.3},", r.one_shot_ms);
        let _ = writeln!(json, "      \"cycles_per_sec\": {:.1},", r.cycles_per_sec);
        let _ = writeln!(json, "      \"total_cycles\": {},", r.total_cycles);
        let _ = writeln!(
            json,
            "      \"mean_latency_cycles\": {:.6},",
            r.mean_latency_cycles
        );
        let _ = writeln!(
            json,
            "      \"latency_ci95_cycles\": {:.6},",
            r.latency_ci95_cycles
        );
        let _ = writeln!(
            json,
            "      \"ok\": {}, \"partial\": {}, \"failed\": {},",
            r.ok, r.partial, r.failed
        );
        json.push_str("      \"loads\": [\n");
        for (j, row) in r.loads.iter().enumerate() {
            write_load_row(&mut json, row, j + 1 == r.loads.len());
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
