//! Extreme-scale construction benchmark: time the whole setup pipeline —
//! CSR graph build, route-table build, one `CompiledNet` compile — and a
//! budgeted simulation burst, from the paper's 64-terminal networks up to
//! a 16 384-terminal BMIN. Writes `BENCH_scale.json`.
//!
//! ```text
//! cargo run --release -p minnet-bench --bin scale_smoke              # ./BENCH_scale.json
//! cargo run --release -p minnet-bench --bin scale_smoke -- out.json \
//!     --max-nodes 4096 --budget-ms 1000
//! ```
//!
//! Per size row:
//!
//! * `graph_build_ms` / `graph_bytes` — building the [`NetworkGraph`]
//!   (builder + CSR arena assembly + validation) and its resident size;
//! * `ncells` — `channels × nodes`, the cell count of one *dense masked*
//!   fault-epoch table, which [`EngineConfig::route_table_max_cells`]
//!   caps (healthy routing is not affected by it);
//! * `table_build_ms` / `table_bytes` — [`RouteTable::build`] and what
//!   the table owns (digit rows + BMIN subtree bounds; the candidate pool
//!   is the graph's arena, counted under `graph_bytes`);
//! * `setup_ms` — one [`CompiledNet`] compile;
//! * `sim_cycles` / `sim_ms` / `cycles_per_sec` — a wall-budgeted
//!   uniform-traffic burst through the compiled network (the 16k row
//!   proves the compact table end to end).
//!
//! The JSON is written by hand (no serde in this offline workspace); see
//! EXPERIMENTS.md for the schema. CI runs the bin budgeted with
//! `--max-nodes 4096` on every push and builds the 16k row in the
//! release job; `BENCH_scale_baseline.json` is the committed reference.

use minnet_routing::RouteTable;
use minnet_sim::{CompiledNet, EngineConfig, EngineState, RunBudget, SimError};
use minnet_topology::{build_bmin, build_unidir, Geometry, NetworkGraph, UnidirKind};
use minnet_traffic::{MessageSizeDist, Workload, WorkloadSpec};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Offered load of the budgeted simulation burst — light enough that
/// every size reaches steady state inside the budget.
const LOAD: f64 = 0.1;
const WARMUP: u64 = 200;
const MEASURE: u64 = 100_000_000; // effectively "until the wall budget"

struct SizeSpec {
    name: &'static str,
    k: u32,
    n: u32,
    bidir: bool,
}

/// The sweep: the paper's 64-node baseline, then powers of the radix up
/// to 16 384 BMIN terminals, plus a high-radix (k = 32) row exercising
/// wide switch fanout.
const SIZES: [SizeSpec; 7] = [
    SizeSpec { name: "tmin_k4_n3", k: 4, n: 3, bidir: false },
    SizeSpec { name: "tmin_k4_n5", k: 4, n: 5, bidir: false },
    SizeSpec { name: "tmin_k32_n2", k: 32, n: 2, bidir: false },
    SizeSpec { name: "bmin_k4_n5", k: 4, n: 5, bidir: true },
    SizeSpec { name: "tmin_k4_n6", k: 4, n: 6, bidir: false },
    SizeSpec { name: "bmin_k4_n6", k: 4, n: 6, bidir: true },
    SizeSpec { name: "bmin_k4_n7", k: 4, n: 7, bidir: true },
];

struct Cli {
    out_path: String,
    max_nodes: u32,
    budget_ms: u64,
}

fn parse_cli() -> Result<Cli, String> {
    const USAGE: &str = "usage: scale_smoke [OUT.json] [--max-nodes N] [--budget-ms N]";
    let mut cli = Cli {
        out_path: "BENCH_scale.json".into(),
        max_nodes: u32::MAX,
        budget_ms: 2_000,
    };
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value; {USAGE}"));
        match a.as_str() {
            "--max-nodes" => {
                cli.max_nodes = value(&a)?.parse().map_err(|e| format!("{a}: {e}"))?;
            }
            "--budget-ms" => {
                cli.budget_ms = value(&a)?.parse().map_err(|e| format!("{a}: {e}"))?;
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

struct Row {
    name: &'static str,
    nodes: u32,
    channels: usize,
    graph_build_ms: f64,
    graph_bytes: u64,
    ncells: u64,
    table_build_ms: f64,
    table_bytes: u64,
    setup_ms: f64,
    sim_cycles: u64,
    sim_ms: f64,
    cycles_per_sec: f64,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn bench_size(spec: &SizeSpec, cli: &Cli) -> Result<Row, String> {
    let g = Geometry::new(spec.k, spec.n);
    let nodes = g.nodes();

    let t = Instant::now();
    let net: Arc<NetworkGraph> = Arc::new(if spec.bidir {
        build_bmin(g)
    } else {
        build_unidir(g, UnidirKind::Cube, 1)
    });
    let graph_build_ms = ms(t);
    let graph_bytes = net.approx_bytes() as u64;
    let channels = net.num_channels();
    let ncells = channels as u64 * u64::from(nodes);

    let t = Instant::now();
    let table = RouteTable::build(&net)?;
    let table_build_ms = ms(t);
    let table_bytes = table.approx_bytes();

    // Compiled-pipeline setup + budgeted simulation burst.
    let cfg = EngineConfig {
        warmup: WARMUP,
        measure: MEASURE,
        budget: RunBudget {
            max_cycles: 0,
            max_wall_ms: cli.budget_ms,
        },
        ..EngineConfig::default()
    };
    let t = Instant::now();
    let compiled = CompiledNet::new(Arc::clone(&net), cfg).map_err(|e| e.to_string())?;
    let setup_ms = ms(t);

    let mut wspec = WorkloadSpec::global_uniform(LOAD);
    wspec.sizes = MessageSizeDist::Fixed(16);
    let wl = Workload::compile(g, &wspec)?;
    let mut st = EngineState::new();
    let t = Instant::now();
    let sim_cycles = match compiled.run_poisson(&wl, 0x5CA1E, &mut st) {
        Ok(report) => report.cycles,
        // The budget cutting the run short is the expected outcome at
        // scale; the partial report still carries the executed cycles.
        Err(SimError::BudgetExceeded(partial)) => partial.spent_cycles,
        Err(e) => return Err(format!("{}: {e}", spec.name)),
    };
    let sim_ms = ms(t);

    Ok(Row {
        name: spec.name,
        nodes,
        channels,
        graph_build_ms,
        graph_bytes,
        ncells,
        table_build_ms,
        table_bytes,
        setup_ms,
        sim_cycles,
        sim_ms,
        cycles_per_sec: sim_cycles as f64 / (sim_ms / 1e3),
    })
}

fn main() -> Result<(), String> {
    let cli = parse_cli()?;
    let mut rows = Vec::new();
    for spec in &SIZES {
        let g = Geometry::new(spec.k, spec.n);
        if g.nodes() > cli.max_nodes {
            println!(
                "{:>12}: skipped ({} nodes > --max-nodes {})",
                spec.name,
                g.nodes(),
                cli.max_nodes
            );
            continue;
        }
        let r = bench_size(spec, &cli)?;
        println!(
            "{:>12}: {:6} nodes {:7} ch | graph {:8.2} ms {:9} B | table {:6.3} ms {:7} B | setup {:8.2} ms | sim {:.2e} cyc/s",
            r.name, r.nodes, r.channels, r.graph_build_ms, r.graph_bytes,
            r.table_build_ms, r.table_bytes, r.setup_ms, r.cycles_per_sec
        );
        rows.push(r);
    }
    if rows.is_empty() {
        return Err("every size was skipped; raise --max-nodes".into());
    }

    let mut json = String::from("{\n  \"meta\": {\n");
    let _ = writeln!(json, "    \"load\": {LOAD},");
    let _ = writeln!(json, "    \"warmup\": {WARMUP},");
    let _ = writeln!(json, "    \"budget_ms\": {},", cli.budget_ms);
    let _ = writeln!(json, "    \"max_nodes\": {},", cli.max_nodes);
    let _ = writeln!(
        json,
        "    \"route_table_max_cells\": {},",
        EngineConfig::default().route_table_max_cells
    );
    let _ = writeln!(json, "{}", minnet_bench::host::host_meta_json("    "));
    json.push_str("  },\n  \"sizes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str("    {");
        let _ = write!(
            json,
            "\"name\": \"{}\", \"nodes\": {}, \"channels\": {}, \
             \"graph_build_ms\": {:.3}, \"graph_bytes\": {}, \"ncells\": {}, \
             \"table_build_ms\": {:.3}, \"table_bytes\": {}, \"setup_ms\": {:.3}, \
             \"sim_cycles\": {}, \"sim_ms\": {:.3}, \"cycles_per_sec\": {:.1}",
            r.name,
            r.nodes,
            r.channels,
            r.graph_build_ms,
            r.graph_bytes,
            r.ncells,
            r.table_build_ms,
            r.table_bytes,
            r.setup_ms,
            r.sim_cycles,
            r.sim_ms,
            r.cycles_per_sec,
        );
        json.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&cli.out_path, &json)
        .map_err(|e| format!("writing {}: {e}", cli.out_path))?;
    println!("wrote {}", cli.out_path);
    Ok(())
}
