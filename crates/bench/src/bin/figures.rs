//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p minnet-bench --bin figures            # everything
//! cargo run --release -p minnet-bench --bin figures -- --fig fig18a,fig19b
//! cargo run --release -p minnet-bench --bin figures -- --quick # small windows
//! cargo run --release -p minnet-bench --bin figures -- --list
//! ```
//!
//! For every figure the harness sweeps each curve over the offered-load
//! grid, prints the paper-style series (offered %, accepted %, mean
//! latency in µs, …) and writes one CSV per figure under `results/`.

use minnet::{
    curve_csv, curve_table, find_saturation, latency_throughput_curve, saturation_load, OutputFile,
};
use minnet_bench::{all_figures, figure_by_id, FigureDef};
use std::path::PathBuf;

struct Options {
    figs: Vec<String>,
    quick: bool,
    threads: usize,
    out_dir: PathBuf,
    list: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        figs: Vec::new(),
        quick: false,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        out_dir: PathBuf::from("results"),
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fig" => {
                let v = args.next().ok_or("--fig needs a value")?;
                opts.figs.extend(v.split(',').map(str::to_string));
            }
            "--quick" => opts.quick = true,
            "--threads" => {
                opts.threads = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
            }
            "--out" => opts.out_dir = PathBuf::from(args.next().ok_or("--out needs a value")?),
            "--list" => opts.list = true,
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig id[,id…]] [--quick] [--threads N] [--out DIR] [--list]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(opts)
}

fn run_figure(fig: &FigureDef, opts: &Options) -> Result<String, String> {
    println!("== {} — {}", fig.id, fig.title);
    let mut csv = String::new();
    for (label, exp) in &fig.curves {
        let mut exp = exp.clone();
        if opts.quick {
            exp.sim.warmup = 10_000;
            exp.sim.measure = 40_000;
        } else {
            exp.sim.warmup = 30_000;
            exp.sim.measure = 150_000;
        }
        let start = std::time::Instant::now();
        let points = latency_throughput_curve(&exp, &fig.loads, opts.threads)?;
        print!("{}", curve_table(label, &points));
        if let Some(sat) = saturation_load(&points) {
            // Refine the knee between the last steady grid point and the
            // next grid step by bisection.
            let lo = sat.offered;
            let hi = points
                .iter()
                .map(|p| p.offered)
                .filter(|&o| o > lo)
                .fold(f64::INFINITY, f64::min)
                .min(lo + 0.1);
            let refined = if hi.is_finite() && !opts.quick {
                find_saturation(&exp, lo, hi, 3)?
            } else {
                None
            };
            let best = refined.as_ref().unwrap_or(sat);
            println!(
                "  -> max sustainable throughput: {:.1}% (offered {:.1}%)   [{:.1?}]",
                best.report.throughput_percent(),
                best.offered * 100.0,
                start.elapsed()
            );
        } else {
            println!("  -> no sustainable point on the grid   [{:.1?}]", start.elapsed());
        }
        println!();
        csv.push_str(&curve_csv(label, &points));
    }
    Ok(csv)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if opts.list {
        for f in all_figures() {
            println!("{:<14} {}", f.id, f.title);
        }
        return;
    }
    let figs: Vec<FigureDef> = if opts.figs.is_empty() {
        all_figures()
    } else {
        opts.figs
            .iter()
            .map(|id| figure_by_id(id).ok_or_else(|| format!("unknown figure id {id:?}")))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| {
                eprintln!("error: {e} (use --list)");
                std::process::exit(2);
            })
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("error: cannot create {:?}: {e}", opts.out_dir);
        std::process::exit(1);
    }
    for fig in &figs {
        match run_figure(fig, &opts) {
            Ok(csv) => {
                let path = opts.out_dir.join(format!("{}.csv", fig.id));
                let written =
                    OutputFile::open(&path).and_then(|f| f.replace(csv.as_bytes()));
                if let Err(e) = written {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
                println!("   wrote {}\n", path.display());
            }
            Err(e) => {
                eprintln!("error: figure {}: {e}", fig.id);
                std::process::exit(1);
            }
        }
    }
}
