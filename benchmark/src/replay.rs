//! The traced round: the same work the programs do, replayed in-process
//! through each layer's public functions with a span around every call.
//!
//! A traced round has three parts. The *mirror* makes exactly the calls
//! the program makes (`campaign_curve` + `curve_csv`, `Scenario::run` +
//! `verdict_report_json`, `run_job`) and its bytes must equal the
//! program's. The *layers* part takes the same inputs apart: graph
//! build, table build, template compile, engine compile, then every
//! point as a raw `run_poisson`. The *probes* time single layer
//! functions on fixed pseudo-random inputs. Only the mirror is compared
//! with the untraced CLI round (`trace.overhead_pct`).

use crate::trace::Tracer;
use crate::workloads::{self, Ctx, DaemonProc, Round, Sweep, Workload, JOBS, LOWLOAD_REPS};
use minnet::{
    campaign_curve, curve_csv, run_job, scenario_files, verdict_report_json, CampaignPolicy,
    Experiment, JobSpec, NetworkSpec, Request, Response, Scenario, ScenarioSet, SweepPoint,
};
use minnet_routing::{RouteLogic, RouteTable};
use minnet_sim::{CompiledNet, EngineConfig, EngineState, LockstepState, SimReport};
use minnet_switch::{Arbiter, ArbiterKind};
use minnet_topology::{FaultPlan, NetworkGraph};
use minnet_traffic::{PoissonArrivals, WorkloadSpec, WorkloadTemplate};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Per-layer metric values of one traced round, by metric name.
pub type Values = BTreeMap<String, f64>;

fn add(values: &mut Values, name: &str, x: f64) {
    *values.entry(name.to_string()).or_insert(0.0) += x;
}

/// SplitMix64 finalizer — the per-point seed derivation of
/// `minnet::sweep` (crate-private there). The layers part checks every
/// raw report bitwise against the campaign's, so a drift between this
/// copy and the program fails the run instead of skewing it.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn delivered_flits(r: &SimReport, nodes: u32) -> f64 {
    (r.accepted_flits_per_node_cycle * f64::from(nodes) * r.measured_cycles as f64).round()
}

/// The load-independent artifacts of one experiment, each built under
/// its own span.
struct Built {
    graph: Arc<NetworkGraph>,
    table: Option<RouteTable>,
    template: WorkloadTemplate,
    net: CompiledNet,
}

fn build(tr: &mut Tracer, values: &mut Values, exp: &Experiment) -> Result<Built, String> {
    let graph = tr.span("topology.graph_build", |_| {
        Arc::new(exp.network.build(exp.geometry))
    });
    add(values, "topology.graph_bytes", graph.approx_bytes() as f64);
    let cfg = EngineConfig {
        vcs: exp.network.vcs(),
        ..exp.sim.clone()
    };
    // The table `CompiledNet::new` is about to build again, alone, so
    // that sim.compile's self time can be told from the table's.
    let cells = graph.num_channels() as u64 * u64::from(exp.geometry.nodes());
    let table = if cfg.route_table_max_cells == 0 || cells <= cfg.route_table_max_cells {
        let table = tr.span("routing.table_build", |_| RouteTable::build(&graph))?;
        add(values, "routing.table_cells", cells as f64);
        add(values, "routing.table_bytes", table.approx_bytes() as f64);
        Some(table)
    } else {
        None
    };
    let spec = WorkloadSpec {
        offered_load: 1.0,
        pattern: exp.pattern,
        clustering: exp.clustering.clone(),
        rates: exp.rates.clone(),
        sizes: exp.sizes,
    };
    let template = tr.span("traffic.template_compile", |_| {
        WorkloadTemplate::compile(exp.geometry, &spec)
    })?;
    let net = tr
        .span("sim.compile", |_| CompiledNet::new(graph.clone(), cfg))
        .map_err(|e| e.to_string())?;
    Ok(Built {
        graph,
        table,
        template,
        net,
    })
}

/// Every point of `sweep` as a raw `workload_at` + `run_poisson` on one
/// reused `EngineState`, the way the campaign runner's single worker
/// does it. Returns the reports and each run's seconds.
fn raw_points(
    tr: &mut Tracer,
    values: &mut Values,
    built: &Built,
    loads: &[f64],
    seed: u64,
) -> Result<Vec<(SimReport, f64)>, String> {
    let mut st = EngineState::new();
    let mut out = Vec::with_capacity(loads.len());
    let nodes = built.graph.geometry.nodes();
    for (i, &load) in loads.iter().enumerate() {
        let workload = tr.span("traffic.rescale", |_| built.template.workload_at(load))?;
        let (report, secs) = tr.timed("sim.run", |_| {
            built
                .net
                .run_poisson(&workload, mix(seed, i as u64 + 1), &mut st)
        });
        let report = report.map_err(|e| e.to_string())?;
        add(values, "sim.cycles", report.cycles as f64);
        add(
            values,
            "sim.delivered_flits",
            delivered_flits(&report, nodes),
        );
        out.push((report, secs));
    }
    Ok(out)
}

/// `campaign_curve` + `curve_csv` as `minnet sweep` runs them; returns
/// the CSV bytes and the campaign's completed points.
fn mirror_sweep(
    tr: &mut Tracer,
    span: &str,
    exp: &Experiment,
    loads: &[f64],
    policy: &CampaignPolicy,
) -> Result<(Vec<u8>, Vec<SweepPoint>), String> {
    let points = tr.span(span, |_| campaign_curve(exp, loads, 1, policy))?;
    let completed: Vec<SweepPoint> = points
        .iter()
        .filter_map(|p| {
            p.outcome.ok_report().map(|r| SweepPoint {
                offered: p.offered,
                report: r.clone(),
            })
        })
        .collect();
    let csv = tr.span("core.csv_encode", |_| {
        curve_csv(&exp.network.name(), &completed)
    });
    Ok((csv.into_bytes(), completed))
}

/// The cross-path check: the replay's bytes for output `name` must be
/// the bytes the program wrote in the CLI round.
fn expect_same(problems: &mut Vec<String>, cli: &Round, name: &str, replay: &[u8]) {
    match cli.outputs.iter().find(|(n, _)| n == name) {
        Some((_, bytes)) if bytes.as_slice() == replay => {}
        Some(_) => problems.push(format!("{name}: replay bytes differ from the program's")),
        None => problems.push(format!("{name}: the program produced no such output")),
    }
}

fn sweep_workload(
    ctx: &Ctx,
    workload: Workload,
    tr: &mut Tracer,
    cli: &Round,
    values: &mut Values,
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    let sweeps = workloads::sweeps(ctx, workload);
    let dir = ctx.workdir(workload)?.join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let plain = CampaignPolicy::isolate();

    // Mirror: what the CLI round did, call for call. Keeps each sweep's
    // completed points for the bitwise check against the raw runs.
    let mut campaign_points: Vec<Vec<SweepPoint>> = Vec::new();
    let (mirrored, mirror_s) = tr.timed("mirror", |tr| -> Result<(), String> {
        if workload == Workload::LowloadCheckpointed {
            for s in &sweeps {
                let (exp, loads) = (s.experiment(ctx.seed), s.loads_f64());
                for rep in 0..LOWLOAD_REPS {
                    let ck = dir.join(format!("{}.{rep}.ck.jsonl", s.tag));
                    let _ = std::fs::remove_file(&ck);
                    for (mode, require_existing) in [("checkpoint", false), ("resume", true)] {
                        let policy = CampaignPolicy {
                            retries: 0,
                            checkpoint: Some(ck.clone()),
                            require_existing,
                        };
                        let span = format!("core.campaign_curve.{mode}");
                        let (csv, completed) = mirror_sweep(tr, &span, &exp, &loads, &policy)?;
                        let name = format!("{}.{mode}.csv", s.tag);
                        expect_same(problems, cli, &name, &csv);
                        if rep == 0 && !require_existing {
                            campaign_points.push(completed);
                        }
                    }
                    if rep == 0 {
                        let bytes = std::fs::metadata(&ck).map_or(0, |m| m.len());
                        add(values, "core.checkpoint_bytes", bytes as f64);
                    }
                }
            }
        } else {
            for s in &sweeps {
                let (exp, loads) = (s.experiment(ctx.seed), s.loads_f64());
                let (csv, completed) =
                    mirror_sweep(tr, "core.campaign_curve", &exp, &loads, &plain)?;
                let name = format!("{}.csv", s.tag);
                expect_same(problems, cli, &name, &csv);
                campaign_points.push(completed);
            }
        }
        Ok(())
    });
    mirrored?;
    let round = tr.round;
    add(
        values,
        "core.csv_encode_s",
        tr.total(round, "core.csv_encode"),
    );

    // Layers: the same sweeps taken apart.
    let mut model_err = Vec::new();
    let mut first_built = None;
    tr.span("layers", |tr| -> Result<(), String> {
        for (s, completed) in sweeps.iter().zip(&campaign_points) {
            let (exp, loads) = (s.experiment(ctx.seed), s.loads_f64());
            let built = build(tr, values, &exp)?;
            let raw = raw_points(tr, values, &built, &loads, ctx.seed)?;
            for (i, (report, secs)) in raw.iter().enumerate() {
                if !completed
                    .get(i)
                    .is_some_and(|p| p.report.bitwise_eq(report))
                {
                    problems.push(format!(
                        "{} load {}: raw run differs from the campaign's report",
                        s.tag, s.loads[i]
                    ));
                }
                let cps = report.cycles as f64 / secs;
                match workload {
                    Workload::PaperLineup => {
                        let tag = crate::metrics::LINEUP_LOADS[i].1;
                        add(values, &format!("sim.cps.{}.{tag}", s.tag), cps);
                    }
                    Workload::Scale1k => add(values, &format!("sim.cps.{}", s.tag), cps),
                    _ => {}
                }
            }
            if workload == Workload::LowloadCheckpointed {
                // The campaign without a checkpoint: the baseline the
                // checkpointed campaign is compared with.
                mirror_sweep(tr, "core.campaign_curve", &exp, &loads, &plain)?;
                let cycles: f64 = raw.iter().map(|(r, _)| r.cycles as f64).sum();
                let secs: f64 = raw.iter().map(|(_, s)| s).sum();
                add(values, &format!("sim.cps.low.{}", s.tag), cycles / secs);
                add(values, "sim.state_reset_s", state_reset(tr, s, ctx.seed)?);
            }
            if workload == Workload::PaperLineup {
                let bidir = built.graph.kind.is_bidirectional();
                let model =
                    minnet::model::mean_unloaded_latency(&exp.geometry, bidir, exp.sizes.mean());
                model_err.push((raw[0].0.mean_latency_cycles - model).abs() / model * 100.0);
            }
            if workload == Workload::Scale1k && s.tag == "bmin1k" {
                let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
                tr.span("routing.table_build_par", |_| {
                    RouteTable::build_parallel(&built.graph, threads).map(drop)
                })?;
            }
            first_built.get_or_insert(built);
        }
        Ok(())
    })?;
    add(
        values,
        "routing.table_build_par_s",
        tr.total(round, "routing.table_build_par"),
    );
    if !model_err.is_empty() {
        add(
            values,
            "model_err_pct",
            model_err.iter().sum::<f64>() / model_err.len() as f64,
        );
    }

    // The campaign's bookkeeping: `campaign_curve` minus the same
    // construction and the same points run raw.
    let raw_s = [
        "topology.graph_build",
        "traffic.template_compile",
        "sim.compile",
        "traffic.rescale",
        "sim.run",
    ]
    .iter()
    .map(|n| tr.total(round, n))
    .sum::<f64>();
    let campaign_s = tr.total(round, "core.campaign_curve");
    add(values, "core.campaign_overhead_s", campaign_s - raw_s);
    if workload == Workload::LowloadCheckpointed {
        let reps = LOWLOAD_REPS as f64;
        add(
            values,
            "core.checkpoint_write_s",
            tr.total(round, "core.campaign_curve.checkpoint") - reps * campaign_s,
        );
        add(
            values,
            "core.checkpoint_resume_s",
            tr.total(round, "core.campaign_curve.resume"),
        );
    }
    if workload == Workload::PaperLineup {
        fleet_vs_grid(tr, values, ctx)?;
    }

    // Probes on the workload's first (and largest) network.
    let built = first_built.ok_or("a sweep workload has at least one sweep")?;
    probes(tr, values, &built, &sweeps[0].experiment(ctx.seed))?;
    Ok(mirror_s)
}

/// A one-cycle run on an `EngineState` a full-length run has just used:
/// what resetting the state costs at the start of every point.
fn state_reset(tr: &mut Tracer, s: &Sweep, seed: u64) -> Result<f64, String> {
    let full = s.experiment(seed).compile()?;
    let mut null = s.experiment(seed);
    (null.sim.warmup, null.sim.measure) = (0, 1);
    let null = null.compile()?;
    let mut st = EngineState::new();
    let mut secs = Vec::new();
    for (i, &load) in s.loads_f64().iter().enumerate() {
        full.run_with(load, mix(seed, i as u64 + 1), &mut st)?;
        let (r, s) = tr.timed("sim.state_reset", |_| null.run_with(load, seed, &mut st));
        r?;
        secs.push(s);
    }
    Ok(crate::stats::median(&secs))
}

/// Eight TMIN replications at load 0.3: one lockstep fleet on every
/// core against eight scalar runs — ROADMAP item 1's open question.
fn fleet_vs_grid(tr: &mut Tracer, values: &mut Values, ctx: &Ctx) -> Result<(), String> {
    let mut exp = Experiment::paper_default(NetworkSpec::tmin());
    (exp.sim.warmup, exp.sim.measure, exp.sim.seed) = (2_000, 20_000, ctx.seed);
    let compiled = exp.compile()?;
    let workload = compiled.template().workload_at(0.3)?;
    let seeds: Vec<u64> = (0..8).map(|r| mix(ctx.seed, r + 1)).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ls = LockstepState::new();
    let (fleet, fleet_s) = tr.timed("sim.fleet", |_| {
        compiled
            .network()
            .run_poisson_lockstep(&workload, &seeds, threads, &mut ls)
    });
    let mut st = EngineState::new();
    let (grid, grid_s) = tr.timed("sim.grid", |_| {
        seeds
            .iter()
            .map(|&seed| compiled.network().run_poisson(&workload, seed, &mut st))
            .collect::<Vec<_>>()
    });
    let mut cycles = 0.0;
    for (f, g) in fleet.iter().zip(&grid) {
        match (f, g) {
            (Ok(f), Ok(g)) if f.bitwise_eq(g) => cycles += g.cycles as f64,
            _ => return Err("lockstep fleet and scalar grid disagree".into()),
        }
    }
    add(values, "sim.fleet_cps", cycles / fleet_s);
    add(values, "sim.grid_cps", cycles / grid_s);
    Ok(())
}

/// Pseudo-random `(src, dst)` pairs, the same every run.
fn node_pairs(nodes: u32, count: usize) -> Vec<(u32, u32)> {
    (0..count as u64)
        .map(|i| {
            let x = mix(0xB0B5, i);
            (
                (x % u64::from(nodes)) as u32,
                ((x >> 32) % u64::from(nodes)) as u32,
            )
        })
        .filter(|(s, d)| s != d)
        .collect()
}

/// Time single layer functions on fixed inputs over `built`'s network.
fn probes(
    tr: &mut Tracer,
    values: &mut Values,
    built: &Built,
    exp: &Experiment,
) -> Result<(), String> {
    let net = &*built.graph;
    let pairs = node_pairs(exp.geometry.nodes(), 1 << 14);

    // routing: walk every pair's route hop by hop, by table and by logic.
    if let Some(table) = &built.table {
        let (hops, secs) = tr.timed("probe.table_lookup", |_| {
            let mut hops = 0u64;
            for &(src, dst) in &pairs {
                let mut at = net.inject(src);
                loop {
                    let cands = table.candidates(at, dst);
                    let Some(&next) = cands.get(hops as usize % cands.len().max(1)) else {
                        break;
                    };
                    at = next;
                    hops += 1;
                }
            }
            black_box(hops)
        });
        add(values, "routing.table_lookup_ns", secs * 1e9 / hops as f64);
    }
    let logic = RouteLogic::for_kind(net.kind);
    let (hops, secs) = tr.timed("probe.logic_route", |_| {
        let mut hops = 0u64;
        let mut cands = Vec::new();
        for &(src, dst) in &pairs {
            let mut at = net.inject(src);
            loop {
                logic.candidates(net, src, dst, at, &mut cands);
                let Some(&next) = cands.get(hops as usize % cands.len().max(1)) else {
                    break;
                };
                at = next;
                hops += 1;
            }
        }
        black_box(hops)
    });
    add(values, "routing.logic_route_ns", secs * 1e9 / hops as f64);

    // traffic: the three draws a generated message costs.
    let workload = built.template.workload_at(0.3)?;
    let mut rng = SmallRng::seed_from_u64(0xD4A3);
    let messages = 1u32 << 16;
    let nodes = exp.geometry.nodes();
    let ((), secs) = tr.timed("probe.traffic_draw", |_| {
        let mut sink = 0.0;
        for i in 0..messages {
            let node = i % nodes;
            sink += PoissonArrivals::with_rate(workload.message_rate(node)).next_gap(&mut rng);
            sink += f64::from(workload.draw_length(&mut rng));
            sink += f64::from(workload.draw_destination(node, &mut rng));
        }
        black_box(sink);
    });
    add(values, "traffic.draw_ns", secs * 1e9 / f64::from(messages));

    // switch: a contested grant among three of four requesters.
    let mut arbiter = Arbiter::new(ArbiterKind::Random);
    let eligible = [true, false, true, true];
    let picks = 1u32 << 18;
    let ((), secs) = tr.timed("probe.arbiter_pick", |_| {
        let mut sink = 0usize;
        for _ in 0..picks {
            sink += arbiter.pick(black_box(&eligible), &mut rng).unwrap_or(0);
        }
        black_box(sink);
    });
    add(
        values,
        "switch.arbiter_pick_ns",
        secs * 1e9 / f64::from(picks),
    );

    // core: one submit and one result line through the wire codec.
    let spec = JobSpec::default();
    let result = run_job(
        &JobSpec {
            warmup: 10,
            measure: 100,
            budget_cycles: 10_000,
            ..spec.clone()
        },
        None,
        1,
    )?;
    let trips = 2_000u32;
    let ((), secs) = tr.timed("probe.wire_codec", |_| {
        for _ in 0..trips {
            let line = Request::Submit {
                client: "bench".into(),
                spec: spec.clone(),
            }
            .to_line();
            black_box(Request::parse(black_box(&line)));
            let line = Response::JobResult {
                job_id: "0123456789abcdef".into(),
                result: result.clone(),
            }
            .to_line();
            black_box(Response::parse(black_box(&line)));
        }
    });
    add(values, "core.wire_codec_us", secs * 1e6 / f64::from(trips));
    Ok(())
}

fn scenario_workload(
    ctx: &Ctx,
    tr: &mut Tracer,
    cli: &Round,
    values: &mut Values,
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    let files = scenario_files(&ctx.root.join("scenarios"))?;
    let policy = CampaignPolicy::isolate();
    let stem_of = |p: &Path| {
        p.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    };

    let mut ran: Vec<Scenario> = Vec::new();
    let (json, mirror_s) = tr.timed("mirror", |tr| -> Result<String, String> {
        let mut set = ScenarioSet {
            verdicts: Vec::new(),
            skipped: Vec::new(),
        };
        for path in &files {
            let scenario = tr.span("core.scenario_parse", |_| Scenario::load(path))?;
            if scenario.is_chaos_opt_in() {
                set.skipped.push(scenario.name().to_string());
                continue;
            }
            let span = format!("core.scn.{}", stem_of(path));
            set.verdicts
                .push(tr.span(&span, |_| scenario.run(1, &policy))?);
            ran.push(scenario);
        }
        for v in &set.verdicts {
            for p in &v.points {
                if let Some(r) = p.outcome.report() {
                    add(values, "sim.cycles", r.cycles as f64);
                }
            }
        }
        Ok(tr.span("core.verdict_encode", |_| verdict_report_json(&set)))
    });
    let json = json?;
    expect_same(problems, cli, "verdicts.json", json.as_bytes());

    let round = tr.round;
    add(
        values,
        "core.scenario_parse_s",
        tr.total(round, "core.scenario_parse"),
    );
    add(
        values,
        "core.verdict_encode_s",
        tr.total(round, "core.verdict_encode"),
    );
    let mut scn_s = 0.0;
    for path in &files {
        let stem = stem_of(path);
        let secs = tr.total(round, &format!("core.scn.{stem}"));
        scn_s += secs;
        if crate::metrics::SCENARIO_STEMS.contains(&stem.as_str()) {
            add(values, &format!("core.scn.{stem}_s"), secs);
        } else if secs > 0.0 {
            problems.push(format!(
                "scenario {stem} has no core.scn row in the metric table"
            ));
        }
    }

    // Layers: each scenario's construction alone. What is left of its
    // `Scenario::run` span — the runs, with fault compilation and
    // judging, which cannot be reached from outside — is booked as
    // sim.run_s; the fault probes below bound the non-engine part.
    tr.span("layers", |tr| -> Result<(), String> {
        for scenario in &ran {
            build(tr, values, scenario.experiment())?;
        }
        fault_probes(tr, values)
    })?;
    let construct_s = [
        "topology.graph_build",
        "traffic.template_compile",
        "sim.compile",
    ]
    .iter()
    .map(|n| tr.total(round, n))
    .sum::<f64>();
    add(values, "sim.run_s", (scn_s - construct_s).max(0.0));

    let exp = Experiment::paper_default(NetworkSpec::tmin());
    let built = build(&mut Tracer::new(), &mut Values::new(), &exp)?;
    probes(tr, values, &built, &exp)?;
    Ok(mirror_s)
}

/// The fault layers on fixed inputs: four dead inter-stage links on the
/// 64-node TMIN and BMIN, compiled, masked, and run at load 0.2.
fn fault_probes(tr: &mut Tracer, values: &mut Values) -> Result<(), String> {
    for spec in [NetworkSpec::tmin(), NetworkSpec::Bmin] {
        let mut exp = Experiment::paper_default(spec);
        exp.sizes = minnet_traffic::MessageSizeDist::Fixed(32);
        (exp.sim.warmup, exp.sim.measure) = (1_000, 6_000);
        let compiled = exp.compile()?;
        let graph = compiled.graph();
        let plan = FaultPlan::random_inter_stage_links(graph, 4, 0xFA17)?;
        let schedule = tr.span("topology.fault_plan_compile", |_| plan.compile(graph, 1))?;
        let table = compiled
            .network()
            .routes()
            .ok_or("64-node networks have a route table")?;
        let dead = &schedule.epochs()[0].dead_channel;
        tr.span("routing.masked_build", |_| {
            table.masked(graph, dead).map(drop)
        })?;
        let faults = compiled
            .network()
            .compile_faults(&plan)
            .map_err(|e| e.to_string())?;
        let workload = compiled.template().workload_at(0.2)?;
        let mut st = EngineState::new();
        tr.span("sim.faulted_run", |_| {
            compiled
                .network()
                .run_poisson_faulted(&workload, Some(&faults), exp.sim.seed, &mut st)
                .map(drop)
        })
        .map_err(|e| e.to_string())?;
    }
    let round = tr.round;
    for (metric, span) in [
        (
            "topology.fault_plan_compile_s",
            "topology.fault_plan_compile",
        ),
        ("routing.masked_build_s", "routing.masked_build"),
        ("sim.faulted_run_s", "sim.faulted_run"),
    ] {
        add(values, metric, tr.total(round, span));
    }
    Ok(())
}

fn daemon_workload(
    ctx: &Ctx,
    tr: &mut Tracer,
    cli: &Round,
    values: &mut Values,
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    // Mirror: every job through `run_job`, as the daemon's worker does.
    let mut job_s = Vec::with_capacity(JOBS);
    let (mirrored, mirror_s) = tr.timed("mirror", |tr| -> Result<(), String> {
        for i in 0..JOBS {
            let spec = workloads::job_spec(ctx, i);
            let (result, secs) = tr.timed("core.run_job", |_| run_job(&spec, None, 1));
            job_s.push(secs);
            let name = format!("job{i:03}");
            expect_same(problems, cli, &name, result?.as_bytes());
        }
        Ok(())
    });
    mirrored?;
    let run_job_s = crate::stats::median(&job_s);
    add(values, "core.run_job_s", run_job_s);

    // Layers: job 0 taken apart.
    let spec = workloads::job_spec(ctx, 0);
    let exp = spec.to_experiment().map_err(|e| e.to_string())?;
    let built = tr.span("layers", |tr| -> Result<Built, String> {
        let built = build(tr, values, &exp)?;
        raw_points(tr, values, &built, &spec.loads, spec.seed)?;
        Ok(built)
    })?;

    // The daemon seen from outside, beyond the round itself: a restart
    // on the round's populated state directory (the journal as reads),
    // and an admission-only flood past the bounds.
    let state = ctx.work.join(Workload::DaemonJobs.name()).join("state");
    let daemon = DaemonProc::spawn(ctx, &state, &["--workers", "1"])?;
    add(values, "daemon.recover_s", daemon.start_s);
    daemon.drain()?;

    let flood_state = ctx
        .work
        .join(Workload::DaemonJobs.name())
        .join("flood-state");
    let _ = std::fs::remove_dir_all(&flood_state);
    let flood = [
        "--workers",
        "0",
        "--queue-depth",
        "4",
        "--client-inflight",
        "3",
    ];
    let daemon = DaemonProc::spawn(ctx, &flood_state, &flood)?;
    let (mut accepted, mut rejected) = (0.0, 0.0);
    for i in 0..16usize {
        let client = if i < 8 {
            "flooder".to_string()
        } else {
            format!("c{i}")
        };
        match daemon
            .client
            .submit(&client, &workloads::job_spec(ctx, JOBS + i))
        {
            Ok(Response::Accepted { .. }) => accepted += 1.0,
            Ok(Response::Rejected { .. }) => rejected += 1.0,
            other => problems.push(format!("flood submit {i}: {other:?}")),
        }
    }
    drop(daemon);
    add(values, "daemon.flood_accepted", accepted);
    add(values, "daemon.flood_rejected", rejected);

    if let Some(times) = &cli.jobs {
        add(
            values,
            "daemon.service_tax_ms",
            crate::stats::median(&times.cold_ms) - run_job_s * 1e3,
        );
    }
    probes(tr, values, &built, &exp)?;
    Ok(mirror_s)
}

/// One traced round of `workload`, after the untraced CLI round `cli`
/// of the same inputs. Returns the per-layer values it measured and
/// what it found wrong.
pub fn traced_round(
    ctx: &Ctx,
    workload: Workload,
    tr: &mut Tracer,
    cli: &Round,
) -> Result<(Values, Vec<String>), String> {
    let mut values = Values::new();
    let mut problems = Vec::new();
    let mirror_s = tr.span("round", |tr| match workload {
        Workload::ScenarioLibrary => scenario_workload(ctx, tr, cli, &mut values, &mut problems),
        Workload::DaemonJobs => daemon_workload(ctx, tr, cli, &mut values, &mut problems),
        _ => sweep_workload(ctx, workload, tr, cli, &mut values, &mut problems),
    })?;

    let round = tr.round;
    let span_metrics = [
        ("topology.graph_build_s", "topology.graph_build"),
        ("routing.table_build_s", "routing.table_build"),
        ("traffic.template_compile_s", "traffic.template_compile"),
        ("traffic.rescale_s", "traffic.rescale"),
    ];
    for (metric, span) in span_metrics {
        add(&mut values, metric, tr.total(round, span));
    }
    // sim.compile's self time: CompiledNet::new minus the table build
    // timed alone on the same graph.
    let compile_s = tr.total(round, "sim.compile") - tr.total(round, "routing.table_build");
    add(&mut values, "sim.compile_s", compile_s.max(0.0));
    if workload != Workload::ScenarioLibrary {
        add(&mut values, "sim.run_s", tr.total(round, "sim.run"));
    }
    if let (Some(&run_s), Some(&flits)) =
        (values.get("sim.run_s"), values.get("sim.delivered_flits"))
    {
        if flits > 0.0 {
            add(&mut values, "sim.ns_per_flit", run_s * 1e9 / flits);
        }
    }
    add(
        &mut values,
        "trace.overhead_pct",
        (mirror_s - cli.wall_s) / cli.wall_s * 100.0,
    );
    Ok((values, problems))
}
