//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should
//! move. `../BENCHMARK.json` is the file the driver reads; a unit test
//! parses it and compares it with these tables, so the file and the
//! names the harness prints cannot drift apart.

/// Rounds of a run without `--seconds`: discarded, then measured.
pub const WARMUP_ROUNDS: usize = 1;
pub const MEASURED_ROUNDS: usize = 7;

/// The seed the committed goldens were recorded at.
pub const GOLDEN_SEED: u64 = 1995;

/// Fixed names and fixed order: a round runs each once, in this order.
/// Why each exists is in `../BENCHMARK.json` and the README.
pub const WORKLOADS: [&str; 5] = [
    "paper_lineup",
    "lowload_checkpointed",
    "scale_1k",
    "scenario_library",
    "daemon_jobs",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Metrics every workload reports, measured with tracing off. `wall_s`
/// is not among them: raw seconds do not repeat within a tenth on a
/// shared host, and ISSUE 11 demotes such a metric to the per-layer
/// list instead of widening its bound. `setup_s` must stay here under
/// the driver's contract, which also gives it the largest bound.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
    },
];

#[derive(Clone, Debug)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    /// Deterministic count that must repeat bit-for-bit between runs.
    pub exact: bool,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

impl LayerMetric {
    /// The crate/module the metric belongs to: the name's first segment
    /// (`e2e` for end-to-end figures demoted to the per-layer list).
    pub fn layer(&self) -> &str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "e2e",
        }
    }
}

/// The four §5.3 networks as metric-name segments, CLI order.
pub const LINEUP: [&str; 4] = ["tmin", "dmin", "vmin", "bmin"];
/// The `paper_lineup` loads and their metric-name segments.
pub const LINEUP_LOADS: [(f64, &str); 4] = [(0.1, "l10"), (0.3, "l30"), (0.5, "l50"), (0.7, "l70")];

/// Scenario files `scenario_library` runs (the chaos-gated one is
/// skipped without `--chaos`), one `core.scn.<stem>_s` row each.
pub const SCENARIO_STEMS: [&str; 9] = [
    "baseline_bmin_curve",
    "baseline_tmin_curve",
    "baseline_vmin_lanes",
    "bmin_link_resilience",
    "hotspot_pressure",
    "saturation_probe",
    "scale_16k_budget_burst",
    "tmin_link_degradation",
    "watchdog_trip",
];

/// Every per-layer metric, in print order. Each traced run reports all
/// of them; a metric the workload does not exercise reads 0.
pub fn per_layer() -> Vec<LayerMetric> {
    let mut out = Vec::new();
    let mut add = |name: &str, unit, exact, moves| {
        out.push(LayerMetric {
            name: name.to_string(),
            unit,
            exact,
            moves,
        })
    };
    const S: &str = "s";
    const NS: &str = "ns";
    const MS: &str = "ms";
    const CPS: &str = "1/s";

    add("cli.spawn_s", S, false, "setup_s everywhere");
    add("cli.cpu_s", S, false, "wall_s; shows wall bought with CPU");

    add(
        "topology.graph_build_s",
        S,
        false,
        "setup_s on scale_1k, ~0 elsewhere",
    );
    add(
        "topology.graph_bytes",
        "bytes",
        true,
        "peak_rss_mb on scale_1k",
    );
    add(
        "topology.fault_plan_compile_s",
        S,
        false,
        "wall_s on scenario_library",
    );

    add(
        "routing.table_build_s",
        S,
        false,
        "setup_s/wall_s on scale_1k, none on paper_lineup",
    );
    add(
        "routing.table_build_par_s",
        S,
        false,
        "none (CLI builds serially); settles parallel vs serial",
    );
    add(
        "routing.table_cells",
        "count",
        true,
        "peak_rss_mb on scale_1k",
    );
    add(
        "routing.table_bytes",
        "bytes",
        true,
        "peak_rss_mb on scale_1k",
    );
    add(
        "routing.table_lookup_ns",
        NS,
        false,
        "wall_s on scale_1k, none on paper_lineup",
    );
    add(
        "routing.logic_route_ns",
        NS,
        false,
        "wall_s on scenario_library",
    );
    add(
        "routing.masked_build_s",
        S,
        false,
        "wall_s on scenario_library",
    );

    add("traffic.template_compile_s", S, false, "setup_s");
    add(
        "traffic.rescale_s",
        S,
        false,
        "wall_s on lowload_checkpointed",
    );
    add(
        "traffic.draw_ns",
        NS,
        false,
        "wall_s on lowload_checkpointed, little on paper_lineup",
    );

    add(
        "switch.arbiter_pick_ns",
        NS,
        false,
        "wall_s on paper_lineup at loads >= 0.5",
    );

    add("sim.compile_s", S, false, "setup_s");
    add("sim.run_s", S, false, "wall_s");
    add("sim.cycles", "count", true, "wall_s");
    add("sim.delivered_flits", "count", true, "wall_s");
    add("sim.ns_per_flit", NS, false, "wall_s");
    for net in LINEUP {
        for (_, tag) in LINEUP_LOADS {
            add(
                &format!("sim.cps.{net}.{tag}"),
                CPS,
                false,
                "wall_s on paper_lineup",
            );
        }
    }
    add(
        "sim.cps.low.tmin",
        CPS,
        false,
        "wall_s on lowload_checkpointed",
    );
    add(
        "sim.cps.low.bmin",
        CPS,
        false,
        "wall_s on lowload_checkpointed",
    );
    add(
        "sim.state_reset_s",
        S,
        false,
        "wall_s on lowload_checkpointed",
    );
    add("sim.cps.bmin1k", CPS, false, "wall_s on scale_1k");
    add("sim.cps.tmin1k", CPS, false, "wall_s on scale_1k");
    add("sim.faulted_run_s", S, false, "wall_s on scenario_library");
    add(
        "sim.fleet_cps",
        CPS,
        false,
        "none today (the CLI does not replicate)",
    );
    add(
        "sim.grid_cps",
        CPS,
        false,
        "none today (the CLI does not replicate)",
    );

    add(
        "core.campaign_overhead_s",
        S,
        false,
        "wall_s on lowload_checkpointed",
    );
    add(
        "core.checkpoint_write_s",
        S,
        false,
        "wall_s on lowload_checkpointed",
    );
    add(
        "core.checkpoint_bytes",
        "bytes",
        true,
        "wall_s on lowload_checkpointed",
    );
    add(
        "core.checkpoint_resume_s",
        S,
        false,
        "wall_s on lowload_checkpointed",
    );
    add(
        "core.csv_encode_s",
        S,
        false,
        "predicted to move nothing (microseconds)",
    );
    add(
        "core.scenario_parse_s",
        S,
        false,
        "setup_s on scenario_library",
    );
    for stem in SCENARIO_STEMS {
        add(
            &format!("core.scn.{stem}_s"),
            S,
            false,
            "wall_s on scenario_library",
        );
    }
    add(
        "core.verdict_encode_s",
        S,
        false,
        "wall_s on scenario_library",
    );
    add("core.wire_codec_us", "us", false, "hit_p50_ms");
    add("core.run_job_s", S, false, "floor of job_p50_ms");

    add("daemon.start_s", S, false, "setup_s on daemon_jobs");
    add("daemon.submit_ack_ms", MS, false, "job_p50_ms, jobs_per_s");
    add("daemon.service_tax_ms", MS, false, "job_p50_ms, jobs_per_s");
    add("daemon.hit_p95_ms", MS, false, "hit_p50_ms tail");
    add(
        "daemon.journal_bytes",
        "bytes",
        true,
        "job_p50_ms (flush before ack)",
    );
    add(
        "daemon.recover_s",
        S,
        false,
        "none (restart on the populated journal)",
    );
    add(
        "daemon.flood_accepted",
        "count",
        true,
        "none (admission bounds)",
    );
    add(
        "daemon.flood_rejected",
        "count",
        true,
        "none (admission bounds)",
    );

    add(
        "trace.overhead_pct",
        "%",
        false,
        "none (in-process round vs CLI round)",
    );

    // End-to-end figures without a bound: `wall_s` does not repeat
    // within a tenth between runs on a shared host (demoted, as ISSUE
    // 11 rules), and the driver's end-to-end list must hold on every
    // workload and never be 0, which the others do not.
    add(
        "wall_s",
        S,
        false,
        "all workloads: one round, argv to result bytes",
    );
    add(
        "fail_share",
        "share",
        true,
        "all workloads (also the result line's failed/attempted)",
    );
    add(
        "model_err_pct",
        "%",
        true,
        "paper_lineup accuracy vs minnet::model",
    );
    add("jobs_per_s", CPS, false, "daemon_jobs");
    add("job_p50_ms", MS, false, "daemon_jobs");
    add("job_p95_ms", MS, false, "daemon_jobs");
    add("hit_p50_ms", MS, false, "daemon_jobs");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w), "{w}");
            assert!(seen.insert(w.to_string()), "duplicate {w}");
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        let layers = per_layer();
        assert!(!layers.is_empty() && layers.len() <= 128);
        for m in &layers {
            assert!(valid_name(&m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// The string after `"key": "` on `line`.
    fn text<'a>(line: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\": \"");
        let rest =
            &line[line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len()..];
        &rest[..rest.find('"').expect("closing quote")]
    }

    /// The `{"name": …}` lines of BENCHMARK.json's array `key` (the
    /// file keeps one object per line).
    fn entries<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
        let from = doc.find(&format!("\"{key}\": [")).expect(key);
        doc[from..]
            .lines()
            .skip(1)
            .take_while(|l| l.trim_start().starts_with('{'))
            .collect()
    }

    #[test]
    fn benchmark_json_on_disk_agrees_with_the_harness_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(doc.len() <= 64 * 1024);
        assert!(doc.contains("\"paths\": [\"benchmark\"],"));

        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (line, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(line, "name"), w);
            assert!(text(line, "why").len() <= 200, "{w}");
        }
        let end_to_end = entries(&doc, "end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (line, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!((text(line, "name"), text(line, "unit")), (m.name, m.unit));
            assert_eq!(text(line, "better"), "lower");
            assert!(
                line.contains(&format!("\"bound\": {}}}", m.bound)),
                "{line}"
            );
        }
        let layers = per_layer();
        let listed = entries(&doc, "per_layer");
        assert_eq!(listed.len(), layers.len());
        for (line, m) in listed.iter().zip(&layers) {
            assert_eq!(
                (text(line, "name"), text(line, "unit")),
                (m.name.as_str(), m.unit)
            );
            assert!(["lower", "higher"].contains(&text(line, "better")));
        }
    }

    #[test]
    fn layer_is_the_first_name_segment() {
        let layers = per_layer();
        let by = |n: &str| {
            layers
                .iter()
                .find(|m| m.name == n)
                .unwrap()
                .layer()
                .to_string()
        };
        assert_eq!(by("sim.cps.tmin.l10"), "sim");
        assert_eq!(by("daemon.start_s"), "daemon");
        assert_eq!(by("fail_share"), "e2e");
    }
}
