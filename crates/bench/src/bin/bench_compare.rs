//! Compare a fresh `BENCH_sweep.json` against the committed
//! `BENCH_baseline.json` and report per-network throughput drift.
//!
//! ```text
//! cargo run --release -p minnet-bench --bin bench_compare -- \
//!     BENCH_baseline.json BENCH_sweep.json [diff_summary.txt] \
//!     [--fail-on-regress <pct>]
//! ```
//!
//! For every network present in both files the tool diffs the headline
//! `cycles_per_sec` (single-threaded engine throughput over the whole
//! load sweep) and flags drift beyond ±20%. By default the exit status
//! is always 0: shared CI runners have noisy and heterogeneous CPUs, so
//! the comparison is a **warning, not a gate** — the summary (also
//! written to the optional third argument for artifact upload) is the
//! record to look at when a regression is suspected.
//!
//! `--fail-on-regress <pct>` turns the warning into a gate: any network
//! whose headline throughput drops more than `pct` percent below the
//! baseline fails the run (exit 1) after printing the offending
//! per-load rows, so the report shows *which* loads regressed — a
//! low-load-only regression points at setup/fast-forward changes, a
//! high-load one at the allocation/transmission hot loops. CI keeps the
//! warn-only default; the gate is for dedicated (quiet) benchmark hosts.
//!
//! When the current file carries the per-load
//! `cycles_per_sec_scalar` / `cycles_per_sec_lockstep` columns (sweeps
//! run without a budget), the tool also prints every lockstep fleet's
//! aggregate speedup over its scalar twin and warns — never gates —
//! below 0.9x (serial fleets on a 1-core host are honest parity, with
//! a few percent of cache jitter either way). Baselines predating the
//! columns simply skip the section.
//!
//! Both files' `meta.host` blocks (compiler, target triple, target
//! features, core count) are compared first: a mismatch prints a
//! warning that wall-clock diffs across hosts are noise. Files
//! predating the block skip the check.
//!
//! `--faults FAULTS_BASELINE FAULTS_CURRENT` additionally diffs a pair
//! of `faults_smoke` files: per-(network, fault_count) delivered
//! throughput (warn at ±2% — unlike wall-clock throughput this is a
//! deterministic simulation output, so any drift is a behavioural
//! change) plus the per-point `ok` / `partial` / `failed` outcome
//! counts. Any `partial` or `failed` point in the current run is
//! flagged; the faults comparison is always warn-only (outcome holes on
//! a noisy runner shouldn't gate merges — the counts in the artifact
//! are the record).
//!
//! `--scale SCALE_BASELINE SCALE_CURRENT` diffs a pair of `scale_smoke`
//! files by size row (`tmin_k4_n5`, `bmin_k4_n7`, …): wall-clock
//! `cycles_per_sec` in the usual noisy ±20% band, the deterministic
//! `graph_bytes` / `table_bytes` construction footprints in the +5%
//! memory band, and one behavioural flag — an `ncells` change (the
//! network geometry itself changed). Always warn-only, same reasoning
//! as `--faults`.
//!
//! `--service SERVICE_BASELINE SERVICE_CURRENT` diffs a pair of
//! `service_smoke` files: daemon jobs/sec and cold-request latency in
//! the noisy ±20% band, a warning whenever a cache hit fails to beat
//! its cold run, and the flood admission counts (accepted /
//! rejected-per-client-cap / rejected-queue-full) on *any* change —
//! those are deterministic functions of the configured bounds, so
//! drift is an admission-control behavior change, not noise. Always
//! warn-only.
//!
//! The parser is deliberately minimal: this offline workspace has no
//! serde, and both files are produced by `sweep_smoke`'s /
//! `faults_smoke`'s known line-oriented writers. It keys on trimmed
//! lines starting with `"name":` / `"cycles_per_sec":` / `"ok":`; the
//! per-load and per-fault rows are single-line `{...}` objects,
//! recognised (and mined for their fields) by their leading brace.

use std::fmt::Write as _;

/// One network's numbers from a `sweep_smoke` JSON file.
struct Net {
    name: String,
    /// Headline single-threaded throughput; NaN until parsed.
    cycles_per_sec: f64,
    /// Per-load `(offered_load, cycles_per_sec)` rows.
    loads: Vec<(f64, f64)>,
    /// Per-load `(offered_load, scalar, lockstep)` direct-engine
    /// comparison rows; empty on files predating the lockstep runner
    /// (or written with a run budget, which skips the comparison).
    lockstep: Vec<(f64, f64, f64)>,
    /// Campaign outcome counts `(ok, partial, failed)`; `None` on
    /// baselines predating the campaign runner.
    counts: Option<(u64, u64, u64)>,
    /// Resident bytes of the compiled route table / CSR topology arenas;
    /// `None` on files predating the memory columns.
    table_bytes: Option<f64>,
    graph_bytes: Option<f64>,
}

/// Extract the number following `"key": ` inside a single-line JSON row.
fn field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parse every network (headline + per-load rows) from `sweep_smoke` JSON.
fn parse_networks(src: &str) -> Vec<Net> {
    let mut out: Vec<Net> = Vec::new();
    for line in src.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("\"name\":") {
            let name = rest.trim().trim_end_matches(',').trim_matches('"');
            out.push(Net {
                name: name.to_string(),
                cycles_per_sec: f64::NAN,
                loads: Vec::new(),
                lockstep: Vec::new(),
                counts: None,
                table_bytes: None,
                graph_bytes: None,
            });
        } else if t.starts_with("\"table_bytes\":") {
            if let Some(net) = out.last_mut() {
                net.table_bytes = field(t, "table_bytes");
            }
        } else if t.starts_with("\"graph_bytes\":") {
            if let Some(net) = out.last_mut() {
                net.graph_bytes = field(t, "graph_bytes");
            }
        } else if t.starts_with("\"ok\":") {
            if let (Some(net), Some(ok), Some(partial), Some(failed)) = (
                out.last_mut(),
                field(t, "ok"),
                field(t, "partial"),
                field(t, "failed"),
            ) {
                net.counts = Some((ok as u64, partial as u64, failed as u64));
            }
        } else if let Some(rest) = t.strip_prefix("\"cycles_per_sec\":") {
            if let Some(net) = out.last_mut() {
                if net.cycles_per_sec.is_nan() {
                    net.cycles_per_sec = rest
                        .trim()
                        .trim_end_matches(',')
                        .parse()
                        .unwrap_or(f64::NAN);
                }
            }
        } else if t.starts_with('{') {
            if let (Some(net), Some(load), Some(cps)) = (
                out.last_mut(),
                field(t, "load"),
                field(t, "cycles_per_sec"),
            ) {
                net.loads.push((load, cps));
                // Direct-engine comparison columns ride on the same row;
                // zero means the sweep skipped the comparison (budget).
                if let (Some(scalar), Some(lock)) = (
                    field(t, "cycles_per_sec_scalar"),
                    field(t, "cycles_per_sec_lockstep"),
                ) {
                    if scalar > 0.0 && lock > 0.0 {
                        net.lockstep.push((load, scalar, lock));
                    }
                }
            }
        }
    }
    out.retain(|n| !n.cycles_per_sec.is_nan());
    out
}

/// Warn-only check of the current run's lockstep rows: every per-load
/// `cycles_per_sec_lockstep` should track or beat its scalar twin (the
/// fleet spreads `lockstep_threads` lanes over threads). On a 1-core
/// host the fleet is serial and honest parity is ~1.0x with a few
/// percent of lane-interleaving cache noise either way, so the warning
/// fires below **0.9x** — a real overhead regression, not host jitter.
/// No baseline is consulted — old baselines predate the columns — so
/// this can never gate a merge; the summary rows are the record.
fn compare_lockstep(current: &[Net], summary: &mut String) -> usize {
    let mut warned = 0usize;
    if current.iter().all(|n| n.lockstep.is_empty()) {
        return 0;
    }
    let _ = writeln!(
        summary,
        "lockstep fleets: per-load aggregate cycles/sec vs scalar (warn below 0.9x)"
    );
    for net in current {
        for &(load, scalar, lock) in &net.lockstep {
            let speedup = lock / scalar;
            let flag = if speedup < 0.9 {
                warned += 1;
                "  <-- WARNING: lockstep slower than scalar"
            } else {
                ""
            };
            let _ = writeln!(
                summary,
                "  {:>16} @ load {load:4}: {lock:12.0} vs {scalar:12.0}  ({speedup:5.2}x){flag}",
                net.name
            );
        }
    }
    warned
}

/// Warn-only diff of the setup-memory columns (`table_bytes` /
/// `graph_bytes`): unlike wall-clock throughput these are deterministic
/// functions of the code, so any growth beyond **+5%** is a real memory
/// regression in the construction pipeline — but the check never gates
/// (a deliberate capacity change just refreshes the baseline). Files
/// predating the columns skip silently.
fn compare_memory(baseline: &[Net], current: &[Net], summary: &mut String) -> usize {
    let mut warned = 0usize;
    let mut header = false;
    for base in baseline {
        let Some(cur) = current.iter().find(|n| n.name == base.name) else {
            continue;
        };
        for (what, b, c) in [
            ("table_bytes", base.table_bytes, cur.table_bytes),
            ("graph_bytes", base.graph_bytes, cur.graph_bytes),
        ] {
            let (Some(b), Some(c)) = (b, c) else { continue };
            if !header {
                let _ = writeln!(
                    summary,
                    "setup memory: resident bytes vs baseline (deterministic; warn above +5%)"
                );
                header = true;
            }
            let drift = if b > 0.0 { (c / b - 1.0) * 100.0 } else { 0.0 };
            let flag = if drift > 5.0 || (b == 0.0 && c > 0.0) {
                warned += 1;
                "  <-- WARNING: setup memory grew"
            } else {
                ""
            };
            let _ = writeln!(
                summary,
                "  {:>16} {what:>12}: {c:12.0} vs {b:12.0}  ({drift:+6.1}%){flag}",
                base.name
            );
        }
    }
    warned
}

/// Host identity from a smoke artifact's `meta.host` block (see
/// `minnet_bench::host`); `None` on files predating the block.
#[derive(Debug, PartialEq, Eq)]
struct HostId {
    rustc: String,
    target: String,
    features: String,
    cores: u64,
}

/// Extract the string following `"key": "` inside a line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Parse the `meta.host` block. Stops at the first network entry so a
/// hypothetical `"rustc"` deeper in the file cannot masquerade as host
/// identity.
fn parse_host(src: &str) -> Option<HostId> {
    let (mut rustc, mut target, mut features, mut cores) = (None, None, None, None);
    for line in src.lines() {
        let t = line.trim();
        if t.starts_with("\"name\":") {
            break;
        } else if t.starts_with("\"rustc\":") {
            rustc = str_field(t, "rustc");
        } else if t.starts_with("\"target\":") {
            target = str_field(t, "target");
        } else if t.starts_with("\"target_features\":") {
            features = str_field(t, "target_features");
        } else if t.starts_with("\"cores\":") {
            cores = field(t, "cores").map(|c| c as u64);
        }
    }
    Some(HostId {
        rustc: rustc?,
        target: target?,
        features: features?,
        cores: cores?,
    })
}

/// Warn when the two files disagree on host identity — wall-clock
/// throughput diffs across different compilers, targets, or machine
/// classes are noise, not regressions. Silent when either file predates
/// the `meta.host` block.
fn compare_hosts(baseline_src: &str, current_src: &str, summary: &mut String) -> usize {
    let (Some(base), Some(cur)) = (parse_host(baseline_src), parse_host(current_src)) else {
        return 0;
    };
    if base == cur {
        return 0;
    }
    let mut diffs = Vec::new();
    if base.rustc != cur.rustc {
        diffs.push(format!("rustc {:?} vs {:?}", cur.rustc, base.rustc));
    }
    if base.target != cur.target {
        diffs.push(format!("target {:?} vs {:?}", cur.target, base.target));
    }
    if base.features != cur.features {
        diffs.push(format!(
            "target_features {:?} vs {:?}",
            cur.features, base.features
        ));
    }
    if base.cores != cur.cores {
        diffs.push(format!("cores {} vs {}", cur.cores, base.cores));
    }
    let _ = writeln!(
        summary,
        "WARNING: host mismatch vs baseline ({}) — treat wall-clock diffs as noise",
        diffs.join("; ")
    );
    1
}

/// One degradation point from a `faults_smoke` JSON file.
struct FaultPoint {
    fault_count: u64,
    accepted: f64,
    /// `(ok, partial, failed)`; `None` on baselines predating the
    /// campaign runner.
    counts: Option<(u64, u64, u64)>,
}

/// Parse every network's degradation points from `faults_smoke` JSON.
fn parse_fault_networks(src: &str) -> Vec<(String, Vec<FaultPoint>)> {
    let mut out: Vec<(String, Vec<FaultPoint>)> = Vec::new();
    for line in src.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("\"name\":") {
            let name = rest.trim().trim_end_matches(',').trim_matches('"');
            out.push((name.to_string(), Vec::new()));
        } else if t.starts_with('{') {
            if let (Some((_, points)), Some(fc), Some(accepted)) = (
                out.last_mut(),
                field(t, "fault_count"),
                field(t, "accepted_flits_per_node_cycle"),
            ) {
                let counts = match (field(t, "ok"), field(t, "partial"), field(t, "failed")) {
                    (Some(o), Some(p), Some(f)) => Some((o as u64, p as u64, f as u64)),
                    _ => None,
                };
                points.push(FaultPoint {
                    fault_count: fc as u64,
                    accepted,
                    counts,
                });
            }
        }
    }
    out.retain(|(_, points)| !points.is_empty());
    out
}

/// Diff two `faults_smoke` files; returns the warning count. Always
/// warn-only: delivered throughput is deterministic, so the ±2% band is
/// generous, but outcome holes on a shared runner shouldn't gate merges.
fn compare_faults(
    baseline_path: &str,
    current_path: &str,
    summary: &mut String,
) -> Result<usize, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let baseline = parse_fault_networks(&read(baseline_path)?);
    let current = parse_fault_networks(&read(current_path)?);
    if baseline.is_empty() {
        return Err(format!("{baseline_path}: no fault networks parsed"));
    }
    if current.is_empty() {
        return Err(format!("{current_path}: no fault networks parsed"));
    }

    let mut warned = 0usize;
    let _ = writeln!(
        summary,
        "fault degradation: {current_path} vs baseline {baseline_path} (warn at ±2%)"
    );
    for (name, base_points) in &baseline {
        let Some((_, cur_points)) = current.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(summary, "  {name:>16}: MISSING from current run");
            warned += 1;
            continue;
        };
        for bp in base_points {
            let Some(cp) = cur_points.iter().find(|p| p.fault_count == bp.fault_count) else {
                let _ = writeln!(
                    summary,
                    "  {name:>16} @ {} faults: MISSING from current run",
                    bp.fault_count
                );
                warned += 1;
                continue;
            };
            // Both ~zero (a disconnected point) compares equal.
            let drift = if bp.accepted.abs() < 1e-12 && cp.accepted.abs() < 1e-12 {
                0.0
            } else if bp.accepted.abs() < 1e-12 {
                f64::INFINITY
            } else {
                (cp.accepted / bp.accepted - 1.0) * 100.0
            };
            let mut flags = String::new();
            if drift.abs() > 2.0 {
                warned += 1;
                flags.push_str("  <-- WARNING: throughput drifted (behavioural change?)");
            }
            if let Some((_, partial, failed)) = cp.counts {
                if partial + failed > 0 {
                    warned += 1;
                    let _ = write!(
                        flags,
                        "  <-- WARNING: {partial} partial / {failed} failed replication(s)"
                    );
                }
            }
            let _ = writeln!(
                summary,
                "  {name:>16} @ {} faults: accepted {:.6} vs {:.6}  ({drift:+6.2}%){flags}",
                bp.fault_count, cp.accepted, bp.accepted
            );
        }
    }
    for (name, _) in &current {
        if !baseline.iter().any(|(n, _)| n == name) {
            let _ = writeln!(summary, "  {name:>16}: new network (no baseline)");
        }
    }
    Ok(warned)
}

/// One size row from a `scale_smoke` JSON file.
struct ScaleRow {
    name: String,
    /// `channels × nodes` — deterministic geometry.
    ncells: f64,
    graph_bytes: f64,
    table_bytes: f64,
    cycles_per_sec: f64,
}

/// Parse every size row from `scale_smoke` JSON. The rows are
/// single-line `{...}` objects under `"sizes"`, recognised by carrying
/// a `"name"` and an `"ncells"` number (sweep/fault rows have no
/// `ncells`).
fn parse_scale_rows(src: &str) -> Vec<ScaleRow> {
    let mut out = Vec::new();
    for line in src.lines() {
        let t = line.trim();
        if !t.starts_with('{') {
            continue;
        }
        let (Some(name), Some(ncells)) = (str_field(t, "name"), field(t, "ncells")) else {
            continue;
        };
        out.push(ScaleRow {
            name,
            ncells,
            graph_bytes: field(t, "graph_bytes").unwrap_or(f64::NAN),
            table_bytes: field(t, "table_bytes").unwrap_or(f64::NAN),
            cycles_per_sec: field(t, "cycles_per_sec").unwrap_or(f64::NAN),
        });
    }
    out
}

/// Diff two `scale_smoke` files row by row; returns the warning count.
/// Wall-clock throughput warns in the noisy ±20% band; the
/// deterministic construction footprints warn above +5%; an `ncells`
/// change flags a behavioural difference in the construction pipeline.
/// Always warn-only.
fn compare_scale(
    baseline_path: &str,
    current_path: &str,
    summary: &mut String,
) -> Result<usize, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let baseline = parse_scale_rows(&read(baseline_path)?);
    let current = parse_scale_rows(&read(current_path)?);
    if baseline.is_empty() {
        return Err(format!("{baseline_path}: no scale rows parsed"));
    }
    if current.is_empty() {
        return Err(format!("{current_path}: no scale rows parsed"));
    }

    let mut warned = 0usize;
    let _ = writeln!(
        summary,
        "scale sweep: {current_path} vs baseline {baseline_path} \
         (throughput warn at ±20%, memory at +5%, ncells on change)"
    );
    for base in &baseline {
        let Some(cur) = current.iter().find(|r| r.name == base.name) else {
            // The budgeted CI invocation legitimately truncates the size
            // list (--max-nodes); note the hole without warning.
            let _ = writeln!(
                summary,
                "  {:>16}: not in current run (size capped or removed)",
                base.name
            );
            continue;
        };
        let mut flags = String::new();
        if cur.ncells != base.ncells {
            warned += 1;
            let _ = write!(
                flags,
                "  <-- WARNING: ncells changed {:.0} -> {:.0} (topology/geometry drift)",
                base.ncells, cur.ncells
            );
        }
        for (what, b, c) in [
            ("graph_bytes", base.graph_bytes, cur.graph_bytes),
            ("table_bytes", base.table_bytes, cur.table_bytes),
        ] {
            if !b.is_finite() || !c.is_finite() {
                continue;
            }
            if c / b - 1.0 > 0.05 {
                warned += 1;
                let _ = write!(flags, "  <-- WARNING: {what} grew {b:.0} -> {c:.0}");
            }
        }
        let cps = if usable_baseline(base.cycles_per_sec) && cur.cycles_per_sec.is_finite() {
            let ratio = cur.cycles_per_sec / base.cycles_per_sec;
            if ratio < 0.8 {
                warned += 1;
                let _ = write!(flags, "  <-- WARNING: slower than baseline");
            }
            format!("({:+6.1}%)", (ratio - 1.0) * 100.0)
        } else {
            "(no usable throughput baseline)".to_string()
        };
        let _ = writeln!(
            summary,
            "  {:>16}: {:12.0} vs {:12.0}  {cps}{flags}",
            base.name, cur.cycles_per_sec, base.cycles_per_sec
        );
    }
    for cur in &current {
        if !baseline.iter().any(|r| r.name == cur.name) {
            let _ = writeln!(summary, "  {:>16}: new size (no baseline)", cur.name);
        }
    }
    Ok(warned)
}

/// The service numbers of a `service_smoke` file: wall-clock figures
/// (noisy) plus the deterministic admission-control flood counts.
struct ServiceNums {
    jobs_per_sec: f64,
    cold_ms: f64,
    cache_hit_ms: f64,
    flood_accepted: f64,
    flood_rejected_cap: f64,
    flood_rejected_queue: f64,
}

fn parse_service(src: &str, path: &str) -> Result<ServiceNums, String> {
    let find = |key: &str| {
        src.lines()
            .find_map(|l| field(l.trim(), key))
            .ok_or_else(|| format!("{path}: missing \"{key}\""))
    };
    Ok(ServiceNums {
        jobs_per_sec: find("jobs_per_sec")?,
        cold_ms: find("cold_ms")?,
        cache_hit_ms: find("cache_hit_ms")?,
        flood_accepted: find("flood_accepted")?,
        flood_rejected_cap: find("flood_rejected_client_cap")?,
        flood_rejected_queue: find("flood_rejected_queue_full")?,
    })
}

/// `--service`: diff a pair of `service_smoke` files. Wall-clock
/// figures (jobs/sec, cold latency) warn in the usual noisy ±20% band;
/// a cache hit slower than its cold run warns at any magnitude (the
/// cache must pay for itself); the flood admission counts are
/// deterministic functions of the configured bounds, so *any* drift
/// warns — that is an admission-control behavior change, not noise.
/// Always warn-only, same reasoning as `--faults`.
fn compare_service(
    baseline_path: &str,
    current_path: &str,
    summary: &mut String,
) -> Result<usize, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let base = parse_service(&read(baseline_path)?, baseline_path)?;
    let cur = parse_service(&read(current_path)?, current_path)?;

    let mut warned = 0usize;
    let _ = writeln!(
        summary,
        "service: {current_path} vs baseline {baseline_path} \
         (wall-clock warn at ±20%, flood counts on any change)"
    );
    let jps = if usable_baseline(base.jobs_per_sec) {
        let ratio = cur.jobs_per_sec / base.jobs_per_sec;
        let mut flag = "";
        if ratio < 0.8 {
            warned += 1;
            flag = "  <-- WARNING: service throughput dropped";
        }
        format!("({:+6.1}%){flag}", (ratio - 1.0) * 100.0)
    } else {
        "(no usable baseline)".to_string()
    };
    let _ = writeln!(
        summary,
        "  {:>24}: {:8.1} vs {:8.1}  {jps}",
        "jobs_per_sec", cur.jobs_per_sec, base.jobs_per_sec
    );
    let mut cache_flag = "";
    if cur.cache_hit_ms >= cur.cold_ms {
        warned += 1;
        cache_flag = "  <-- WARNING: cache hit no faster than cold run";
    }
    let _ = writeln!(
        summary,
        "  {:>24}: cold {:7.2} ms, cache hit {:7.2} ms ({:.1}x){cache_flag}",
        "cache latency",
        cur.cold_ms,
        cur.cache_hit_ms,
        cur.cold_ms / cur.cache_hit_ms.max(1e-9)
    );
    for (what, b, c) in [
        ("flood_accepted", base.flood_accepted, cur.flood_accepted),
        ("flood_rejected_client_cap", base.flood_rejected_cap, cur.flood_rejected_cap),
        ("flood_rejected_queue_full", base.flood_rejected_queue, cur.flood_rejected_queue),
    ] {
        let mut flag = "";
        if b != c {
            warned += 1;
            flag = "  <-- WARNING: admission-control counts changed (behavioural)";
        }
        let _ = writeln!(summary, "  {what:>24}: {c:4.0} vs {b:4.0}{flag}");
    }
    Ok(warned)
}

/// A baseline number a percent diff can safely divide by. Zero (or a
/// non-finite value from a malformed row) means the baseline carries no
/// usable magnitude — a placeholder entry, a truncated file, or a
/// machine that never completed the sweep — and `cur / base` would
/// print `inf%`/`NaN%` and poison every comparison downstream.
fn usable_baseline(base: f64) -> bool {
    base.is_finite() && base > 0.0
}

/// Diff the headline (and, under the gate, per-load) throughput of
/// `current` against `baseline`, appending human-readable rows to
/// `summary`. Returns `(warning_count, regressed_network_names)`.
///
/// Rows whose baseline is zero/non-finite fall back to reporting the
/// **absolute difference** instead of a percentage and warn; they never
/// feed the `--fail-on-regress` gate (there is no ratio to gate on).
fn compare_sweeps(
    baseline: &[Net],
    current: &[Net],
    fail_pct: Option<f64>,
    summary: &mut String,
) -> (usize, Vec<String>) {
    let mut warned = 0usize;
    let mut regressed: Vec<String> = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|n| n.name == base.name) else {
            let _ = writeln!(summary, "  {:>16}: MISSING from current run", base.name);
            warned += 1;
            continue;
        };
        if !usable_baseline(base.cycles_per_sec) {
            warned += 1;
            let _ = writeln!(
                summary,
                "  {:>16}: {:12.0} vs {:12.0}  (abs diff {:+.0})  \
                 <-- WARNING: zero/invalid baseline row; refresh the baseline",
                base.name,
                cur.cycles_per_sec,
                base.cycles_per_sec,
                cur.cycles_per_sec - base.cycles_per_sec
            );
            continue;
        }
        let ratio = cur.cycles_per_sec / base.cycles_per_sec;
        let flag = if !(0.8..=1.2).contains(&ratio) {
            warned += 1;
            if ratio < 1.0 {
                "  <-- WARNING: slower than baseline"
            } else {
                "  (faster than baseline; consider refreshing it)"
            }
        } else {
            ""
        };
        let _ = writeln!(
            summary,
            "  {:>16}: {:12.0} vs {:12.0}  ({:+6.1}%){flag}",
            base.name,
            cur.cycles_per_sec,
            base.cycles_per_sec,
            (ratio - 1.0) * 100.0
        );
        if let Some((ok, partial, failed)) = cur.counts {
            if partial + failed > 0 {
                warned += 1;
                let _ = writeln!(
                    summary,
                    "    <-- WARNING: outcomes {ok} ok, {partial} partial, {failed} failed \
                     (throughput covers completed work only)"
                );
            }
        }
        if let Some(pct) = fail_pct {
            if ratio < 1.0 - pct / 100.0 {
                regressed.push(base.name.clone());
                let _ = writeln!(
                    summary,
                    "    per-load rows beyond the -{pct}% gate:"
                );
                for &(load, bcps) in &base.loads {
                    let Some(&(_, ccps)) =
                        cur.loads.iter().find(|(l, _)| *l == load)
                    else {
                        continue;
                    };
                    if !usable_baseline(bcps) {
                        let _ = writeln!(
                            summary,
                            "      load {load:4}: {ccps:12.0} vs {bcps:12.0}  \
                             (abs diff {:+.0}; zero/invalid baseline row)",
                            ccps - bcps
                        );
                        continue;
                    }
                    let r = ccps / bcps;
                    if r < 1.0 - pct / 100.0 {
                        let _ = writeln!(
                            summary,
                            "      load {load:4}: {ccps:12.0} vs {bcps:12.0}  ({:+6.1}%)",
                            (r - 1.0) * 100.0
                        );
                    }
                }
            }
        }
    }
    for cur in current {
        if !baseline.iter().any(|n| n.name == cur.name) {
            let _ = writeln!(summary, "  {:>16}: new network (no baseline)", cur.name);
        }
    }
    (warned, regressed)
}

fn main() -> Result<(), String> {
    const USAGE: &str = "usage: bench_compare BASELINE CURRENT [OUT] \
         [--fail-on-regress <pct>] [--faults FAULTS_BASELINE FAULTS_CURRENT] \
         [--scale SCALE_BASELINE SCALE_CURRENT] \
         [--service SERVICE_BASELINE SERVICE_CURRENT]";
    let mut positional: Vec<String> = Vec::new();
    let mut fail_pct: Option<f64> = None;
    let mut faults: Option<(String, String)> = None;
    let mut scale: Option<(String, String)> = None;
    let mut service: Option<(String, String)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--faults" {
            let base = args.next().ok_or(USAGE)?;
            let cur = args.next().ok_or(USAGE)?;
            faults = Some((base, cur));
        } else if a == "--scale" {
            let base = args.next().ok_or(USAGE)?;
            let cur = args.next().ok_or(USAGE)?;
            scale = Some((base, cur));
        } else if a == "--service" {
            let base = args.next().ok_or(USAGE)?;
            let cur = args.next().ok_or(USAGE)?;
            service = Some((base, cur));
        } else if a == "--fail-on-regress" {
            let pct = args.next().ok_or(USAGE)?;
            let pct: f64 = pct
                .parse()
                .map_err(|_| format!("--fail-on-regress: bad percentage {pct:?}"))?;
            if !(0.0..100.0).contains(&pct) {
                return Err(format!("--fail-on-regress: need 0 <= pct < 100, got {pct}"));
            }
            fail_pct = Some(pct);
        } else {
            positional.push(a);
        }
    }
    let mut positional = positional.into_iter();
    let baseline_path = positional.next().ok_or(USAGE)?;
    let current_path = positional.next().ok_or(USAGE)?;
    let out_path = positional.next();

    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let baseline_src = read(&baseline_path)?;
    let current_src = read(&current_path)?;
    let baseline = parse_networks(&baseline_src);
    let current = parse_networks(&current_src);
    if baseline.is_empty() {
        return Err(format!("{baseline_path}: no networks parsed"));
    }
    if current.is_empty() {
        return Err(format!("{current_path}: no networks parsed"));
    }

    let mut summary = String::new();
    let mut warned = compare_hosts(&baseline_src, &current_src, &mut summary);
    let _ = writeln!(
        summary,
        "cycles_per_sec: {current_path} vs baseline {baseline_path} (warn at ±20%)"
    );
    let (sweep_warned, regressed) =
        compare_sweeps(&baseline, &current, fail_pct, &mut summary);
    warned += sweep_warned;
    warned += compare_memory(&baseline, &current, &mut summary);
    warned += compare_lockstep(&current, &mut summary);
    if let Some((faults_base, faults_cur)) = &faults {
        warned += compare_faults(faults_base, faults_cur, &mut summary)?;
    }
    if let Some((scale_base, scale_cur)) = &scale {
        warned += compare_scale(scale_base, scale_cur, &mut summary)?;
    }
    if let Some((service_base, service_cur)) = &service {
        warned += compare_service(service_base, service_cur, &mut summary)?;
    }
    if let Some(pct) = fail_pct {
        let _ = writeln!(summary, "{warned} warning(s); gate at -{pct}%");
    } else {
        let _ = writeln!(
            summary,
            "{warned} warning(s); informational only — shared runners are noisy"
        );
    }

    print!("{summary}");
    if let Some(p) = out_path {
        std::fs::write(&p, &summary).map_err(|e| format!("writing {p}: {e}"))?;
    }
    if !regressed.is_empty() {
        return Err(format!(
            "throughput regressed beyond the gate on: {}",
            regressed.join(", ")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(name: &str, cps: f64, loads: &[(f64, f64)]) -> Net {
        Net {
            name: name.to_string(),
            cycles_per_sec: cps,
            loads: loads.to_vec(),
            lockstep: Vec::new(),
            counts: None,
            table_bytes: None,
            graph_bytes: None,
        }
    }

    #[test]
    fn memory_columns_parse_and_warn_on_growth() {
        let src = r#"{
  "networks": [
    {
      "name": "tmin",
      "setup_ms": 1.0,
      "table_bytes": 100000,
      "graph_bytes": 50000,
      "cycles_per_sec": 400000.0
    }
  ]
}"#;
        let base = parse_networks(src);
        assert_eq!(base[0].table_bytes, Some(100_000.0));
        assert_eq!(base[0].graph_bytes, Some(50_000.0));
        // Within +5%: silent row. Table grown 3x: warns.
        let grown = src
            .replace("\"table_bytes\": 100000", "\"table_bytes\": 300000")
            .replace("\"graph_bytes\": 50000", "\"graph_bytes\": 51000");
        let cur = parse_networks(&grown);
        let mut summary = String::new();
        assert_eq!(compare_memory(&base, &cur, &mut summary), 1, "{summary}");
        assert!(summary.contains("setup memory grew"), "{summary}");
        assert!(summary.contains("+200.0%"), "{summary}");
    }

    #[test]
    fn files_without_memory_columns_stay_silent() {
        let base = vec![net("tmin", 1.0, &[])];
        let cur = vec![net("tmin", 1.0, &[])];
        let mut summary = String::new();
        assert_eq!(compare_memory(&base, &cur, &mut summary), 0);
        assert!(summary.is_empty(), "{summary}");
    }

    const HOST_A: &str = r#"{
  "meta": {
    "host": {
      "rustc": "rustc 1.95.0",
      "target": "x86_64-unknown-linux-gnu",
      "target_features": "popcnt sse4.2",
      "cores": 1
    }
  },
  "networks": [
    { "name": "tmin", "cycles_per_sec": 1.0 }
  ]
}"#;

    #[test]
    fn matching_hosts_stay_silent_and_missing_hosts_skip() {
        let mut summary = String::new();
        assert_eq!(compare_hosts(HOST_A, HOST_A, &mut summary), 0);
        let no_host = r#"{ "networks": [ { "name": "tmin", "cycles_per_sec": 1.0 } ] }"#;
        assert_eq!(compare_hosts(no_host, HOST_A, &mut summary), 0);
        assert_eq!(compare_hosts(HOST_A, no_host, &mut summary), 0);
        assert!(summary.is_empty(), "{summary}");
    }

    #[test]
    fn host_mismatch_warns_with_differing_fields() {
        let other = HOST_A
            .replace("rustc 1.95.0", "rustc 1.99.0")
            .replace("\"cores\": 1", "\"cores\": 8");
        let mut summary = String::new();
        assert_eq!(compare_hosts(HOST_A, &other, &mut summary), 1);
        assert!(summary.contains("host mismatch"), "{summary}");
        assert!(summary.contains("rustc 1.99.0"), "{summary}");
        assert!(summary.contains("cores 8 vs 1"), "{summary}");
        assert!(!summary.contains("target_features"), "{summary}");
    }

    #[test]
    fn lockstep_rows_parse_and_warn_only_below_parity() {
        let src = r#"{
  "networks": [
    {
      "name": "tmin",
      "cycles_per_sec": 400000.0,
      "loads": [
        {"load": 0.05, "run_ms": 1.0, "cycles": 100, "cycles_per_sec": 100000.0, "cycles_per_sec_scalar": 90000.0, "cycles_per_sec_lockstep": 80000.0},
        {"load": 0.6, "run_ms": 1.0, "cycles": 100, "cycles_per_sec": 100000.0, "cycles_per_sec_scalar": 100000.0, "cycles_per_sec_lockstep": 250000.0},
        {"load": 0.5, "run_ms": 1.0, "cycles": 100, "cycles_per_sec": 100000.0, "cycles_per_sec_scalar": 0.0, "cycles_per_sec_lockstep": 0.0}
      ]
    }
  ]
}"#;
        let nets = parse_networks(src);
        assert_eq!(nets.len(), 1);
        // The budget-skipped (zero) row is dropped at parse time.
        assert_eq!(nets[0].lockstep.len(), 2);
        let mut summary = String::new();
        let warned = compare_lockstep(&nets, &mut summary);
        assert_eq!(warned, 1, "{summary}");
        assert!(summary.contains("lockstep slower than scalar"), "{summary}");
        assert!(summary.contains("2.50x"), "{summary}");
    }

    #[test]
    fn files_without_lockstep_rows_stay_silent() {
        let nets = vec![net("tmin", 400_000.0, &[(0.6, 400_000.0)])];
        let mut summary = String::new();
        assert_eq!(compare_lockstep(&nets, &mut summary), 0);
        assert!(summary.is_empty(), "{summary}");
    }

    const SCALE_SRC: &str = r#"{
  "sizes": [
    {"name": "tmin_k4_n5", "nodes": 1024, "channels": 6144, "graph_bytes": 257184, "ncells": 6291456, "table_bytes": 5216, "cycles_per_sec": 48043.7},
    {"name": "bmin_k4_n7", "nodes": 16384, "channels": 229376, "graph_bytes": 9519264, "ncells": 3758096384, "table_bytes": 344160, "cycles_per_sec": 712.2}
  ]
}"#;

    #[test]
    fn scale_rows_parse_with_ncells() {
        let rows = parse_scale_rows(SCALE_SRC);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "tmin_k4_n5");
        assert_eq!(rows[0].ncells, 6_291_456.0);
        assert_eq!(rows[1].table_bytes, 344_160.0);
    }

    #[test]
    fn scale_identical_files_warn_nothing_and_drift_flags_fire() {
        let dir = std::env::temp_dir().join(format!("bc_scale_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        std::fs::write(&base, SCALE_SRC).unwrap();
        std::fs::write(&cur, SCALE_SRC).unwrap();
        let mut summary = String::new();
        let warned =
            compare_scale(base.to_str().unwrap(), cur.to_str().unwrap(), &mut summary).unwrap();
        assert_eq!(warned, 0, "{summary}");

        // Change a row's geometry, grow its graph arena past +5%, and
        // slow it below the 0.8x band: three distinct warnings.
        let drifted = SCALE_SRC
            .replace("\"ncells\": 6291456", "\"ncells\": 6291457")
            .replace("\"graph_bytes\": 257184", "\"graph_bytes\": 300000")
            .replace("\"cycles_per_sec\": 48043.7", "\"cycles_per_sec\": 20000.0");
        std::fs::write(&cur, drifted).unwrap();
        let mut summary = String::new();
        let warned =
            compare_scale(base.to_str().unwrap(), cur.to_str().unwrap(), &mut summary).unwrap();
        assert_eq!(warned, 3, "{summary}");
        assert!(summary.contains("ncells changed 6291456 -> 6291457"), "{summary}");
        assert!(summary.contains("graph_bytes grew"), "{summary}");
        assert!(summary.contains("slower than baseline"), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scale_truncated_current_notes_missing_rows_without_warning() {
        // The budgeted CI run caps --max-nodes, so the 16k row is
        // legitimately absent: a note, not a warning.
        let dir = std::env::temp_dir().join(format!("bc_scale_trunc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        std::fs::write(&base, SCALE_SRC).unwrap();
        let truncated: String = SCALE_SRC
            .lines()
            .filter(|l| !l.contains("bmin_k4_n7"))
            .collect::<Vec<_>>()
            .join("\n")
            .replace("cycles_per_sec\": 48043.7},", "cycles_per_sec\": 48043.7}");
        std::fs::write(&cur, truncated).unwrap();
        let mut summary = String::new();
        let warned =
            compare_scale(base.to_str().unwrap(), cur.to_str().unwrap(), &mut summary).unwrap();
        assert_eq!(warned, 0, "{summary}");
        assert!(summary.contains("not in current run"), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_baseline_row_reports_absolute_difference_not_inf() {
        // Regression: `cur / base` with a zero-baseline row printed
        // `+inf%` (and `NaN%` for 0 vs 0) and, under the gate, compared
        // NaN against the threshold. The guard falls back to the
        // absolute difference and keeps the row out of the gate.
        let baseline = vec![net("tmin", 0.0, &[(0.05, 0.0), (0.6, 0.0)])];
        let current = vec![net("tmin", 123_456.0, &[(0.05, 130_000.0), (0.6, 120_000.0)])];
        let mut summary = String::new();
        let (warned, regressed) =
            compare_sweeps(&baseline, &current, Some(10.0), &mut summary);
        assert!(regressed.is_empty(), "unusable baseline must not gate: {summary}");
        assert_eq!(warned, 1, "{summary}");
        assert!(
            !summary.contains("inf%") && !summary.contains("NaN"),
            "guard missed a division by zero: {summary}"
        );
        assert!(summary.contains("abs diff +123456"), "{summary}");
        assert!(summary.contains("zero/invalid baseline"), "{summary}");
    }

    #[test]
    fn zero_current_against_zero_baseline_stays_finite() {
        let baseline = vec![net("dmin", 0.0, &[])];
        let current = vec![net("dmin", 0.0, &[])];
        let mut summary = String::new();
        let (warned, regressed) = compare_sweeps(&baseline, &current, None, &mut summary);
        assert_eq!((warned, regressed.len()), (1, 0), "{summary}");
        assert!(!summary.contains("NaN"), "{summary}");
    }

    #[test]
    fn healthy_rows_still_use_percent_drift_and_gate() {
        let baseline = vec![net("vmin", 200_000.0, &[(0.6, 200_000.0)])];
        let current = vec![net("vmin", 100_000.0, &[(0.6, 100_000.0)])];
        let mut summary = String::new();
        let (warned, regressed) =
            compare_sweeps(&baseline, &current, Some(20.0), &mut summary);
        assert_eq!(regressed, vec!["vmin".to_string()], "{summary}");
        assert!(warned >= 1);
        assert!(summary.contains("-50.0%"), "{summary}");
    }

    #[test]
    fn zero_per_load_baseline_row_is_reported_without_inf() {
        // Network-level baseline is fine, but one per-load row is zero:
        // the gate listing must print it with an absolute difference
        // instead of choking on the ratio.
        let baseline = vec![net("bmin", 200_000.0, &[(0.05, 0.0), (0.6, 200_000.0)])];
        let current = vec![net("bmin", 100_000.0, &[(0.05, 90_000.0), (0.6, 100_000.0)])];
        let mut summary = String::new();
        let (_warned, regressed) =
            compare_sweeps(&baseline, &current, Some(20.0), &mut summary);
        assert_eq!(regressed.len(), 1);
        assert!(!summary.contains("inf%") && !summary.contains("NaN"), "{summary}");
        assert!(summary.contains("abs diff +90000"), "{summary}");
    }

    fn service_src(jobs: f64, cold: f64, hit: f64, acc: u64, cap: u64, full: u64) -> String {
        format!(
            "{{\n  \"service\": {{\n    \"jobs_per_sec\": {jobs},\n    \"cold_ms\": {cold},\n\
             \x20   \"cache_hit_ms\": {hit},\n    \"flood_accepted\": {acc},\n\
             \x20   \"flood_rejected_client_cap\": {cap},\n\
             \x20   \"flood_rejected_queue_full\": {full}\n  }}\n}}\n"
        )
    }

    #[test]
    fn service_flood_counts_warn_on_any_drift_wallclock_only_beyond_band() {
        let dir = std::env::temp_dir();
        let base_path = dir.join(format!("svc_base_{}.json", std::process::id()));
        let cur_path = dir.join(format!("svc_cur_{}.json", std::process::id()));
        // Wall-clock within the band, one admission count changed: one
        // behavioral warning, no throughput warning.
        std::fs::write(&base_path, service_src(100.0, 12.0, 2.0, 4, 5, 7)).unwrap();
        std::fs::write(&cur_path, service_src(90.0, 13.0, 2.5, 4, 6, 6)).unwrap();
        let mut summary = String::new();
        let warned = compare_service(
            base_path.to_str().unwrap(),
            cur_path.to_str().unwrap(),
            &mut summary,
        )
        .unwrap();
        assert_eq!(warned, 2, "{summary}");
        assert!(summary.contains("admission-control counts changed"), "{summary}");
        assert!(!summary.contains("throughput dropped"), "{summary}");

        // A cache hit slower than cold warns regardless of magnitude.
        std::fs::write(&cur_path, service_src(100.0, 12.0, 12.5, 4, 5, 7)).unwrap();
        let mut summary = String::new();
        let warned = compare_service(
            base_path.to_str().unwrap(),
            cur_path.to_str().unwrap(),
            &mut summary,
        )
        .unwrap();
        assert_eq!(warned, 1, "{summary}");
        assert!(summary.contains("cache hit no faster"), "{summary}");
        let _ = std::fs::remove_file(&base_path);
        let _ = std::fs::remove_file(&cur_path);
    }
}
