//! Smoke tests for the `minnet` CLI binary.

use std::process::Command;

fn minnet(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_minnet"))
        .args(args)
        .output()
        .expect("spawning the minnet binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn info_reports_network_facts() {
    let (ok, stdout, _) = minnet(&["info", "--network", "bmin"]);
    assert!(ok);
    assert!(stdout.contains("BMIN"));
    assert!(stdout.contains("64 nodes"));
    assert!(stdout.contains("deadlock"));
    assert!(stdout.contains("free"));
}

#[test]
fn simulate_prints_metrics() {
    let (ok, stdout, _) = minnet(&[
        "simulate", "--network", "dmin", "--load", "0.3", "--warmup", "1000", "--measure",
        "6000", "--sizes", "fixed:32",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("accepted"));
    assert!(stdout.contains("latency"));
    assert!(stdout.contains("sustainable"));
}

/// The queueing line names its scopes: the network-wide mean is the
/// per-source mean times the node count, and a per-source mean cannot
/// exceed the longest single source queue. On this command line the
/// network-wide mean (≈ 17) is far above the longest source queue.
#[test]
fn simulate_queueing_line_labels_its_scopes() {
    let (ok, stdout, _) = minnet(&[
        "simulate", "--network", "bmin", "--k", "16", "--n", "2", "--load", "0.2", "--sizes",
        "fixed:8", "--warmup", "100", "--measure", "2000",
    ]);
    assert!(ok, "{stdout}");
    let line = stdout.lines().find_map(|l| l.strip_prefix("queueing  : ")).unwrap();
    let field = |label: &str| -> f64 {
        let rest = &line[line.find(label).unwrap_or_else(|| panic!("{label} in {line}")) + label.len()..];
        rest.split([' ', ',']).find(|w| !w.is_empty()).unwrap().parse().unwrap()
    };
    let (network, per_source) = (field("network mean"), field("per-source mean"));
    let longest = field("longest source queue");
    assert!((network / 256.0 - per_source).abs() < 0.01, "{line}");
    assert!(per_source <= longest, "{line}");
    assert!(network > 0.0, "{line}");
}

#[test]
fn sweep_writes_csv() {
    let dir = std::env::temp_dir().join("minnet_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("sweep.csv");
    let (ok, stdout, _) = minnet(&[
        "sweep", "--network", "tmin", "--loads", "0.1,0.5", "--warmup", "500", "--measure",
        "4000", "--sizes", "fixed:32", "--csv",
        csv.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("offered%"));
    let contents = std::fs::read_to_string(&csv).unwrap();
    assert_eq!(contents.lines().count(), 3); // header + 2 points
    let _ = std::fs::remove_file(csv);
}

#[test]
fn sweep_resume_reproduces_the_csv_bitwise() {
    let dir = std::env::temp_dir().join(format!("minnet_cli_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("ckpt.jsonl");
    let csv_ref = dir.join("ref.csv");
    let csv_res = dir.join("resumed.csv");
    let base = [
        "sweep", "--network", "tmin", "--loads", "0.1,0.3,0.5", "--warmup", "500",
        "--measure", "4000", "--sizes", "fixed:32",
    ];

    // Uninterrupted reference (no checkpoint involved at all).
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--csv", csv_ref.to_str().unwrap()]);
    let (ok, stdout, _) = minnet(&args);
    assert!(ok, "{stdout}");

    // A checkpointed run, then a simulated kill: drop all but the first
    // completed point and resume.
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--checkpoint", ckpt.to_str().unwrap()]);
    let (ok, stdout, _) = minnet(&args);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("outcomes: 3 ok, 0 partial, 0 failed"));
    let full = std::fs::read_to_string(&ckpt).unwrap();
    let cut: String = full.split_inclusive('\n').take(2).collect();
    std::fs::write(&ckpt, cut).unwrap();

    let mut args: Vec<&str> = base.to_vec();
    args.extend([
        "--resume",
        ckpt.to_str().unwrap(),
        "--csv",
        csv_res.to_str().unwrap(),
    ]);
    let (ok, stdout, _) = minnet(&args);
    assert!(ok, "{stdout}");
    let reference = std::fs::read_to_string(&csv_ref).unwrap();
    let resumed = std::fs::read_to_string(&csv_res).unwrap();
    assert_eq!(reference, resumed, "resumed CSV differs from uninterrupted run");

    // --resume refuses a missing file; --checkpoint with --resume is an error.
    let missing = dir.join("nope.jsonl");
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--resume", missing.to_str().unwrap()]);
    let (ok, _, stderr) = minnet(&args);
    assert!(!ok);
    assert!(stderr.contains("does not exist"), "{stderr}");
    let mut args: Vec<&str> = base.to_vec();
    args.extend([
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    let (ok, _, stderr) = minnet(&args);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_reports_partial_points_under_a_budget() {
    // A cycle budget below warmup+measure cuts every point: the sweep
    // still completes, reports PARTIAL per point, and crowns no
    // sustainable maximum.
    let (ok, stdout, _) = minnet(&[
        "sweep", "--network", "tmin", "--loads", "0.1,0.3", "--warmup", "500", "--measure",
        "4000", "--sizes", "fixed:32", "--budget-cycles", "2000",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("PARTIAL"), "{stdout}");
    assert!(stdout.contains("outcomes: 0 ok, 2 partial, 0 failed"), "{stdout}");
    assert!(!stdout.contains("max sustainable"), "{stdout}");
}

#[test]
fn partition_detects_reduced_butterfly() {
    let (ok, stdout, _) = minnet(&["partition", "--wiring", "butterfly", "--clusters", "msd"]);
    assert!(ok);
    assert!(stdout.contains("NOT balanced"));
    assert!(stdout.contains("contention-free: yes"));
    let (ok2, stdout2, _) = minnet(&["partition", "--wiring", "cube", "--clusters", "msd"]);
    assert!(ok2);
    assert!(!stdout2.contains("NOT balanced"));
}

#[test]
fn scenario_subcommand_lists_runs_and_judges_the_library() {
    let lib = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let (ok, stdout, _) = minnet(&["scenario", "validate", lib]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("scenario file(s) valid"), "{stdout}");
    assert!(stdout.contains("watchdog-trip"), "{stdout}");
    assert!(stdout.contains("[expects fail]"), "{stdout}");

    // Run just the fixture that must FAIL as declared: exit 0 (the
    // verdict matches the declaration) with the stall in the output.
    let trip = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/watchdog_trip.scn"
    );
    let dir = std::env::temp_dir().join(format!("minnet_cli_scn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("verdicts.json");
    let (ok, stdout, _) = minnet(&["scenario", "run", trip, "--json", json.to_str().unwrap()]);
    assert!(ok, "declared-fail fixture exits 0: {stdout}");
    assert!(stdout.contains("FAIL watchdog-trip (expected fail)"), "{stdout}");
    assert!(stdout.contains("no progress"), "{stdout}");
    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"status\":\"fail\""), "{report}");
    assert!(report.contains("\"as_expected\":true"), "{report}");
    assert!(report.contains("\"stall\":"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);

    // A scenario that ends *unlike* its declaration exits nonzero.
    let bad = dir.join("impossible.scn");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        &bad,
        "name = impossible\nloads = 0.1\nsizes = fixed:32\nwarmup = 500\n\
         measure = 3000\nexpect.p99_latency = 1\n",
    )
    .unwrap();
    let (ok, stdout, _) = minnet(&["scenario", "run", bad.to_str().unwrap()]);
    assert!(!ok, "surprising verdict must exit nonzero: {stdout}");
    assert!(stdout.contains("FAIL impossible"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_fail_cleanly() {
    let (ok, _, stderr) = minnet(&["simulate", "--network", "warp"]);
    assert!(!ok);
    assert!(stderr.contains("unknown network"));
    let (ok2, _, _) = minnet(&["frobnicate"]);
    assert!(!ok2);
    // An option the command does not read is refused by name with exit 2,
    // before any work — a misspelt `--bufer-depth 4` used to run at depth
    // 1, write the CSV and exit 0. Options are per command: `--load` is
    // simulate's, `--csv` sweep's, `--retries` not saturate's.
    let csv = std::env::temp_dir().join(format!("minnet_cli_typo_{}.csv", std::process::id()));
    let csv = csv.to_str().unwrap();
    for (args, cmd, flag) in [
        (&["sweep", "--loads", "0.1", "--bufer-depth", "4", "--csv", csv][..], "sweep", "--bufer-depth"),
        (&["simulate", "--load", "0.1", "--mesure", "100"], "simulate", "--mesure"),
        (&["sweep", "--load", "0.1"], "sweep", "--load"),
        (&["simulate", "--csv", csv], "simulate", "--csv"),
        (&["saturate", "--retries", "2"], "saturate", "--retries"),
        (&["info", "--bogus"], "info", "--bogus"),
        (&["scenario", "validate", "--network", "bmin"], "scenario", "--network"),
        (&["submit", "--clusters", "msd"], "submit", "--clusters"),
        (&["drain", "--job", "1"], "drain", "--job"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_minnet")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr, format!("error: {cmd}: unknown option {flag}\n"), "{args:?}");
        assert!(!std::path::Path::new(csv).exists(), "{args:?} ran before refusing");
    }
    // Asking for the usage is not an error, with or without a command.
    for args in [&["help"][..], &["--help"], &["-h"], &["simulate", "--help"], &["sweep", "-h"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_minnet")).args(args).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(stdout.contains("USAGE: minnet <command>") && out.stderr.is_empty(), "{args:?}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_minnet")).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "bare `minnet` is a usage error");
    // Out-of-range lane/dilation counts are refused by name, never
    // wrapped into a small valid one (258 used to run as `--vcs 2`).
    for flag in ["--vcs", "--dilation"] {
        let net = if flag == "--vcs" { "vmin" } else { "dmin" };
        let (ok, _, stderr) = minnet(&["info", "--network", net, flag, "258"]);
        assert!(!ok && stderr.contains(flag), "{flag} 258: {stderr}");
    }
    // The same for every other count a cast used to wrap (`--buffer-depth
    // 65537` ran at depth 1, `--retries 4294967297` as one retry).
    for (cmd, flag, value) in [
        ("simulate", "--buffer-depth", "65537"),
        ("sweep", "--retries", "4294967297"),
        ("submit", "--retries", "4294967297"),
        ("saturate", "--iters", "4294967302"),
    ] {
        let (ok, _, stderr) = minnet(&[cmd, flag, value, "--warmup", "10", "--measure", "100"]);
        let named = stderr.starts_with(&format!("error: {flag}: number too large"));
        assert!(!ok && named, "{cmd} {flag} {value}: {stderr}");
    }
    let lib = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let (ok, _, stderr) = minnet(&["scenario", "run", lib, "--retries", "4294967297"]);
    assert!(!ok && stderr.starts_with("error: --retries: number too large"), "{stderr}");
    let (ok, _, stderr) = minnet(&[
        "simulate", "--network", "vmin", "--vcs", "65", "--warmup", "10", "--measure", "100",
    ]);
    assert!(!ok && stderr.contains("at most 64 virtual channels"), "{stderr}");
    // A bad saturation bracket is `die`'s one-line error, not a panic: a
    // bound outside (0, 1] is refused by its flag, an inverted one by the
    // search.
    for (bracket, want) in [
        (&["--lo", "0"][..], "error: --lo: load 0.0 is outside (0, 1]"),
        (&["--lo", "0.5", "--hi", "0.2"], "error: need 0 < lo < hi"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_minnet"))
            .arg("saturate")
            .args(bracket)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bracket:?}: {stderr}");
        let clean = stderr.starts_with(want);
        assert!(clean, "{bracket:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{bracket:?}: {stderr}");
    }
    // Every flag that takes a load refuses one outside (0, 1] before any
    // work: 1e308 would never finish its first cycle's arrivals.
    for (args, want) in [
        (&["simulate", "--load", "1e308"][..], "error: --load: load 1e308 is outside (0, 1]"),
        (&["simulate", "--load", "1.5"], "error: --load: load 1.5 is outside (0, 1]"),
        (&["sweep", "--loads", "0.1,1.5"], "error: --loads: load 1.5 is outside (0, 1]"),
        (&["saturate", "--hi", "2"], "error: --hi: load 2.0 is outside (0, 1]"),
        (&["saturate", "--lo", "1e308"], "error: --lo: load 1e308 is outside (0, 1]"),
        (&["submit", "--loads", "1.5"], "error: --loads: load 1.5 is outside (0, 1]"),
    ] {
        let (ok, stdout, stderr) = minnet(args);
        assert!(!ok && stderr.starts_with(want), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

/// Geometries no graph can be built for are refused by name at the
/// command line and by `file:line` in a `.scn` — never a panic in
/// `Geometry::new`, a wrapped `as u32`, or a wrapped `u8` port — and so
/// are message sizes and hot spots no run can use.
#[test]
fn impossible_geometries_fail_typed() {
    for (args, flag) in [
        (&["--k", "1"][..], "--k"),
        (&["--k", "300", "--n", "1"], "--k"),
        (&["--k", "4294967300"], "--k"),
        (&["--n", "17"], "--n"),
        (&["--k", "32", "--n", "9"], "--k"),
    ] {
        for cmd in ["info", "simulate"] {
            let out = Command::new(env!("CARGO_BIN_EXE_minnet"))
                .arg(cmd)
                .args(args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {args:?}: {stderr}");
            let named = stderr.starts_with(&format!("error: {flag}"));
            assert!(named, "{cmd} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd} {args:?}: {stderr}");
        }
    }
    // The fixtures live here, not under `scenarios/`: that directory is
    // the scenario library every `scenario run scenarios/` judges.
    for (file, line, why) in [
        ("bad_radix.scn", 6, "k = 1: "),
        ("bad_node_count.scn", 7, "k = 32, n = 9: "),
        ("bad_delivery.scn", 8, "expect.delivery = NaN "),
        ("bad_sizes.scn", 7, "sizes: messages must have at least one flit"),
        ("bad_hotspot.scn", 7, "pattern: hot-spot extra fraction must be >= 0, got -1"),
        ("bad_butterfly.scn", 7, "pattern: butterfly index 7 out of range"),
        ("bad_buffer_depth.scn", 7, "buffer_depth: channel buffers must hold at least one flit"),
        ("bad_measure.scn", 7, "measure: measurement window must be nonempty"),
    ] {
        let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
        let (ok, _, stderr) = minnet(&["scenario", "validate", &path]);
        assert!(!ok, "{file}: {stderr}");
        let located = stderr.contains(&format!("{file}:{line}: {why}"));
        assert!(located, "{file}: {stderr}");
        assert!(!stderr.contains("panicked"), "{file}: {stderr}");
    }
}

/// What only a compiled run used to refuse — a butterfly index past `n`,
/// an empty buffer or window, rates for clusters that are not there — is
/// refused by its flag before the CSV exists. Each of these used to
/// leave an empty CSV behind and exit 1 with an error naming no flag.
#[test]
fn late_refusals_name_their_flag_and_leave_no_csv() {
    let csv = std::env::temp_dir().join(format!("minnet_cli_late_{}.csv", std::process::id()));
    let csv = csv.to_str().unwrap();
    for (flag, value) in [
        ("--pattern", "butterfly:7"),
        ("--buffer-depth", "0"),
        ("--measure", "0"),
        ("--rates", "4,1,1,1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_minnet"))
            .args(["sweep", "--loads", "0.1", "--csv", csv, flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.starts_with(&format!("error: {flag}")), "{flag} {value}: {stderr}");
        assert!(!std::path::Path::new(csv).exists(), "{flag} {value} left {csv}");
    }
}

/// A null sweep (one cycle a point) with `--csv path`.
fn null_sweep(csv: &str) -> (bool, String, String) {
    minnet(&["sweep", "--loads", "0.1,0.3", "--warmup", "0", "--measure", "1", "--csv", csv])
}

#[test]
fn csv_is_the_same_bytes_whatever_the_target_held() {
    let dir = std::env::temp_dir().join(format!("minnet_cli_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("sweep.csv");
    let csv_arg = csv.to_str().unwrap();

    let (ok, stdout, stderr) = null_sweep(csv_arg);
    assert!(ok, "{stdout}{stderr}");
    let fresh = std::fs::read(&csv).unwrap();
    assert_eq!(fresh.iter().filter(|&&b| b == b'\n').count(), 3, "header + 2 points");

    // Present with the same length, then present and 10 KB longer.
    for old in [vec![b'#'; fresh.len()], vec![b'#'; fresh.len() + 10_240]] {
        std::fs::write(&csv, &old).unwrap();
        let (ok, stdout, stderr) = null_sweep(csv_arg);
        assert!(ok, "{stdout}{stderr}");
        assert_eq!(std::fs::read(&csv).unwrap(), fresh, "over {} old bytes", old.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_csv_is_refused_before_the_campaign() {
    let dir = std::env::temp_dir().join(format!("minnet_cli_nodir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, stdout, stderr) = null_sweep(dir.join("x.csv").to_str().unwrap());
    assert!(!ok);
    assert!(!stdout.contains("outcomes:"), "the campaign ran first: {stdout}");
    assert!(stderr.starts_with("error: opening "), "{stderr}");
    assert!(stderr.contains("x.csv"), "{stderr}");
    assert!(!dir.exists());
}

#[cfg(unix)]
#[test]
fn csv_to_stdout_device_works() {
    let (ok, stdout, stderr) = null_sweep("/dev/stdout");
    assert!(ok, "{stderr}");
    assert!(stdout.contains("series,offered_load"), "{stdout}");
    assert!(stdout.contains("wrote /dev/stdout"), "{stdout}");
}

#[test]
fn a_reader_that_leaves_early_is_not_an_error() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // The library listed often enough to overfill the pipe: the child is
    // still writing when the reader goes away, whoever is scheduled first.
    let lib = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut child = Command::new(env!("CARGO_BIN_EXE_minnet"))
        .args(["scenario", "list"])
        .args(std::iter::repeat_n(lib, 150))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the minnet binary");
    let mut reader = BufReader::with_capacity(256, child.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("baseline-bmin-curve"), "{line}");
    drop(reader);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

/// A checkpoint another process holds open is not touched: the sweep is
/// refused at once (exit 1, naming the file) and the holder's bytes —
/// a torn tail an unlocked resume would cut off included — stay as they
/// were. Released, the same command resumes and repairs the file.
#[test]
fn a_checkpoint_held_by_another_process_is_refused_untouched() {
    let dir = std::env::temp_dir().join(format!("minnet_cli_held_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("held.jsonl");
    let args = [
        "sweep", "--loads", "0.1,0.3", "--warmup", "0", "--measure", "1", "--checkpoint",
        ckpt.to_str().unwrap(),
    ];
    let (ok, stdout, stderr) = minnet(&args);
    assert!(ok, "{stdout}{stderr}");
    let full = std::fs::read_to_string(&ckpt).unwrap();
    let torn: String = full.split_inclusive('\n').take(2).collect::<String>() + "{\"task\":1,";
    std::fs::write(&ckpt, &torn).unwrap();

    let held = minnet::jsonl::open_locked(&ckpt).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_minnet")).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("is locked by another live process"), "{stderr}");
    assert!(stderr.contains("held.jsonl"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), torn, "the refused sweep touched the file");

    drop(held);
    let (ok, stdout, stderr) = minnet(&args);
    assert!(ok, "{stdout}{stderr}");
    assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), full, "resume repairs the torn tail");
    let entries = std::fs::read_dir(&dir).unwrap().flatten().map(|e| e.file_name());
    assert_eq!(entries.collect::<Vec<_>>(), ["held.jsonl"], "no lock file beside it");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clustering name `spec::parse_clusters` does not know is refused by
/// its flag, exit 1, before any work.
#[test]
fn unknown_clustering_is_refused_by_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_minnet"))
        .args(["simulate", "--clusters", "nope"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: --clusters:"), "{stderr}");
}

/// The `figures` binary's exit status: a figure it could not write is a
/// failed reproduction run, not a green one.
#[test]
fn unwritable_figure_exits_nonzero() {
    let out_dir = std::env::temp_dir().join(format!("minnet_figures_cli_{}", std::process::id()));
    // A directory where the CSV should go makes opening it fail.
    std::fs::create_dir_all(out_dir.join("fig16a.csv")).expect("creating the blocking directory");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--fig", "fig16a", "--quick", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawning the figures binary");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let status = out.status;
    assert!(!status.success(), "exit {status:?}, stderr: {stderr}");
    assert!(stderr.contains("error: opening"), "stderr: {stderr}");
}
