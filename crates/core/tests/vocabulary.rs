//! The three doors of an experiment — `.scn` text, a `JobSpec` and the
//! `minnet` command line — read one vocabulary (`minnet::spec`). One table
//! of network / wiring / geometry / pattern / sizes / loads settings runs
//! through each door: the `.scn` and the `JobSpec` build the same
//! `Experiment` or both refuse it, the command line accepts exactly the
//! same rows, and each door frames a refusal its own way.

use minnet::service::error_kind;
use minnet::{JobSpec, Scenario};
use std::process::Command;

/// Settings named as `.scn` keys, which are also the `JobSpec` fields and
/// the `minnet` flags.
type Row = &'static [(&'static str, &'static str)];

/// Every row, and whether the vocabulary accepts it.
const ROWS: &[(Row, bool)] = &[
    (&[], true),
    (&[("network", "tmin"), ("wiring", "butterfly")], true),
    (&[("network", "dmin"), ("dilation", "3"), ("wiring", "omega")], true),
    (&[("network", "vmin"), ("vcs", "4"), ("wiring", "baseline")], true),
    (&[("network", "vmin"), ("vcs", "64")], true),
    (&[("network", "bmin"), ("wiring", "omega")], true),
    (&[("network", "ring")], false),
    (&[("network", "tmin"), ("wiring", "mesh")], false),
    (&[("network", "dmin"), ("dilation", "0")], false),
    (&[("network", "vmin"), ("vcs", "0")], false),
    (&[("network", "vmin"), ("vcs", "65")], false),
    (&[("k", "2"), ("n", "5")], true),
    (&[("k", "1"), ("n", "3")], false),
    (&[("k", "4"), ("n", "0")], false),
    (&[("k", "300"), ("n", "1")], false),
    (&[("k", "32"), ("n", "9")], false),
    (&[("pattern", "uniform")], true),
    (&[("pattern", "shuffle")], true),
    (&[("pattern", "hotspot:0.05")], true),
    (&[("pattern", "hotspot:0")], true),
    (&[("pattern", "butterfly:2")], true),
    (&[("pattern", "hotspot:-1")], false),
    (&[("pattern", "hotspot:NaN")], false),
    (&[("pattern", "hotspot:inf")], false),
    (&[("pattern", "hotspot:")], false),
    (&[("pattern", "butterfly:x")], false),
    (&[("pattern", "transpose")], false),
    (&[("sizes", "paper")], true),
    (&[("sizes", "fixed:32")], true),
    (&[("sizes", "bimodal:8,1024,0.5")], true),
    (&[("sizes", "fixed:0")], false),
    (&[("sizes", "fixed:-3")], false),
    (&[("sizes", "bimodal:8,1024,1.5")], false),
    (&[("sizes", "bimodal:8,1024,NaN")], false),
    (&[("sizes", "bimodal:0,1024,0.5")], false),
    (&[("sizes", "bimodal:8,1024")], false),
    (&[("sizes", "uniform:8")], false),
    (&[("loads", "0.1,0.3")], true),
    (&[("loads", "0.2, 0.4")], true),
    (&[("loads", "0.1,abc")], false),
    (&[("loads", "0.1,,0.3")], false),
    (&[("loads", "0.1,-0.5")], false),
    (&[("loads", "0")], false),
    (&[("loads", "NaN")], false),
    (&[("loads", "inf")], false),
    (&[("loads", "1")], true),
    (&[("loads", "1.5")], false),
    (&[("loads", "1e308")], false),
];

/// The `.scn` door: the experiment and its loads, or the refusal, which
/// must name the file.
fn scn(row: Row) -> Result<String, String> {
    let mut text = String::from("warmup = 100\nmeasure = 1000\nseed = 7\n");
    text.push_str("expect.sustainable = true\n");
    if !row.iter().any(|&(key, _)| key == "loads") {
        text.push_str("loads = 0.3\n");
    }
    for (key, value) in row {
        text.push_str(&format!("{key} = {value}\n"));
    }
    let s = Scenario::parse(&text, "row.scn");
    let e = s.as_ref().err().map_or("row.scn", String::as_str);
    assert!(e.starts_with("row.scn"), "{row:?}: {e}");
    let s = s?;
    // `loads` has no accessor; the derived rendering carries it.
    let debug = format!("{s:?}");
    let loads = &debug[debug.find("loads: [").unwrap()..];
    Ok(format!("{:?} {}", s.experiment(), &loads[..=loads.find(']').unwrap()]))
}

/// The `JobSpec` door, its loads read as `minnet submit` reads them: the
/// same rendering as [`scn`], or the refusal, which must be a config error.
fn job(row: Row) -> Result<String, String> {
    let mut job = JobSpec {
        warmup: 100,
        measure: 1000,
        seed: 7,
        loads: vec![0.3],
        ..JobSpec::default()
    };
    for &(key, value) in row {
        match key {
            "network" => job.network = value.into(),
            "wiring" => job.wiring = value.into(),
            "dilation" => job.dilation = number(value),
            "vcs" => job.vcs = number(value),
            "k" => job.k = number(value),
            "n" => job.n = number(value),
            "pattern" => job.pattern = value.into(),
            "sizes" => job.sizes = value.into(),
            "loads" => job.loads = minnet::spec::parse_loads(value)?,
            _ => unreachable!("{key}"),
        }
    }
    let mut exp = job.to_experiment().map_err(|e| {
        assert_eq!(error_kind(&e), "config", "{row:?}: {e}");
        String::from(e)
    })?;
    // A scenario's engine settings carry the network's lane count; a
    // job's leave it to compile time.
    exp.sim.vcs = exp.network.vcs();
    Ok(format!("{exp:?} loads: {:?}", job.loads))
}

/// A row's number, as the `JobSpec` field's type.
fn number<T: std::str::FromStr<Err: std::fmt::Debug>>(value: &str) -> T {
    value.parse().unwrap()
}

/// The command-line door, as a one-cycle sweep: accepted, or refused with
/// exit 1 and an error naming one of the row's flags.
fn cli(row: Row) -> Result<(), String> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_minnet"));
    cmd.args(["sweep", "--warmup", "0", "--measure", "1", "--threads", "1"]);
    for (key, value) in row {
        cmd.arg(format!("--{key}")).arg(value);
    }
    let out = cmd.output().expect("spawning the minnet binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    if out.status.success() {
        return Ok(());
    }
    assert_eq!(out.status.code(), Some(1), "{row:?}: {stderr}");
    let named = row.iter().any(|(key, _)| stderr.starts_with(&format!("error: --{key}")));
    assert!(named, "{row:?}: {stderr}");
    Err(stderr)
}

#[test]
fn the_doors_agree() {
    for &(row, valid) in ROWS {
        let (scn, job, cli) = (scn(row), job(row), cli(row));
        match (&scn, &job) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{row:?}"),
            (Err(_), Err(_)) => {}
            _ => panic!("{row:?}: the .scn door says {scn:?}, the job door {job:?}"),
        }
        assert_eq!(scn.is_ok(), valid, "{row:?}: {scn:?}");
        assert_eq!(cli.is_ok(), valid, "{row:?}: {cli:?}");
    }
}
