//! `minnetd` — the simulation-service daemon binary.
//!
//! ```text
//! minnetd --addr 127.0.0.1:7117 --state-dir ./minnetd-state \
//!         --workers 2 --queue-depth 16 --client-inflight 8 \
//!         --budget-cycles 0 --budget-ms 30000 --job-threads 1
//! ```
//!
//! Prints `minnetd listening on <addr>` once the socket is bound (the
//! line CI and the recovery tests parse to learn an ephemeral port),
//! then serves until SIGTERM/SIGINT, which trigger a graceful drain:
//! admissions close, the accepted backlog finishes under its mandatory
//! budgets (at worst as budget-cut `partial` points), the journal is
//! flushed, and the process exits 0. A SIGKILL instead leaves the
//! journal mid-flight — by design at most one torn line, which the
//! next start truncates and recovers from. A complete line the start
//! cannot read is skipped and left in place, and one stderr line says
//! how many there were.

use minnet_daemon::{Daemon, DaemonConfig};
use minnet_sim::RunBudget;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; looked at by the main loop between waits. (The handler
/// must be async-signal-safe: a relaxed store is, a Mutex is not.)
static DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    DRAIN.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // Raw libc signal(2) via FFI: the workspace vendors no libc crate,
    // and the daemon needs exactly two dispositions. SIGTERM = 15,
    // SIGINT = 2 on every Unix this runs on.
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_signal as *const () as usize);
        signal(2, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn die(msg: &str) -> ! {
    eprintln!("minnetd: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut cfg = DaemonConfig::default();
    let mut budget = RunBudget {
        max_cycles: 0,
        max_wall_ms: 30_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        if key == "--help" || key == "-h" {
            println!(
                "minnetd — crash-safe simulation service\n\n\
                 OPTIONS\n\
                 \x20 --addr HOST:PORT      listen address (port 0 = ephemeral) [127.0.0.1:0]\n\
                 \x20 --state-dir DIR       journal + per-job checkpoints [minnetd-state]\n\
                 \x20 --workers N           worker threads (0 = admission-only) [2]\n\
                 \x20 --queue-depth N       max accepted-but-unstarted jobs [16]\n\
                 \x20 --client-inflight N   max queued+running jobs per client [8]\n\
                 \x20 --budget-cycles N     default per-point cycle budget (0 = off) [0]\n\
                 \x20 --budget-ms N         default per-point wall budget [30000]\n\
                 \x20 --job-threads N       threads per job's point grid [1]\n\n\
                 SIGTERM/SIGINT drain gracefully; SIGKILL is recovered on restart."
            );
            return;
        }
        let Some(name) = key.strip_prefix("--") else {
            die(&format!("unexpected argument {key:?}"));
        };
        let Some(value) = it.next() else {
            die(&format!("--{name} needs a value"));
        };
        let parse_usize =
            |v: &str| v.parse::<usize>().unwrap_or_else(|e| die(&format!("--{name}: {e}")));
        let parse_u64 =
            |v: &str| v.parse::<u64>().unwrap_or_else(|e| die(&format!("--{name}: {e}")));
        match name {
            "addr" => cfg.addr = value,
            "state-dir" => cfg.state_dir = value.into(),
            "workers" => cfg.workers = parse_usize(&value),
            "queue-depth" => cfg.queue_depth = parse_usize(&value),
            "client-inflight" => cfg.per_client_inflight = parse_usize(&value),
            "budget-cycles" => budget.max_cycles = parse_u64(&value),
            "budget-ms" => budget.max_wall_ms = parse_u64(&value),
            "job-threads" => cfg.job_threads = parse_usize(&value),
            other => die(&format!("unknown option --{other} (see --help)")),
        }
    }
    if budget.is_unlimited() {
        die("the daemon needs a default budget (--budget-cycles and/or --budget-ms); \
             unbudgeted jobs could hold workers forever");
    }
    cfg.default_budget = budget;

    install_signal_handlers();
    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => die(&e),
    };
    let unreadable = daemon.unreadable_journal_lines();
    if unreadable > 0 {
        eprintln!("minnetd: skipped {unreadable} unreadable journal line(s), left in the file");
    }
    println!("minnetd listening on {}", daemon.addr());
    let _ = std::io::stdout().flush();

    // A drain arrives as SIGTERM/SIGINT (the flag) or as a wire
    // `drain` request (daemon state); either way: close admissions,
    // finish the accepted backlog, flush, exit 0. The wire request
    // ends the wait at once; the handler can only set a flag, which
    // is looked at again every 50 ms.
    let signal_poll = std::time::Duration::from_millis(50);
    loop {
        if DRAIN.load(Ordering::Relaxed) || daemon.wait_drain_requested(signal_poll) {
            break;
        }
    }
    eprintln!("minnetd: drain requested, finishing accepted jobs…");
    daemon.drain_and_wait();
    daemon.shutdown();
    eprintln!("minnetd: drained, journal flushed");
}
