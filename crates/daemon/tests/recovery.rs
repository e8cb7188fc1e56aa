//! Crash-recovery property for the real `minnetd` binary: SIGKILL the
//! daemon at a random point after a job is accepted — before the
//! worker starts it, mid-run (leaving a partial per-job checkpoint and
//! possibly a torn journal tail), or after completion — restart it on
//! the same state dir, and the result it serves for that job must be
//! **byte-identical** to an uninterrupted in-process run of the same
//! spec. Durability begins at the `Accepted` response: the accept
//! event is journaled before the daemon acknowledges — and a complete
//! but unreadable journal line must not cost the jobs after it.

use minnet::service::{JobSpec, Response, ServiceClient};
use minnet_daemon::{Daemon, DaemonConfig};
use proptest::prelude::*;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique state dir per proptest case (cases run sequentially, but
/// a failed case must not poison the next one's dir).
fn state_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "minnetd_recovery_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The daemon child is SIGKILLed when dropped, so a failing assertion
/// never strands a listener process.
struct DaemonProc {
    child: Child,
    addr: String,
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start the real binary on an ephemeral port and parse the
/// `minnetd listening on <addr>` line CI uses for the same purpose.
fn spawn_daemon(dir: &PathBuf) -> DaemonProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_minnetd"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--job-threads", "1"])
        .arg("--state-dir")
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning minnetd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("reading the listen line");
    let addr = line
        .trim()
        .strip_prefix("minnetd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    DaemonProc { child, addr }
}

/// A job small enough to finish fast, big enough that a kill can land
/// mid-run. The explicit budget keeps the daemon from substituting its
/// default, so the in-process reference hashes identically.
fn job(seed: u64) -> JobSpec {
    JobSpec {
        sizes: "fixed:32".into(),
        loads: vec![0.15, 0.3, 0.45],
        warmup: 300,
        measure: 2_000,
        seed,
        budget_cycles: 100_000,
        ..JobSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sigkill_at_a_random_point_recovers_byte_identical_results(
        seed in 1u64..1_000_000,
        kill_after_ms in 0u64..120,
    ) {
        let dir = state_dir();
        let _cleanup = Cleanup(dir.clone());
        let spec = job(seed);

        // Accept the job, then SIGKILL the daemon at an arbitrary
        // moment: the job may be queued, mid-simulation, or done.
        let first = spawn_daemon(&dir);
        let client = ServiceClient::new(first.addr.clone());
        let submitted = client.submit("prop", &spec).expect("submit");
        let Response::Accepted { job_id, .. } = submitted else {
            panic!("submit refused: {submitted:?}");
        };
        std::thread::sleep(Duration::from_millis(kill_after_ms));
        drop(first); // Child::kill is SIGKILL on unix: no drain, no flush

        // Restart on the same state dir: the journal (possibly with a
        // torn tail) and any partial checkpoint are all it has.
        let second = spawn_daemon(&dir);
        let client = ServiceClient::new(second.addr.clone());
        let recovered = client
            .wait_result(&job_id, Duration::from_secs(120))
            .expect("recovered result");

        // The uninterrupted reference, computed in-process: exactly the
        // string an unkilled daemon would have cached and served.
        let reference = minnet::run_job(&spec, None, 1).expect("reference run");
        prop_assert_eq!(recovered, reference, "recovery changed result bytes");
    }
}

/// Every file under `dir`, recursively.
fn files_under(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out
}

/// The journal's lock dies with the process that held it: a daemon
/// SIGKILLed mid-job is replaced at once on the same state dir — no
/// stale owner to wait out or clear by hand — and no lock file ever
/// appears beside the journal or a job's checkpoint.
#[test]
fn a_sigkilled_daemon_restarts_at_once_with_no_lock_file() {
    let dir = state_dir();
    let _cleanup = Cleanup(dir.clone());
    let first = spawn_daemon(&dir);
    let client = ServiceClient::new(first.addr.clone());
    let Response::Accepted { job_id, .. } = client.submit("kill", &job(7)).expect("submit") else {
        panic!("submit refused");
    };
    drop(first); // SIGKILL
    let second = spawn_daemon(&dir); // panics on anything but the listen line
    let client = ServiceClient::new(second.addr.clone());
    client.wait_result(&job_id, Duration::from_secs(120)).expect("recovered result");
    let files = files_under(&dir);
    assert!(files.iter().any(|f| f.ends_with("journal.jsonl")), "{files:?}");
    assert!(!files.iter().any(|f| f.to_string_lossy().ends_with(".lock")), "{files:?}");
}

/// A complete journal line that cannot be read — between two acknowledged
/// `accepted` events — is skipped and left in place, not taken for the end
/// of the journal: both jobs are recovered and served byte-identically.
#[test]
fn an_unreadable_journal_line_loses_no_job_after_it() {
    let dir = state_dir();
    let _cleanup = Cleanup(dir.clone());
    std::fs::create_dir_all(&dir).unwrap();
    let accepted = |spec: &JobSpec| {
        format!(
            "{{\"event\":\"accepted\",\"job_id\":\"{}\",\"client\":\"c\",\"spec\":{}}}\n",
            spec.job_id().unwrap(),
            spec.to_json()
        )
    };
    let (a, b) = (job(11), job(12));
    let journal = format!(
        "{{\"v\":1,\"kind\":\"minnetd_journal\"}}\n{}{{\"event\":\"accepted\",\"job_id\":\n{}",
        accepted(&a),
        accepted(&b)
    );
    std::fs::write(dir.join("journal.jsonl"), &journal).unwrap();

    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        state_dir: dir.clone(),
        ..DaemonConfig::default()
    })
    .expect("start on a journal with an unreadable line");
    assert_eq!(daemon.unreadable_journal_lines(), 1);
    let client = ServiceClient::new(daemon.addr().to_string());
    for spec in [&a, &b] {
        let served = client
            .wait_result(&spec.job_id().unwrap(), Duration::from_secs(120))
            .expect("recovered result");
        assert_eq!(served, minnet::run_job(spec, None, 1).unwrap());
    }
    daemon.shutdown();
    let after = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    assert!(after.starts_with(&journal), "recovery rewrote the journal");
}
