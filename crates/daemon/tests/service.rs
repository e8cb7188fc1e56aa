//! In-process integration tests for the `minnetd` service: admission
//! control under flood, cache-hit byte identity, panic isolation,
//! structured errors over the wire, and graceful drain.

use minnet::service::{JobSpec, Response, ServiceClient};
use minnet_daemon::{Daemon, DaemonConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::time::Duration;

/// A unique state dir per test (tests run in parallel).
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "minnetd_test_{}_{tag}",
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

/// A small, fast job (sub-second even unoptimized).
fn quick_spec(seed: u64) -> JobSpec {
    JobSpec {
        sizes: "fixed:32".into(),
        loads: vec![0.15, 0.3],
        warmup: 300,
        measure: 2_000,
        seed,
        budget_cycles: 100_000,
        ..JobSpec::default()
    }
}

fn start(tag: &str, workers: usize, queue_depth: usize, cap: usize) -> (Daemon, Cleanup) {
    let dir = state_dir(tag);
    let cleanup = Cleanup(dir.clone());
    let daemon = Daemon::start(DaemonConfig {
        workers,
        queue_depth,
        per_client_inflight: cap,
        state_dir: dir,
        ..DaemonConfig::default()
    })
    .unwrap();
    (daemon, cleanup)
}

#[test]
fn cache_hit_serves_byte_identical_result_without_resimulation() {
    let (daemon, _cleanup) = start("cache", 1, 16, 8);
    let client = ServiceClient::new(daemon.addr().to_string());
    let spec = quick_spec(11);

    let Response::Accepted { job_id, cached } = client.submit("c1", &spec).unwrap() else {
        panic!("submit refused");
    };
    assert!(!cached, "first submission must be cold");
    let cold = client.wait_result(&job_id, Duration::from_secs(60)).unwrap();
    assert!(cold.contains("\"outcome\":\"ok\""));

    // Identical request: served from the config-hash cache, bitwise
    // equal to the cold result.
    let Response::Accepted { job_id: id2, cached } = client.submit("c2", &spec).unwrap() else {
        panic!("resubmit refused");
    };
    assert_eq!(job_id, id2, "identical spec must map to the same job");
    assert!(cached, "second submission must hit the cache");
    let warm = client.result(&job_id).unwrap();
    let Response::JobResult { result, .. } = warm else {
        panic!("expected result, got {warm:?}");
    };
    assert_eq!(cold, result, "cache served different bytes");
    assert_eq!(client.stats().unwrap().cache_hits, 1);
}

#[test]
fn flood_beyond_capacity_yields_typed_rejections_and_no_panics() {
    // Admission-only daemon (workers = 0): nothing dequeues, so the
    // rejection counts are exact functions of the bounds.
    let (daemon, _cleanup) = start("flood", 0, 4, 3);
    let client = ServiceClient::new(daemon.addr().to_string());

    // One client floods: the per-client cap (3) bites first.
    let mut accepted = 0;
    let mut capped = 0;
    for seed in 0..6 {
        match client.submit("flooder", &quick_spec(100 + seed)).unwrap() {
            Response::Accepted { .. } => accepted += 1,
            Response::Rejected {
                reason,
                retry_after_ms,
            } => {
                assert!(reason.contains("in-flight cap"), "{reason}");
                assert!(retry_after_ms > 0, "backpressure hint missing");
                capped += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!((accepted, capped), (3, 3));

    // Distinct clients flood: the queue depth (4) bites next.
    let mut queue_full = 0;
    for seed in 0..4 {
        let id = format!("c{seed}");
        match client.submit(&id, &quick_spec(200 + seed)).unwrap() {
            Response::Accepted { .. } => {}
            Response::Rejected { reason, .. } => {
                assert!(reason.contains("queue full"), "{reason}");
                queue_full += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(queue_full, 3, "queue depth 4 admits exactly one more");
    let stats = client.stats().unwrap();
    assert_eq!(stats.queued, 4);
    assert_eq!(stats.rejected, 6);
    // The daemon is alive and sane after the flood.
    client.ping().unwrap();
}

#[test]
fn chaos_panics_are_isolated_and_recovered_by_derived_seed_retries() {
    let (daemon, _cleanup) = start("chaos", 1, 16, 8);
    let client = ServiceClient::new(daemon.addr().to_string());
    let mut spec = quick_spec(21);
    spec.chaos_panic_attempts = 1;
    spec.retries = 2;

    let Response::Accepted { job_id, .. } = client.submit("c1", &spec).unwrap() else {
        panic!("submit refused");
    };
    let result = client.wait_result(&job_id, Duration::from_secs(60)).unwrap();
    // Every point panicked once, retried on a derived seed, and
    // completed; the daemon survived all of it.
    assert!(result.contains("\"attempts\":2"), "{result}");
    assert!(!result.contains("\"outcome\":\"failed\""), "{result}");
    client.ping().unwrap();

    // A fully poisoned job (more injected panics than retries) still
    // completes as a curve of failed points — the worker pool survives.
    let mut doomed = quick_spec(22);
    doomed.chaos_panic_attempts = 5;
    doomed.retries = 0;
    let Response::Accepted { job_id, .. } = client.submit("c1", &doomed).unwrap() else {
        panic!("submit refused");
    };
    let result = client.wait_result(&job_id, Duration::from_secs(60)).unwrap();
    assert!(result.contains("\"outcome\":\"failed\""));
    assert!(result.contains("chaos: injected panic"));
    client.ping().unwrap();
}

#[test]
fn malformed_specs_get_structured_errors_not_queue_slots() {
    let (daemon, cleanup) = start("badspec", 1, 16, 8);
    let client = ServiceClient::new(daemon.addr().to_string());
    let journal = cleanup.0.join("journal.jsonl");
    let journal_len = || std::fs::metadata(&journal).unwrap().len();
    let journal_before = journal_len();
    let mut spec = quick_spec(31);
    spec.network = "hypercube".into();
    let Response::Error { kind, message } = client.submit("c1", &spec).unwrap() else {
        panic!("invalid spec must be refused");
    };
    assert_eq!(kind, "config");
    assert!(message.contains("hypercube"), "{message}");
    // A lane count past the engine's mask word is a typed config error…
    let mut spec = quick_spec(31);
    spec.network = "vmin".into();
    spec.vcs = 65;
    let Response::Error { kind, message } = client.submit("c1", &spec).unwrap() else {
        panic!("vcs = 65 must be refused");
    };
    assert_eq!(kind, "config");
    assert!(message.contains("at most 64"), "{message}");
    // …and one past `u8` is a bad request (it used to wrap: 258 ran as
    // 2), answered without echoing the offending line back.
    let line = format!("{{\"op\":\"submit\",\"client\":\"c1\",\"spec\":{}}}\n", spec.to_json())
        .replace("\"vcs\":65", "\"vcs\":258");
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    let Some(Response::Error { kind, message }) = Response::parse(&reply) else {
        panic!("vcs = 258 must be refused, got {reply}");
    };
    assert_eq!(kind, "bad_request");
    assert!(!message.contains("258"), "{message}");
    // Geometries no graph can be built for are refused at admission:
    // 32^9 nodes used to panic the connection thread inside
    // `Geometry::new`, and k = 300 wrapped its `u8` ports, was accepted,
    // journaled and then failed all three attempts of its retry ladder.
    for (k, n, why) in [(32, 9, "does not fit"), (300, 1, "at most 256")] {
        let mut spec = quick_spec(31);
        (spec.k, spec.n) = (k, n);
        let Response::Error { kind, message } = client.submit("c1", &spec).unwrap() else {
            panic!("k = {k}, n = {n} must be refused");
        };
        assert_eq!(kind, "config");
        assert!(message.contains(why), "{message}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.queued + stats.running + stats.done, 0);
    // Nothing refused above reached the journal, and the service still
    // answers a fresh connection.
    assert_eq!(journal_len(), journal_before);
    let fresh = ServiceClient::new(daemon.addr().to_string());
    fresh.ping().unwrap();
}

#[test]
fn newline_free_flood_is_cut_at_the_line_cap() {
    let (daemon, _cleanup) = start("longline", 1, 16, 8);
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.write_all(&vec![b'x'; 2 << 20]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let Some(Response::Error { kind, message }) = Response::parse(&reply) else {
        panic!("a 2 MiB line must be refused, got {reply:?}");
    };
    assert_eq!(kind, "line_too_long");
    assert!(!message.contains("xx"), "payload echoed: {message}");
    let after = reader.read_line(&mut reply).unwrap();
    assert_eq!(after, 0, "the daemon closes the connection");
    // The flood cost one connection, not the service.
    let client = ServiceClient::new(daemon.addr().to_string());
    client.ping().unwrap();
    let Response::Accepted { job_id, .. } = client.submit("c1", &quick_spec(61)).unwrap() else {
        panic!("submit after the flood refused");
    };
    let deadline = Duration::from_secs(60);
    client.wait_result(&job_id, deadline).unwrap();
}

#[test]
fn drain_closes_admissions_finishes_backlog_and_flushes_journal() {
    let dir = state_dir("drain");
    let _cleanup = Cleanup(dir.clone());
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        state_dir: dir.clone(),
        ..DaemonConfig::default()
    })
    .unwrap();
    let client = ServiceClient::new(daemon.addr().to_string());

    // Two jobs in flight; the second has a tight cycle budget so its
    // points are budget-cut to `partial` — drain must surface them as
    // such, not lose them.
    let ok_spec = quick_spec(41);
    let mut partial_spec = quick_spec(42);
    partial_spec.budget_cycles = 900;
    let Response::Accepted { job_id: ok_id, .. } = client.submit("c1", &ok_spec).unwrap() else {
        panic!("submit refused");
    };
    let Response::Accepted { job_id: partial_id, .. } =
        client.submit("c1", &partial_spec).unwrap()
    else {
        panic!("submit refused");
    };

    assert_eq!(client.drain().unwrap(), Response::Draining);
    // Admissions are closed…
    let Response::Rejected { reason, .. } = client.submit("c1", &quick_spec(43)).unwrap() else {
        panic!("draining daemon must reject new work");
    };
    assert!(reason.contains("draining"), "{reason}");
    // …but the accepted backlog completes.
    daemon.drain_and_wait();
    let ok_result = client.wait_result(&ok_id, Duration::from_secs(10)).unwrap();
    assert!(ok_result.contains("\"outcome\":\"ok\""));
    let partial_result = client
        .wait_result(&partial_id, Duration::from_secs(10))
        .unwrap();
    assert!(
        partial_result.contains("\"outcome\":\"partial\""),
        "budget-cut job must drain to partial outcomes: {partial_result}"
    );
    // The journal on disk is complete: both jobs accepted and done.
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    assert!(journal.ends_with('\n'), "flushed journal ends line-whole");
    for id in [&ok_id, &partial_id] {
        assert!(journal.contains(&format!("\"event\":\"accepted\",\"job_id\":\"{id}\"")));
        assert!(journal.contains(&format!("\"event\":\"done\",\"job_id\":\"{id}\"")));
    }
}

#[test]
fn second_daemon_on_same_state_dir_is_refused() {
    let dir = state_dir("double");
    let _cleanup = Cleanup(dir.clone());
    let first = Daemon::start(DaemonConfig {
        state_dir: dir.clone(),
        ..DaemonConfig::default()
    })
    .unwrap();
    let Err(err) = Daemon::start(DaemonConfig {
        state_dir: dir.clone(),
        ..DaemonConfig::default()
    }) else {
        panic!("second daemon on the same state dir must be refused");
    };
    assert!(err.contains("locked by live process"), "{err}");
    drop(first);
    // Released: a successor start succeeds (and recovers the journal).
    let second = Daemon::start(DaemonConfig {
        state_dir: dir,
        ..DaemonConfig::default()
    })
    .unwrap();
    drop(second);
}

#[test]
fn hard_stop_and_restart_recovers_queued_jobs_byte_identically() {
    // The in-process flavor of the SIGKILL proptest: a job accepted on
    // an admission-only daemon (never started), a hard stop, then a
    // restart with workers — the recovered job must complete with
    // bytes identical to an uninterrupted daemon's.
    let dir = state_dir("recover");
    let _cleanup = Cleanup(dir.clone());
    let spec = quick_spec(51);
    let job_id = {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            state_dir: dir.clone(),
            ..DaemonConfig::default()
        })
        .unwrap();
        let client = ServiceClient::new(daemon.addr().to_string());
        let Response::Accepted { job_id, .. } = client.submit("c1", &spec).unwrap() else {
            panic!("submit refused");
        };
        daemon.shutdown(); // hard stop: no drain, job still queued
        job_id
    };

    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        state_dir: dir,
        ..DaemonConfig::default()
    })
    .unwrap();
    let client = ServiceClient::new(daemon.addr().to_string());
    let recovered = client.wait_result(&job_id, Duration::from_secs(60)).unwrap();

    // Reference: the same job on a fresh, uninterrupted daemon.
    let (fresh, _cleanup2) = start("recover_ref", 1, 16, 8);
    let fresh_client = ServiceClient::new(fresh.addr().to_string());
    let Response::Accepted { job_id: ref_id, .. } = fresh_client.submit("c1", &spec).unwrap()
    else {
        panic!("submit refused");
    };
    assert_eq!(job_id, ref_id);
    let reference = fresh_client
        .wait_result(&ref_id, Duration::from_secs(60))
        .unwrap();
    assert_eq!(recovered, reference, "recovery changed result bytes");
}
