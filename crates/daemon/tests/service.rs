//! In-process integration tests for the `minnetd` service: admission
//! control under flood, cache-hit byte identity, panic isolation,
//! structured errors over the wire, graceful drain, and the wire path's
//! contracts (kept-alive and one-shot connections, `wait`, the
//! connection cap, a stop that joins its connections).

use minnet::service::{JobSpec, Request, Response, ServiceClient};
use minnet_daemon::{Daemon, DaemonConfig, MAX_CONNECTIONS};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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
fn unusable_values_are_refused_at_submit_and_never_journaled() {
    let (daemon, cleanup) = start("unusable", 1, 16, 8);
    let client = ServiceClient::new(daemon.addr().to_string());
    let journal = cleanup.0.join("journal.jsonl");
    let before = std::fs::read_to_string(&journal).unwrap();
    // Each of these used to be accepted and journaled, then fail all
    // three attempts of its retry ladder when the run compiled it. A
    // load past the one-port bound never fails: 1e308 spins in its first
    // cycle's arrivals, where the wall budget (checked between cycles)
    // cannot cut it.
    for (field, value) in [
        ("pattern", "hotspot:-1"),
        ("pattern", "hotspot:NaN"),
        ("sizes", "fixed:0"),
        ("sizes", "bimodal:8,1024,1.5"),
        ("loads", "1.5"),
        ("loads", "1e308"),
        ("loads", "0"),
    ] {
        let mut spec = quick_spec(41);
        match field {
            "pattern" => spec.pattern = value.into(),
            "sizes" => spec.sizes = value.into(),
            _ => spec.loads = vec![0.2, value.parse().unwrap()],
        }
        let Response::Error { kind, message } = client.submit("c1", &spec).unwrap() else {
            panic!("{field} = {value} must be refused");
        };
        assert_eq!(kind, "config", "{value}");
        assert!(message.starts_with(&format!("{field}: ")), "{value}: {message}");
    }
    let after = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(after, before, "a refused job reached the journal");
    assert!(!after.contains("\"accepted\""), "{after}");
    // The permutation and bimodal forms the command line lists are a
    // job's vocabulary too.
    let mut spec = quick_spec(41);
    (spec.pattern, spec.sizes) = ("butterfly:2".into(), "bimodal:8,64,0.5".into());
    let Response::Accepted { job_id, .. } = client.submit("c1", &spec).unwrap() else {
        panic!("butterfly:2 with bimodal sizes must be accepted");
    };
    let result = client.wait_result(&job_id, Duration::from_secs(60)).unwrap();
    assert!(result.contains("\"outcome\":\"ok\""), "{result}");
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
    assert!(err.contains("journal.jsonl is locked by another live process"), "{err}");
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

/// One connection, one request line, one response line, close: what
/// every client did before connections were kept, and what `nc` does.
fn one_shot(daemon: &Daemon, request: &Request) -> Response {
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream.write_all(format!("{}\n", request.to_line()).as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    Response::parse(reply.trim_end()).unwrap_or_else(|| panic!("unparsable reply {reply:?}"))
}

#[test]
fn a_connection_the_daemon_gives_up_is_closed_not_abandoned() {
    let (daemon, _cleanup) = start("hangup", 1, 16, 8);
    // A line that is not UTF-8 ends the connection without a reply. The
    // daemon keeps a second handle on every open socket (to end it at a
    // stop), so the thread letting go of its own closes nothing: the
    // peer must be hung up on, or it waits on a line no one will read.
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(b"\xff\xfe\n").unwrap();
    let mut rest = Vec::new();
    let read = std::io::Read::read_to_end(&mut stream, &mut rest);
    assert!(matches!(read, Ok(0)), "expected end-of-input, got {read:?}");
}

#[test]
fn one_client_is_one_connection_and_a_clone_is_another() {
    let (daemon, _cleanup) = start("keepalive", 1, 16, 8);
    let client = ServiceClient::new(daemon.addr().to_string());
    let Response::Accepted { job_id, .. } = client.submit("c1", &quick_spec(71)).unwrap() else {
        panic!("submit refused");
    };
    client.wait_result(&job_id, Duration::from_secs(60)).unwrap();
    for i in 0..48 {
        match i % 4 {
            0 => client.ping().unwrap(),
            1 => assert!(matches!(client.status(&job_id), Ok(Response::JobStatus { .. }))),
            2 => assert!(matches!(client.result(&job_id), Ok(Response::JobResult { .. }))),
            _ => assert!(matches!(
                client.submit("c1", &quick_spec(71)),
                Ok(Response::Accepted { cached: true, .. })
            )),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!((stats.connections, stats.open_connections), (1, 1));
    let clone = client.clone();
    let stats = clone.stats().unwrap();
    assert_eq!((stats.connections, stats.open_connections), (2, 2));
}

#[test]
fn one_shot_connections_are_served_as_before() {
    let (daemon, _cleanup) = start("oneshot", 1, 16, 8);
    assert_eq!(one_shot(&daemon, &Request::Ping), Response::Pong);
    let submit = Request::Submit {
        client: "c1".into(),
        spec: quick_spec(72),
    };
    let Response::Accepted { job_id, cached: false } = one_shot(&daemon, &submit) else {
        panic!("submit refused");
    };
    let status = one_shot(&daemon, &Request::Status { job_id: job_id.clone() });
    assert!(matches!(status, Response::JobStatus { .. }), "{status:?}");
    let wait = Request::Wait {
        job_id: job_id.clone(),
        wait_ms: 60_000,
    };
    let Response::JobResult { result: waited, .. } = one_shot(&daemon, &wait) else {
        panic!("the job did not finish");
    };
    let Response::JobResult { result, .. } = one_shot(&daemon, &Request::Result { job_id }) else {
        panic!("no result after wait");
    };
    assert_eq!(waited, result, "`wait` and `result` disagree on the bytes");
    let Response::Stats(stats) = one_shot(&daemon, &Request::Stats) else {
        panic!("no stats");
    };
    assert_eq!((stats.done, stats.connections), (1, 6));
    assert_eq!(one_shot(&daemon, &Request::Drain), Response::Draining);
}

#[test]
fn wait_answers_what_result_would_when_there_is_something_to_say() {
    // Admission-only: the job stays queued, so `wait` runs out its
    // time and says so.
    let (daemon, _cleanup) = start("wait", 0, 16, 8);
    let client = ServiceClient::new(daemon.addr().to_string());
    let Response::Accepted { job_id, .. } = client.submit("c1", &quick_spec(73)).unwrap() else {
        panic!("submit refused");
    };
    let wait = |job_id: &str, wait_ms| {
        let job_id = job_id.to_string();
        client.request(&Request::Wait { job_id, wait_ms }).unwrap()
    };
    assert_eq!(wait(&job_id, 20), client.result(&job_id).unwrap());
    assert!(matches!(wait(&job_id, 0), Response::JobStatus { state, .. } if state == "queued"));
    // Nothing to wait for: answered at once, however long was offered.
    let Response::Error { kind, .. } = wait("no-such-job", 60_000) else {
        panic!("an unknown job has no result");
    };
    assert_eq!(kind, "not_found");
}

#[test]
fn wait_ends_with_the_error_of_a_job_that_fails() {
    let (daemon, cleanup) = start("waitfail", 1, 16, 8);
    // No job can checkpoint: the directory its file goes in is a file.
    std::fs::remove_dir_all(cleanup.0.join("jobs")).unwrap();
    std::fs::write(cleanup.0.join("jobs"), "").unwrap();
    let client = ServiceClient::new(daemon.addr().to_string());
    let Response::Accepted { job_id, .. } = client.submit("c1", &quick_spec(75)).unwrap() else {
        panic!("submit refused");
    };
    for _ in 0..2 {
        // Parked until the last retry gives up; at once after that.
        let err = client.wait_result(&job_id, Duration::from_secs(60)).unwrap_err();
        assert!(err.contains("job_failed") && err.contains(".ckpt.jsonl"), "{err}");
    }
}

#[test]
fn a_stop_wakes_a_parked_wait_and_joins_an_idle_connection() {
    let dir = state_dir("stopwait");
    let _cleanup = Cleanup(dir.clone());
    let config = || DaemonConfig {
        workers: 0,
        state_dir: dir.clone(),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config()).unwrap();
    let idle = ServiceClient::new(daemon.addr().to_string());
    let Response::Accepted { job_id, .. } = idle.submit("c1", &quick_spec(74)).unwrap() else {
        panic!("submit refused");
    };
    let waiter = ServiceClient::new(daemon.addr().to_string());
    waiter.ping().unwrap();
    let (connected, go) = std::sync::mpsc::channel();
    let parked = std::thread::spawn(move || {
        connected.send(()).unwrap();
        waiter.request(&Request::Wait {
            job_id,
            wait_ms: 30_000,
        })
    });
    go.recv().unwrap();
    // Both connections are open and one is (about to be) parked in a
    // 30 s wait; the other sits in a 30 s read. Neither may hold the
    // stop up — nor outlive it, or the state directory stays locked.
    let stopping = Instant::now();
    daemon.shutdown();
    let took = stopping.elapsed();
    assert!(took < Duration::from_secs(10), "shutdown sat out a timeout: {took:?}");
    // Whichever side of the stop the request landed on, it was not
    // left waiting: the job is still queued, or the connection is gone.
    match parked.join().unwrap() {
        Ok(Response::JobStatus { state, .. }) => assert_eq!(state, "queued"),
        Ok(other) => panic!("unexpected answer to an interrupted wait: {other:?}"),
        Err(_) => {}
    }
    let successor = Daemon::start(config()).unwrap();
    assert_eq!(ServiceClient::new(successor.addr().to_string()).stats().unwrap().queued, 1);
}

#[test]
fn connections_past_the_cap_are_refused_with_a_typed_error() {
    let (daemon, _cleanup) = start("conncap", 1, 16, 8);
    let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(daemon.addr()).unwrap())
        .collect();
    // Accepted in connection order, so the cap's worth above are all
    // registered by the time this one is looked at.
    let over = TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(over);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let Some(Response::Error { kind, message }) = Response::parse(reply.trim_end()) else {
        panic!("expected a refusal, got {reply:?}");
    };
    assert_eq!(kind, "too_many_connections");
    assert!(message.contains(&MAX_CONNECTIONS.to_string()), "{message}");
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "the refused connection is closed");
    // One closes, one fits. The daemon learns of the close when its
    // thread reads end-of-input, which nothing here can wait on: ask
    // until a connection is let in.
    drop(idle.pop());
    let asking = Instant::now();
    while ServiceClient::new(daemon.addr().to_string()).ping().is_err() {
        assert!(asking.elapsed() < Duration::from_secs(30), "no room after a close");
        std::thread::yield_now();
    }
}
