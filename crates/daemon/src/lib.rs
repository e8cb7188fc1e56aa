//! `minnetd` — the crash-safe simulation service over the minnet
//! engine.
//!
//! The wire protocol, job model, and deterministic job executor live in
//! [`minnet::service`]; this crate is the *server*: the bounded queue
//! with admission control, the worker pool with per-job isolation, the
//! FNV-config-hash result cache, the durable job journal, and the
//! recovery and drain machinery around them. The daemon is built from
//! `std` only — threads, `Mutex`/`Condvar`, blocking sockets — per the
//! workspace's vendored-crate policy.
//!
//! ## Robustness model
//!
//! * **Admission control.** `queue_depth` bounds accepted-but-unstarted
//!   jobs; `per_client_inflight` bounds one client's queued+running
//!   jobs. Beyond either bound a submission gets a typed
//!   `Rejected{reason, retry_after_ms}` — the daemon never buffers
//!   unboundedly, so a flood degrades service for the flooder, not the
//!   process.
//! * **Per-job isolation.** Workers run jobs through
//!   [`minnet::service::run_job`], which executes every curve point
//!   under `catch_unwind` on a fresh worker-owned `EngineState` with
//!   derived-seed retries; the worker wraps the whole job in another
//!   `catch_unwind` so even a bug outside the point loop downgrades to
//!   a `failed` job instead of a dead worker. Every job carries a
//!   mandatory [`RunBudget`] — specs that request none get the daemon's
//!   default — so no request can hold a worker forever.
//! * **Result cache.** Results are cached by the job's FNV config
//!   hash; a repeat submission is answered `cached:true` without
//!   re-simulation, and the cached bytes are the original bytes (the
//!   determinism contract makes `==` the correctness check).
//! * **Durable journal.** `journal.jsonl` in the state directory
//!   records `accepted` (with the full spec) and `done`/`failed`
//!   events, one line each, in a [`minnet::jsonl::Log`] (the campaign
//!   checkpoints' file) that holds its own exclusive lock: a second
//!   daemon on the same state directory fails fast, and a SIGKILLed one
//!   leaves nothing to clear. Recovery truncates a torn tail, skips (and
//!   reports) an unreadable complete line, re-enqueues `accepted`
//!   without `done`, and the job's per-point checkpoint in `jobs/`
//!   resumes the curve — byte-identical results after a SIGKILL.
//! * **Graceful drain.** A drain request (or SIGTERM in the binary)
//!   stops admissions; workers finish the accepted backlog — each job
//!   bounded by its budget, so "finish" means *at worst* budget-cut
//!   `partial` points — and the journal ends flushed and complete.
//! * **Wire path.** Nothing between a client's bytes and the reply is a
//!   timed sleep: `accept` blocks (a hard stop wakes it with a loopback
//!   self-connect), each connection has a thread that blocks in `read`
//!   and serves any number of request lines, and a `wait` request parks
//!   that thread on a condvar until the job finishes. Open connections
//!   are registered so a stop can close and *join* them — a thread left
//!   parked in `read` would keep the journal lock alive — and capped at
//!   [`MAX_CONNECTIONS`].

use minnet::campaign::panic_reason;
use minnet::jsonl::{self, esc, Log};
use minnet::service::{run_job, JobSpec, Request, Response, ServiceStats};
use minnet_sim::RunBudget;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Journal format version (the header's `"v"`).
const JOURNAL_VERSION: u64 = 1;

/// Longest request line a connection may send, newline included. The
/// largest legitimate request — a submit with a few hundred loads — is
/// a few KiB; anything near this is a flood, answered `line_too_long`
/// before it can grow a buffer or reach admission control.
const MAX_LINE_BYTES: u64 = 1 << 20;

/// Most connections open at once. A kept-alive client holds a thread
/// for as long as it stays connected (idle ones up to the 30 s read
/// timeout), so the count is bounded like every other queue here: the
/// next connection is answered `too_many_connections` and closed.
pub const MAX_CONNECTIONS: usize = 64;

/// Longest one `wait` request parks its connection thread; a client
/// that wants longer asks again.
const MAX_WAIT_MS: u64 = 30_000;

/// Whole-job retries after a panic that escaped the per-point
/// isolation (or a transient I/O failure), with linear backoff.
const JOB_RETRIES: u32 = 2;

/// How the daemon is shaped. `Default` gives a loopback daemon on an
/// ephemeral port with small, test-friendly bounds.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Worker threads. 0 = admission-only: jobs queue (and journal, and
    /// recover) but never execute — used by the flood benchmarks to
    /// measure rejection behavior deterministically.
    pub workers: usize,
    /// Maximum accepted-but-unstarted jobs before submissions bounce.
    pub queue_depth: usize,
    /// Maximum queued+running jobs per client identity.
    pub per_client_inflight: usize,
    /// State directory: `journal.jsonl` + per-job checkpoints under
    /// `jobs/`.
    pub state_dir: PathBuf,
    /// The mandatory budget substituted into specs that request none.
    pub default_budget: RunBudget,
    /// Threads each worker gives one job's point grid.
    pub job_threads: usize,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 16,
            per_client_inflight: 8,
            state_dir: PathBuf::from("minnetd-state"),
            default_budget: RunBudget {
                max_cycles: 0,
                max_wall_ms: 30_000,
            },
            job_threads: 1,
        }
    }
}

/// A job's lifecycle state.
#[derive(Clone, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed(String),
}

impl JobState {
    fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

#[derive(Clone, Debug)]
struct Job {
    spec: JobSpec,
    client: String,
    state: JobState,
}

/// Open (or create) `journal.jsonl` under `dir` as a locked [`Log`] and
/// replay it into the daemon's starting state: `accepted` events in
/// order, `done`/`failed` marking theirs finished. A torn tail is
/// truncated; an unreadable complete line is skipped, so the accepted
/// jobs after it are still recovered. Returns the state and how many
/// lines were skipped.
fn recover(dir: &Path) -> Result<(State, usize), String> {
    std::fs::create_dir_all(dir.join("jobs"))
        .map_err(|e| format!("creating state dir {}: {e}", dir.display()))?;
    let (mut jobs, mut cache, mut accepted) = (BTreeMap::new(), BTreeMap::new(), Vec::new());
    let (journal, unreadable) = Log::open(
        "journal",
        &dir.join("journal.jsonl"),
        &format!("{{\"v\":{JOURNAL_VERSION},\"kind\":\"minnetd_journal\"}}"),
        |head| jsonl::check_version(head, JOURNAL_VERSION),
        |event| {
            let job_id = event.str("job_id")?;
            let (state, result) = match event.str("event")?.as_str() {
                "accepted" => {
                    let spec = JobSpec::from_json(event.raw("spec")?)?;
                    let client = event.str("client")?;
                    let state = JobState::Queued;
                    jobs.insert(job_id.clone(), Job { spec, client, state });
                    accepted.push(job_id);
                    return Some(());
                }
                "done" => (JobState::Done, Some(event.raw("result")?)),
                "failed" => (JobState::Failed(event.str("error")?), None),
                _ => return None,
            };
            if let Some(job) = jobs.get_mut(&job_id) {
                job.state = state;
                if let Some(result) = result {
                    cache.insert(job_id, result.to_string());
                }
            }
            Some(())
        },
    )?;
    let queue = accepted
        .into_iter()
        .filter(|id| jobs[id].state == JobState::Queued)
        .collect();
    let mut state = State {
        queue,
        jobs,
        cache,
        inflight: BTreeMap::new(),
        draining: false,
        running: 0,
        rejected: 0,
        cache_hits: 0,
        journal,
        conns: Vec::new(),
        connections: 0,
    };
    state.recount();
    Ok((state, unreadable))
}

struct State {
    queue: VecDeque<String>,
    jobs: BTreeMap<String, Job>,
    cache: BTreeMap<String, String>,
    inflight: BTreeMap<String, usize>,
    draining: bool,
    running: usize,
    rejected: u64,
    cache_hits: u64,
    journal: Log,
    /// Open connections: a handle on each socket to shut it down, and
    /// the thread serving it to join. Pruned of finished threads
    /// whenever they are counted.
    conns: Vec<(TcpStream, JoinHandle<()>)>,
    /// Connections served since start.
    connections: u64,
}

impl State {
    /// Forget the connections whose threads have finished; how many are
    /// left open.
    fn open_connections(&mut self) -> usize {
        self.conns.retain(|(_, thread)| !thread.is_finished());
        self.conns.len()
    }

    /// Recount the two stored counters from `jobs`, which every path
    /// updates first. A panic between a job's state change and its
    /// counter update would otherwise leave `running` or a client's
    /// `inflight` too high for good: a drain that never ends, a client
    /// capped below its bound.
    fn recount(&mut self) {
        self.running = 0;
        self.inflight.clear();
        for job in self.jobs.values() {
            match job.state {
                JobState::Queued => {}
                JobState::Running => self.running += 1,
                JobState::Done | JobState::Failed(_) => continue,
            }
            *self.inflight.entry(job.client.clone()).or_insert(0) += 1;
        }
    }
}

struct Shared {
    state: Mutex<State>,
    /// Wakes workers when the queue grows or drain/stop flips.
    work: Condvar,
    /// Wakes everything waiting on progress — `drain_and_wait`, `wait`
    /// requests, the binary's drain watch — when a job finishes, a
    /// drain is requested, or `stop` flips.
    done: Condvar,
    /// Hard stop (tests, `Drop`): workers exit between jobs, the
    /// listener and every connection close. Not a drain — queued jobs
    /// stay journaled.
    stop: AtomicBool,
    cfg: DaemonConfig,
}

/// The guard inside a lock or condvar result, poisoned or not;
/// [`Shared::repaired`] is what makes the state behind it usable.
fn guard<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Lock the state; a thread that panicked while holding it does not
    /// take the service down with it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.repaired(guard(self.state.lock()))
    }

    /// A guard just taken or re-taken, made good if a thread has
    /// panicked under the lock since the last look. Every update under
    /// the lock is a run of single-field steps that each leave the maps
    /// valid, so the state is usable after a panic between two of them;
    /// what such a panic can break is the agreement of `running` and
    /// `inflight` with `jobs`, and those are recounted before the poison
    /// is cleared. (`queue` naming only `Queued` jobs is not re-checked:
    /// an entry is pushed after its record exists and popped before the
    /// record changes.)
    fn repaired<'a>(&self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        if self.state.is_poisoned() {
            st.recount();
            self.state.clear_poison();
        }
        st
    }

    /// Park on `done` until `ready`, a stop, or `timeout`; the state as
    /// it then stands.
    fn wait_done(
        &self,
        timeout: Duration,
        ready: impl Fn(&State) -> bool,
    ) -> MutexGuard<'_, State> {
        // `None`: too far off to name, so no deadline at all.
        let deadline = Instant::now().checked_add(timeout);
        let mut st = self.lock();
        while !ready(&st) && !self.stop.load(Ordering::SeqCst) {
            let left = deadline.map_or(Duration::MAX, |at| {
                at.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                break;
            }
            st = self.repaired(guard(self.done.wait_timeout(st, left)).0);
        }
        st
    }

    /// Flip `stop` and wake every parked thread. The notifies happen
    /// under the lock, so a thread that checked `stop` just before the
    /// store is already waiting when they fire.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _st = self.lock();
        self.work.notify_all();
        self.done.notify_all();
    }
}

/// A running daemon: listener thread + worker pool over shared state.
///
/// Dropping the handle hard-stops the daemon (listener and connections
/// close, workers exit after their current job) *without* draining the
/// queue — exactly the abrupt-exit path the journal recovery covers.
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    unreadable_journal_lines: usize,
}

impl Daemon {
    /// Start a daemon: open (or recover) the journal, bind the
    /// listener, spawn the workers.
    ///
    /// # Errors
    ///
    /// Journal lock conflicts (another daemon owns the state dir), a
    /// torn, unreadable or newer-version journal header, and socket
    /// bind failures.
    pub fn start(cfg: DaemonConfig) -> Result<Daemon, String> {
        let (state, unreadable_journal_lines) = recover(&cfg.state_dir)?;
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| format!("binding {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;

        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work: Condvar::new(),
            done: Condvar::new(),
            stop: AtomicBool::new(false),
            cfg,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || listen_loop(&shared, &listener))
        };
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Daemon {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
            unreadable_journal_lines,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many complete journal lines the start could not read and
    /// skipped (they stay in the file).
    pub fn unreadable_journal_lines(&self) -> usize {
        self.unreadable_journal_lines
    }

    /// Block until a drain has been requested — over the wire (a
    /// `drain` request) or by a prior [`Daemon::drain_and_wait`] — or
    /// `timeout` passes; returns whether one has. The binary sits here
    /// between looks at its signal flag, so a wire-initiated drain ends
    /// the process at once.
    pub fn wait_drain_requested(&self, timeout: Duration) -> bool {
        self.shared.wait_done(timeout, |st| st.draining).draining
    }

    /// Stop admissions and block until every accepted job has finished
    /// — each bounded by its mandatory budget, so the wait is too.
    /// The journal is flushed line-by-line as jobs complete; when this
    /// returns it is complete and consistent.
    pub fn drain_and_wait(&self) {
        let mut st = self.shared.lock();
        st.draining = true;
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        while !(st.queue.is_empty() && st.running == 0) {
            st = self.shared.repaired(guard(self.shared.done.wait(st)));
        }
    }

    /// Hard-stop without draining (queued jobs stay journaled for the
    /// next start) and join all threads, connection threads included:
    /// when this returns nothing holds the state directory's lock.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop();
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor is blocked in `accept`: hand it a connection
            // to return with. It sees `stop` and exits without serving
            // it. If the wake cannot get through (a full backlog), the
            // thread is detached rather than joined — a hang here would
            // be worse than a listener that exits at its next
            // connection.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let woken = match TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
                Ok(_) => true,
                // Nothing listens there any more: a client's connection
                // woke the acceptor first and it is already on its way
                // out.
                Err(e) => e.kind() == std::io::ErrorKind::ConnectionRefused,
            };
            if woken {
                let _ = acceptor.join();
            }
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // With the acceptor gone the registry is final. `Read`, not
        // `Both`: a thread parked in `read` gets end-of-input and exits,
        // while one in the middle of a reply (the `draining` ack that
        // set the binary's exit in motion) still delivers it. A peer
        // that will not read its reply holds the join for at most the
        // 30 s write timeout.
        let conns = std::mem::take(&mut self.shared.lock().conns);
        for (stream, thread) in conns {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = thread.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn listen_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            // Either the failure consumed the connection (it was
            // aborted in the backlog) or it is still there (out of
            // descriptors) and the next `accept` fails the same way
            // until a connection closes: give the threads that can
            // close one the processor.
            std::thread::yield_now();
            continue;
        };
        let mut st = shared.lock();
        if st.open_connections() >= MAX_CONNECTIONS {
            drop(st);
            // Answered from this thread: a refusal must not cost what
            // it refuses. One short line into an empty send buffer
            // cannot block.
            let _ = send(
                &stream,
                &Response::Error {
                    kind: "too_many_connections".into(),
                    message: format!("{MAX_CONNECTIONS} connections are already open"),
                },
            );
            continue;
        }
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        // One thread per connection, alive until the peer closes, goes
        // quiet for 30 s, or the daemon stops. If the thread cannot be
        // had the connection is dropped and the peer sees it close.
        let shared = Arc::clone(shared);
        let spawned =
            std::thread::Builder::new().spawn(move || handle_connection(&shared, stream));
        if let Ok(thread) = spawned {
            st.connections += 1;
            st.conns.push((peer, thread));
        }
    }
}

/// Write one response line.
fn send(mut stream: &TcpStream, response: &Response) -> std::io::Result<()> {
    let mut out = response.to_line();
    out.push('\n');
    stream.write_all(out.as_bytes())
}

/// Ends the connection when its thread is done with it, however the
/// thread ends. The registry's handle is a second descriptor on the same
/// socket, so dropping the thread's alone would close nothing: the peer
/// would go on writing to a connection no one reads.
struct HangUp(TcpStream);

impl Drop for HangUp {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let stream = HangUp(stream);
    let stream = &stream.0;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    // A reply is one small write the peer is blocked on: send it now.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells a line that fits from one that
        // does not; `take` keeps the buffer from growing beyond that.
        let mut capped = reader.by_ref().take(MAX_LINE_BYTES + 1);
        match capped.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let too_long = line.len() as u64 > MAX_LINE_BYTES && !line.ends_with(b"\n");
        let response = if too_long {
            Response::Error {
                kind: "line_too_long".into(),
                message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            }
        } else {
            let Ok(text) = std::str::from_utf8(&line) else {
                return;
            };
            if text.trim().is_empty() {
                continue;
            }
            match Request::parse(text) {
                Some(req) => handle_request(shared, req),
                None => Response::Error {
                    kind: "bad_request".into(),
                    message: "unparsable request".into(),
                },
            }
        };
        // Reply first, wake a worker second. A woken worker can take this
        // thread's CPU, and one whose plan has a single worker runs the
        // job on its own thread without ever blocking: woken first, it
        // kept the `Accepted` of a 5 ms job back ≈ 2 ms on a 2-vCPU
        // host. The job is journalled and queued either way, and a wake
        // for a submit that queued nothing finds the queue empty.
        let queued = matches!(response, Response::Accepted { cached: false, .. });
        let sent = send(stream, &response);
        if queued {
            shared.work.notify_one();
        }
        if sent.is_err() {
            return;
        }
        if too_long {
            // Closing with input unread resets the connection and can
            // destroy the error before the peer reads it: stop sending,
            // discard a bounded rest of the flood, then close.
            let _ = stream.shutdown(Shutdown::Write);
            let linger = Some(Duration::from_secs(1));
            let _ = stream.set_read_timeout(linger);
            let _ = std::io::copy(&mut reader.take(MAX_LINE_BYTES), &mut std::io::sink());
            return;
        }
    }
}

/// What `result` answers for `job_id` — and `wait`, once it stops
/// waiting.
fn result_of(st: &State, job_id: String) -> Response {
    if let Some(result) = st.cache.get(&job_id) {
        return Response::JobResult {
            job_id,
            result: result.clone(),
        };
    }
    match st.jobs.get(&job_id) {
        Some(Job {
            state: JobState::Failed(e),
            ..
        }) => Response::Error {
            kind: "job_failed".into(),
            message: e.clone(),
        },
        Some(job) => Response::JobStatus {
            job_id,
            state: job.state.tag().to_string(),
        },
        None => Response::Error {
            kind: "not_found".into(),
            message: format!("no job {job_id}"),
        },
    }
}

fn handle_request(shared: &Arc<Shared>, req: Request) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Drain => {
            let mut st = shared.lock();
            st.draining = true;
            shared.work.notify_all();
            shared.done.notify_all();
            Response::Draining
        }
        Request::Stats => {
            let mut st = shared.lock();
            Response::Stats(ServiceStats {
                open_connections: st.open_connections() as u64,
                queued: st.queue.len() as u64,
                running: st.running as u64,
                done: st
                    .jobs
                    .values()
                    .filter(|j| matches!(j.state, JobState::Done | JobState::Failed(_)))
                    .count() as u64,
                rejected: st.rejected,
                cache_hits: st.cache_hits,
                draining: st.draining,
                connections: st.connections,
            })
        }
        Request::Status { job_id } => {
            let st = shared.lock();
            match st.jobs.get(&job_id) {
                Some(job) => Response::JobStatus {
                    job_id,
                    state: job.state.tag().to_string(),
                },
                None => Response::Error {
                    kind: "not_found".into(),
                    message: format!("no job {job_id}"),
                },
            }
        }
        Request::Result { job_id } => result_of(&shared.lock(), job_id),
        Request::Wait { job_id, wait_ms } => {
            let pending = |st: &State| {
                matches!(
                    st.jobs.get(&job_id).map(|job| &job.state),
                    Some(JobState::Queued | JobState::Running)
                )
            };
            let wait = Duration::from_millis(wait_ms.min(MAX_WAIT_MS));
            let st = shared.wait_done(wait, |st| !pending(st));
            result_of(&st, job_id)
        }
        Request::Submit { client, spec } => handle_submit(shared, client, spec),
    }
}

fn handle_submit(shared: &Arc<Shared>, client: String, mut spec: JobSpec) -> Response {
    // Mandatory budget: a spec that requests none runs under the
    // daemon's default, so no job can hold a worker unboundedly. The
    // substitution happens *before* hashing — the budget is part of
    // the job's identity.
    let requested = RunBudget {
        max_cycles: spec.budget_cycles,
        max_wall_ms: spec.budget_ms,
    };
    if requested.is_unlimited() {
        spec.budget_cycles = shared.cfg.default_budget.max_cycles;
        spec.budget_ms = shared.cfg.default_budget.max_wall_ms;
    }
    // Validate up front: a malformed spec is answered with its
    // structured engine error, not queued to fail later.
    let job_id = match spec.job_id() {
        Ok(id) => id,
        Err(e) => return Response::from_sim_error(&e),
    };

    let mut st = shared.lock();
    if st.cache.contains_key(&job_id) {
        st.cache_hits += 1;
        return Response::Accepted {
            job_id,
            cached: true,
        };
    }
    if let Some(job) = st.jobs.get(&job_id) {
        if matches!(job.state, JobState::Queued | JobState::Running) {
            // Idempotent duplicate: already on its way.
            return Response::Accepted {
                job_id,
                cached: false,
            };
        }
        if let JobState::Failed(e) = &job.state {
            return Response::Error {
                kind: "job_failed".into(),
                message: e.clone(),
            };
        }
    }
    let retry_after_ms = 50 * (st.queue.len() as u64 + 1);
    if st.draining {
        st.rejected += 1;
        return Response::Rejected {
            reason: "draining: admissions are closed".into(),
            retry_after_ms,
        };
    }
    if st.queue.len() >= shared.cfg.queue_depth {
        st.rejected += 1;
        return Response::Rejected {
            reason: format!("queue full (depth {})", shared.cfg.queue_depth),
            retry_after_ms,
        };
    }
    let inflight = st.inflight.get(&client).copied().unwrap_or(0);
    if inflight >= shared.cfg.per_client_inflight {
        st.rejected += 1;
        return Response::Rejected {
            reason: format!(
                "client {client:?} at in-flight cap ({})",
                shared.cfg.per_client_inflight
            ),
            retry_after_ms,
        };
    }
    // Journal *before* acknowledging: an accepted job survives a kill.
    let line = format!(
        "{{\"event\":\"accepted\",\"job_id\":\"{job_id}\",\"client\":\"{}\",\"spec\":{}}}",
        esc(&client),
        spec.to_json()
    );
    if let Err(e) = st.journal.append(line) {
        return Response::Error {
            kind: "io".into(),
            message: format!("journal append: {e}"),
        };
    }
    *st.inflight.entry(client.clone()).or_insert(0) += 1;
    st.jobs.insert(
        job_id.clone(),
        Job {
            spec,
            client,
            state: JobState::Queued,
        },
    );
    // The connection wakes a worker once this reply is on the wire.
    st.queue.push_back(job_id.clone());
    Response::Accepted {
        job_id,
        cached: false,
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (job_id, spec) = {
            let mut st = shared.lock();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    st.running += 1;
                    let job = st.jobs.get_mut(&id).expect("queued job has a record");
                    job.state = JobState::Running;
                    break (id, job.spec.clone());
                }
                if st.draining {
                    // Queue empty and no new admissions: drained.
                    shared.done.notify_all();
                }
                st = shared.repaired(guard(shared.work.wait(st)));
            }
        };

        let ckpt = shared
            .cfg
            .state_dir
            .join("jobs")
            .join(format!("{job_id}.ckpt.jsonl"));
        // Whole-job isolation around the (already per-point-isolated)
        // executor: a panic that escapes run_job retries with linear
        // backoff, then downgrades to a failed job — the worker
        // survives any single poisoned request.
        let mut attempt = 0u32;
        let outcome = loop {
            let res = catch_unwind(AssertUnwindSafe(|| {
                run_job(&spec, Some(ckpt.clone()), shared.cfg.job_threads)
            }));
            let reason = match res {
                Ok(Ok(result)) => break Ok(result),
                Ok(Err(e)) => e,
                Err(payload) => panic_reason(payload),
            };
            if attempt < JOB_RETRIES {
                attempt += 1;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "backoff between attempts at a job that just panicked: off the request path, and the pause is the point"
                )]
                std::thread::sleep(Duration::from_millis(10 * u64::from(attempt)));
                continue;
            }
            break Err(reason);
        };

        let mut st = shared.lock();
        let line = match &outcome {
            Ok(result) => {
                format!("{{\"event\":\"done\",\"job_id\":\"{job_id}\",\"result\":{result}}}")
            }
            Err(e) => format!(
                "{{\"event\":\"failed\",\"job_id\":\"{job_id}\",\"error\":\"{}\"}}",
                esc(e)
            ),
        };
        // A journal write failure must not wedge the daemon: the job
        // still completes in memory (it will rerun after a restart).
        let _ = st.journal.append(line);
        if let Some(job) = st.jobs.get_mut(&job_id) {
            match outcome {
                Ok(result) => {
                    job.state = JobState::Done;
                    st.cache.insert(job_id.clone(), result);
                }
                Err(e) => job.state = JobState::Failed(e),
            }
            let client = st
                .jobs
                .get(&job_id)
                .map(|j| j.client.clone())
                .expect("job record exists");
            if let Some(n) = st.inflight.get_mut(&client) {
                *n = n.saturating_sub(1);
            }
            // The per-job checkpoint is complete; keep it (cheap, and
            // byte-identity audits can replay it) — but completed jobs
            // never reread it.
        }
        st.running -= 1;
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnet::service::ServiceClient;

    /// ROADMAP item 8(b): a thread that panics *while holding the state
    /// lock* — with a counter already moved and the rest of its update
    /// never made — costs the service nothing but that thread.
    #[test]
    fn a_panic_under_the_state_lock_leaves_the_service_serving() {
        let dir = std::env::temp_dir().join(format!("minnetd_unit_{}_poison", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            state_dir: dir.clone(),
            ..DaemonConfig::default()
        })
        .unwrap();
        let client = ServiceClient::new(daemon.addr().to_string());
        let spec = JobSpec {
            sizes: "fixed:32".into(),
            loads: vec![0.2],
            warmup: 300,
            measure: 2_000,
            budget_cycles: 100_000,
            ..JobSpec::default()
        };
        let Response::Accepted { job_id, .. } = client.submit("c1", &spec).unwrap() else {
            panic!("submit refused");
        };
        let result = client.wait_result(&job_id, Duration::from_secs(60)).unwrap();

        let shared = Arc::clone(&daemon.shared);
        let died = std::thread::spawn(move || {
            let mut st = shared.state.lock().unwrap();
            st.running += 1;
            *st.inflight.entry("c1".into()).or_insert(0) += 1;
            panic!("a bug under the state lock (this test's own)");
        })
        .join();
        assert!(died.is_err() && daemon.shared.state.is_poisoned());

        client.ping().unwrap();
        let status = client.status(&job_id).unwrap();
        assert!(matches!(status, Response::JobStatus { state, .. } if state == "done"));
        assert_eq!(client.wait_result(&job_id, Duration::from_secs(60)).unwrap(), result);
        let stats = client.stats().unwrap();
        assert_eq!((stats.running, stats.done), (0, 1), "`running` was not recounted");
        assert_eq!(daemon.shared.lock().inflight.get("c1"), None, "`inflight` was not recounted");
        assert!(!daemon.shared.state.is_poisoned());
        // Still a working service, not just an answering one.
        let next = JobSpec { seed: 2, ..spec };
        let Response::Accepted { job_id, .. } = client.submit("c1", &next).unwrap() else {
            panic!("submit refused after the panic");
        };
        client.wait_result(&job_id, Duration::from_secs(60)).unwrap();
        assert_eq!(client.drain().unwrap(), Response::Draining);
        daemon.drain_and_wait();
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
