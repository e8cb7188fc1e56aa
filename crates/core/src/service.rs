//! The `minnetd` wire protocol, job model, and client.
//!
//! The simulation service splits across two crates: this module holds
//! everything both sides of the wire share — the [`JobSpec`] job
//! description, the JSON-lines request/response protocol, the
//! [`ServiceClient`] the `minnet submit|status|result|drain`
//! subcommands use, and [`run_job`], the deterministic job executor —
//! while `crates/daemon` holds the server (queue, admission control,
//! journal, recovery). The split keeps the dependency arrow pointing
//! one way (`minnetd` → `minnet`) and lets the CLI talk to the daemon
//! without a third protocol crate.
//!
//! ## Protocol
//!
//! One JSON object per line, one request per line, one response line
//! back, any number of requests over one connection. Requests carry an
//! `"op"`; responses carry a `"status"`:
//!
//! ```text
//! → {"op":"submit","client":"bench-0","spec":{…}}
//! ← {"status":"accepted","job_id":"91c3…","cached":false}
//! ← {"status":"rejected","reason":"queue full …","retry_after_ms":150}
//! → {"op":"status","job_id":"91c3…"}
//! ← {"status":"job","job_id":"91c3…","state":"running"}
//! → {"op":"result","job_id":"91c3…"}
//! ← {"status":"result","job_id":"91c3…","result":{…}}
//! → {"op":"wait","job_id":"91c3…","wait_ms":5000}
//! ← what `result` answers, once the job has finished or 5 s have passed
//! → {"op":"stats"} / {"op":"drain"} / {"op":"ping"}
//! ← {"status":"error","kind":"config","message":"…"}
//! ```
//!
//! Errors cross the wire as structured `{kind, message}` pairs derived
//! from [`SimError`] variants (see [`error_kind`]) — possible because
//! the engine's error surface is fully typed (the `From<String> for
//! SimError` shim is gone).
//!
//! ## Determinism contract
//!
//! A job's identity is the FNV config hash of its compiled experiment
//! plus the load grid / retry / chaos knobs — the same hash family the
//! campaign checkpoints use. [`run_job`] serializes its result with the
//! campaign's bit-exact float encoding (`f64::to_bits`), so an
//! identical spec always produces **byte-identical** result JSON:
//! cache hits, journal replays, and post-crash recoveries are all
//! comparable with `==` on the raw bytes.

use crate::campaign::{config_hash, run_plan, task_line, task_seed, CampaignPolicy};
use crate::experiment::Experiment;
use crate::jsonl::{self, esc, Obj};
use crate::spec;
use minnet_sim::SimError;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Result document version (the `"v"` in every result JSON).
pub const RESULT_VERSION: u64 = 1;

// ---- job specification -----------------------------------------------

/// A simulation job: one latency-throughput curve over a load grid.
///
/// The flat, string-tagged form mirrors the `minnet` CLI options so the
/// client subcommands translate directly; [`JobSpec::to_experiment`]
/// turns it into the typed [`Experiment`] and is where validation
/// happens (as structured [`SimError::Config`] values, ready for the
/// wire).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Network design: `tmin` | `dmin` | `vmin` | `bmin`.
    pub network: String,
    /// Unidirectional wiring: `cube` | `butterfly` | `omega` | `baseline`.
    pub wiring: String,
    /// DMIN dilation.
    pub dilation: u8,
    /// VMIN virtual channels.
    pub vcs: u8,
    /// Switch radix.
    pub k: u32,
    /// Stages (`k^n` terminals).
    pub n: u32,
    /// Traffic pattern: `uniform` | `shuffle` | `hotspot:<extra>` |
    /// `butterfly:<i>`, as [`spec::parse_pattern`] reads it.
    pub pattern: String,
    /// Message sizes: `paper` | `fixed:<flits>` |
    /// `bimodal:<short>,<long>,<p_short>`, as [`spec::parse_sizes`] reads
    /// them.
    pub sizes: String,
    /// Offered loads (flits/cycle/node), one curve point each.
    pub loads: Vec<f64>,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Base seed for the per-point seed grid.
    pub seed: u64,
    /// Cycle budget per point (0 = none requested; the daemon
    /// substitutes its mandatory default).
    pub budget_cycles: u64,
    /// Wall-clock budget per point in ms (0 = none requested).
    pub budget_ms: u64,
    /// Same-point retries after a panic or engine error.
    pub retries: u32,
    /// Chaos knob: panic the first N attempts of every point, so the
    /// per-job isolation and derived-seed retry ladder can be exercised
    /// deterministically over the wire. 0 in production.
    pub chaos_panic_attempts: u32,
}

impl Default for JobSpec {
    /// The paper's default experiment at CLI-default windows.
    fn default() -> JobSpec {
        JobSpec {
            network: "tmin".into(),
            wiring: "cube".into(),
            dilation: 2,
            vcs: 2,
            k: 4,
            n: 3,
            pattern: "uniform".into(),
            sizes: "paper".into(),
            loads: (1..=9).map(|i| f64::from(i) / 10.0).collect(),
            warmup: 20_000,
            measure: 100_000,
            seed: minnet_sim::EngineConfig::default().seed,
            budget_cycles: 0,
            budget_ms: 0,
            retries: 0,
            chaos_panic_attempts: 0,
        }
    }
}

impl JobSpec {
    /// Build the typed experiment this spec describes.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the offending field — the structured
    /// form the daemon serializes back over the wire.
    pub fn to_experiment(&self) -> Result<Experiment, SimError> {
        // Refused here, before the daemon journals the job: a value no
        // run can use (`fixed:0`, `k = 300`) used to be accepted and
        // then fail every retry.
        let field = |name: &'static str| move |e: String| SimError::Config(format!("{name}: {e}"));
        let wiring = spec::parse_wiring(&self.wiring).map_err(field("wiring"))?;
        let network = spec::parse_network(&self.network, wiring, self.dilation, self.vcs)
            .map_err(field("network"))?;
        let pattern = spec::parse_pattern(&self.pattern).map_err(field("pattern"))?;
        let sizes = spec::parse_sizes(&self.sizes).map_err(field("sizes"))?;
        let geometry = spec::geometry(self.k, self.n).map_err(SimError::Config)?;
        if self.loads.is_empty() {
            return Err(SimError::Config("a job needs at least one load point".into()));
        }
        for &l in &self.loads {
            spec::check_load(l).map_err(field("loads"))?;
        }
        let mut exp = Experiment {
            geometry,
            pattern,
            sizes,
            ..Experiment::paper_default(network)
        };
        exp.sim.warmup = self.warmup;
        exp.sim.measure = self.measure;
        exp.sim.seed = self.seed;
        exp.sim.budget.max_cycles = self.budget_cycles;
        exp.sim.budget.max_wall_ms = self.budget_ms;
        // The network's lane count was checked with it; `exp.sim.vcs`
        // stays at its default (the identity hash covers it).
        exp.sim.validate()?;
        Ok(exp)
    }

    /// The FNV config hash identifying this job — the result-cache and
    /// journal key. Same hash family as the campaign checkpoints: the
    /// full experiment (`Debug` covers geometry, network, workload and
    /// engine config including seed and budget) plus the bit-exact load
    /// grid and the retry/chaos knobs.
    pub fn job_hash(&self) -> Result<u64, SimError> {
        let exp = self.to_experiment()?;
        let bits: Vec<u64> = self.loads.iter().map(|l| l.to_bits()).collect();
        Ok(config_hash(
            "service_curve",
            &exp,
            &format!("loads{bits:?}/chaos{}", self.chaos_panic_attempts),
            self.retries,
        ))
    }

    /// [`JobSpec::job_hash`] rendered as the wire-format job id.
    pub fn job_id(&self) -> Result<String, SimError> {
        Ok(format!("{:016x}", self.job_hash()?))
    }

    /// Canonical single-line JSON encoding (loads as `f64::to_bits`
    /// patterns — the spec must survive journal round trips without
    /// perturbing the job hash).
    pub fn to_json(&self) -> String {
        let mut loads = String::new();
        jsonl::array(&mut loads, &self.loads, |s, l| {
            let _ = write!(s, "\"{}\"", l.to_bits());
        });
        format!(
            "{{\"network\":\"{}\",\"wiring\":\"{}\",\"dilation\":{},\"vcs\":{},\
             \"k\":{},\"n\":{},\"pattern\":\"{}\",\"sizes\":\"{}\",\
             \"loads_bits\":{loads},\"warmup\":{},\"measure\":{},\"seed\":{},\
             \"budget_cycles\":{},\"budget_ms\":{},\"retries\":{},\"chaos\":{}}}",
            esc(&self.network),
            esc(&self.wiring),
            self.dilation,
            self.vcs,
            self.k,
            self.n,
            esc(&self.pattern),
            esc(&self.sizes),
            self.warmup,
            self.measure,
            self.seed,
            self.budget_cycles,
            self.budget_ms,
            self.retries,
            self.chaos_panic_attempts,
        )
    }

    /// Parse a spec from its JSON object — the `"spec"` value of a
    /// submit request or journal line. `None` marks a malformed spec.
    pub fn from_json(json: &str) -> Option<JobSpec> {
        let o = Obj::parse(json)?;
        Some(JobSpec {
            network: o.str("network")?,
            wiring: o.str("wiring")?,
            dilation: u8::try_from(o.u64("dilation")?).ok()?,
            vcs: u8::try_from(o.u64("vcs")?).ok()?,
            k: u32::try_from(o.u64("k")?).ok()?,
            n: u32::try_from(o.u64("n")?).ok()?,
            pattern: o.str("pattern")?,
            sizes: o.str("sizes")?,
            loads: o.bits_array("loads_bits")?,
            warmup: o.u64("warmup")?,
            measure: o.u64("measure")?,
            seed: o.u64("seed")?,
            budget_cycles: o.u64("budget_cycles")?,
            budget_ms: o.u64("budget_ms")?,
            retries: u32::try_from(o.u64("retries")?).ok()?,
            chaos_panic_attempts: u32::try_from(o.u64("chaos")?).ok()?,
        })
    }
}

// ---- job execution ---------------------------------------------------

/// Run one job to its canonical result JSON — the deterministic core
/// the daemon's workers (and recovery path) execute.
///
/// A job is one plan of the experiment runner in [`crate::campaign`]:
/// per-point panic isolation on a worker-owned `EngineState`,
/// derived-seed retries (`mix(seed, 0x5245_7452 + attempt)`), budget
/// cuts as `partial` outcomes, and — when `checkpoint` is set — the
/// versioned JSONL checkpoint with torn-tail truncation, so a job
/// killed mid-curve resumes from its completed points and still
/// produces **byte-identical** result JSON.
///
/// The chaos knob panics the first `chaos_panic_attempts` attempts of
/// every point before the real run, which exercises the isolation and
/// retry ladder without special-casing the execution path.
///
/// # Errors
///
/// Configuration problems and checkpoint I/O only — runtime failures
/// (panics, watchdog trips, budget cuts) become per-point outcome
/// annotations inside the result.
pub fn run_job(
    spec: &JobSpec,
    checkpoint: Option<PathBuf>,
    threads: usize,
) -> Result<String, String> {
    let exp = spec.to_experiment().map_err(String::from)?;
    let compiled = exp.compile()?;
    let base = compiled.base_seed();
    let hash = spec.job_hash().map_err(String::from)?;
    let policy = CampaignPolicy {
        retries: spec.retries,
        checkpoint,
        require_existing: false,
    };
    let chaos = spec.chaos_panic_attempts;
    let results = run_plan(
        "service_curve",
        hash,
        spec.loads.len(),
        threads,
        &policy,
        |i, attempt, st| {
            if attempt < chaos {
                panic!("chaos: injected panic at point {i} attempt {attempt}");
            }
            compiled.run(spec.loads[i], task_seed(base, i, attempt), st)
        },
    )?;
    let points = results
        .iter()
        .enumerate()
        .map(|(i, (outcome, attempts))| task_line(i, *attempts, outcome))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = format!("{{\"v\":{RESULT_VERSION},\"job_id\":\"{hash:016x}\",\"points\":");
    jsonl::array(&mut out, points, |s, point| s.push_str(&point));
    out.push('}');
    Ok(out)
}

// ---- structured errors -----------------------------------------------

/// The wire `kind` tag of a [`SimError`] variant.
pub fn error_kind(e: &SimError) -> &'static str {
    match e {
        SimError::Config(_) => "config",
        SimError::GeometryMismatch { .. } => "geometry_mismatch",
        SimError::Routing(_) => "routing",
        SimError::Fault(_) => "fault",
        SimError::NoProgress(_) => "no_progress",
        SimError::BudgetExceeded(_) => "budget_exceeded",
        SimError::Internal { .. } => "internal",
    }
}

// ---- requests --------------------------------------------------------

/// One client request, one line on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job for execution (or cache lookup).
    Submit {
        /// Client identity for the per-client in-flight cap.
        client: String,
        /// The job.
        spec: JobSpec,
    },
    /// Query a job's state.
    Status {
        /// The job id from the accept response.
        job_id: String,
    },
    /// Fetch a finished job's result JSON.
    Result {
        /// The job id from the accept response.
        job_id: String,
    },
    /// [`Request::Result`], answered once the job has left `queued` /
    /// `running` or `wait_ms` (the daemon caps it at 30 s) have passed:
    /// the connection waits at the daemon, not by asking again.
    Wait {
        /// The job id from the accept response.
        job_id: String,
        /// Longest the daemon may hold the answer back.
        wait_ms: u64,
    },
    /// Daemon counters (queue depth, outcomes, cache hits).
    Stats,
    /// Stop admissions and finish in-flight work.
    Drain,
    /// Liveness probe.
    Ping,
}

impl Request {
    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit { client, spec } => format!(
                "{{\"op\":\"submit\",\"client\":\"{}\",\"spec\":{}}}",
                esc(client),
                spec.to_json()
            ),
            Request::Status { job_id } => {
                format!("{{\"op\":\"status\",\"job_id\":\"{}\"}}", esc(job_id))
            }
            Request::Result { job_id } => {
                format!("{{\"op\":\"result\",\"job_id\":\"{}\"}}", esc(job_id))
            }
            Request::Wait { job_id, wait_ms } => format!(
                "{{\"op\":\"wait\",\"job_id\":\"{}\",\"wait_ms\":{wait_ms}}}",
                esc(job_id)
            ),
            Request::Stats => "{\"op\":\"stats\"}".to_string(),
            Request::Drain => "{\"op\":\"drain\"}".to_string(),
            Request::Ping => "{\"op\":\"ping\"}".to_string(),
        }
    }

    /// Parse one wire line; `None` marks a malformed request.
    pub fn parse(line: &str) -> Option<Request> {
        let o = Obj::parse(line)?;
        match o.str("op")?.as_str() {
            "submit" => Some(Request::Submit {
                client: o.str("client")?,
                spec: JobSpec::from_json(o.raw("spec")?)?,
            }),
            "status" => Some(Request::Status {
                job_id: o.str("job_id")?,
            }),
            "result" => Some(Request::Result {
                job_id: o.str("job_id")?,
            }),
            "wait" => Some(Request::Wait {
                job_id: o.str("job_id")?,
                wait_ms: o.u64("wait_ms")?,
            }),
            "stats" => Some(Request::Stats),
            "drain" => Some(Request::Drain),
            "ping" => Some(Request::Ping),
            _ => None,
        }
    }
}

// ---- responses -------------------------------------------------------

/// Daemon counters reported by [`Request::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted but not yet started.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs finished (result available).
    pub done: u64,
    /// Submissions rejected by admission control since start.
    pub rejected: u64,
    /// Submissions served from the result cache since start.
    pub cache_hits: u64,
    /// Whether the daemon has stopped admitting work.
    pub draining: bool,
    /// Connections served since start.
    pub connections: u64,
    /// Connections open now (this request's own included).
    pub open_connections: u64,
}

/// One daemon response, one line on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job was admitted (or already known / already cached).
    Accepted {
        /// Identity for status/result polling.
        job_id: String,
        /// The result is already available from the cache.
        cached: bool,
    },
    /// Admission control refused the job; try again later.
    Rejected {
        /// Why (queue full, client cap, draining).
        reason: String,
        /// Backpressure hint.
        retry_after_ms: u64,
    },
    /// A job's current state: `queued` | `running` | `done` | `failed`.
    JobStatus {
        /// The queried job.
        job_id: String,
        /// State tag.
        state: String,
    },
    /// A finished job's canonical result JSON (raw object).
    JobResult {
        /// The queried job.
        job_id: String,
        /// Byte-exact result document.
        result: String,
    },
    /// Daemon counters.
    Stats(ServiceStats),
    /// Drain acknowledged.
    Draining,
    /// Liveness reply.
    Pong,
    /// A structured error ([`error_kind`] tags plus `not_found` /
    /// `job_failed` / `bad_request` / `line_too_long` /
    /// `too_many_connections` / `io` for service-level failures).
    Error {
        /// Machine-readable failure class.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The structured form of a typed engine error.
    pub fn from_sim_error(e: &SimError) -> Response {
        Response::Error {
            kind: error_kind(e).to_string(),
            message: e.to_string(),
        }
    }

    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Accepted { job_id, cached } => format!(
                "{{\"status\":\"accepted\",\"job_id\":\"{}\",\"cached\":{cached}}}",
                esc(job_id)
            ),
            Response::Rejected {
                reason,
                retry_after_ms,
            } => format!(
                "{{\"status\":\"rejected\",\"reason\":\"{}\",\"retry_after_ms\":{retry_after_ms}}}",
                esc(reason)
            ),
            Response::JobStatus { job_id, state } => format!(
                "{{\"status\":\"job\",\"job_id\":\"{}\",\"state\":\"{}\"}}",
                esc(job_id),
                esc(state)
            ),
            Response::JobResult { job_id, result } => format!(
                "{{\"status\":\"result\",\"job_id\":\"{}\",\"result\":{result}}}",
                esc(job_id)
            ),
            Response::Stats(s) => format!(
                "{{\"status\":\"stats\",\"queued\":{},\"running\":{},\"done\":{},\
                 \"rejected\":{},\"cache_hits\":{},\"draining\":{},\
                 \"connections\":{},\"open_connections\":{}}}",
                s.queued,
                s.running,
                s.done,
                s.rejected,
                s.cache_hits,
                s.draining,
                s.connections,
                s.open_connections
            ),
            Response::Draining => "{\"status\":\"draining\"}".to_string(),
            Response::Pong => "{\"status\":\"pong\"}".to_string(),
            Response::Error { kind, message } => format!(
                "{{\"status\":\"error\",\"kind\":\"{}\",\"message\":\"{}\"}}",
                esc(kind),
                esc(message)
            ),
        }
    }

    /// Parse one wire line; `None` marks a malformed response.
    pub fn parse(line: &str) -> Option<Response> {
        let o = Obj::parse(line)?;
        match o.str("status")?.as_str() {
            "accepted" => Some(Response::Accepted {
                job_id: o.str("job_id")?,
                cached: o.bool("cached")?,
            }),
            "rejected" => Some(Response::Rejected {
                reason: o.str("reason")?,
                retry_after_ms: o.u64("retry_after_ms")?,
            }),
            "job" => Some(Response::JobStatus {
                job_id: o.str("job_id")?,
                state: o.str("state")?,
            }),
            "result" => Some(Response::JobResult {
                job_id: o.str("job_id")?,
                result: o.raw("result")?.to_string(),
            }),
            "stats" => Some(Response::Stats(ServiceStats {
                queued: o.u64("queued")?,
                running: o.u64("running")?,
                done: o.u64("done")?,
                rejected: o.u64("rejected")?,
                cache_hits: o.u64("cache_hits")?,
                draining: o.bool("draining")?,
                connections: o.u64("connections")?,
                open_connections: o.u64("open_connections")?,
            })),
            "draining" => Some(Response::Draining),
            "pong" => Some(Response::Pong),
            "error" => Some(Response::Error {
                kind: o.str("kind")?,
                message: o.str("message")?,
            }),
            _ => None,
        }
    }
}

// ---- client ----------------------------------------------------------

/// A blocking client for the `minnetd` wire protocol — what the
/// `minnet submit|status|result|drain` subcommands, the benchmark, and
/// the integration tests use.
///
/// The first request connects; later ones reuse the connection, one
/// request in flight at a time. If a *reused* connection fails — the
/// daemon drops one that has been quiet for 30 s — the client connects
/// afresh and sends the request once more, which is safe because every
/// request is idempotent (a `submit` by its config-hash job id). A
/// failure on a fresh connection is returned. A clone starts
/// unconnected.
pub struct ServiceClient {
    addr: String,
    timeout: Duration,
    conn: Mutex<Option<BufReader<TcpStream>>>,
}

impl Clone for ServiceClient {
    fn clone(&self) -> ServiceClient {
        ServiceClient::new(self.addr.clone()).with_timeout(self.timeout)
    }
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("addr", &self.addr)
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

impl ServiceClient {
    /// A client for the daemon at `addr` (`host:port`) with a 30 s
    /// per-request timeout. Nothing connects until the first request.
    pub fn new(addr: impl Into<String>) -> ServiceClient {
        ServiceClient {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
            conn: Mutex::new(None),
        }
    }

    /// Override the per-request timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> ServiceClient {
        self.timeout = timeout;
        self
    }

    fn connect(&self) -> Result<BufReader<TcpStream>, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("connecting to {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
            // A request is one small write the daemon is blocked on.
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("configuring socket: {e}"))?;
        Ok(BufReader::new(stream))
    }

    /// One line out, one line back.
    fn exchange(&self, conn: &mut BufReader<TcpStream>, line: &str) -> Result<String, String> {
        conn.get_mut()
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending to {}: {e}", self.addr))?;
        let mut reply = String::new();
        conn.read_line(&mut reply)
            .map_err(|e| format!("reading from {}: {e}", self.addr))?;
        if reply.is_empty() {
            return Err(format!("daemon at {} closed the connection", self.addr));
        }
        Ok(reply)
    }

    /// Send one request and parse the response line.
    ///
    /// # Errors
    ///
    /// Connection/transport failures and unparsable responses, as
    /// human-readable strings; protocol-level failures arrive as
    /// [`Response::Error`] / [`Response::Rejected`] values, not `Err`.
    pub fn request(&self, req: &Request) -> Result<Response, String> {
        let mut line = req.to_line();
        line.push('\n');
        let parse = |reply: String| {
            Response::parse(reply.trim_end())
                .ok_or_else(|| format!("unparsable response: {}", reply.trim_end()))
        };
        // The slot is emptied while its connection is in use, so a
        // panic mid-exchange leaves `None`: safe to use after poison.
        let mut slot = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(mut kept) = slot.take() {
            if let Ok(reply) = self.exchange(&mut kept, &line) {
                *slot = Some(kept);
                return parse(reply);
            }
        }
        let mut fresh = self.connect()?;
        let reply = self.exchange(&mut fresh, &line)?;
        *slot = Some(fresh);
        parse(reply)
    }

    /// Submit a job under the given client identity.
    pub fn submit(&self, client: &str, spec: &JobSpec) -> Result<Response, String> {
        self.request(&Request::Submit {
            client: client.to_string(),
            spec: spec.clone(),
        })
    }

    /// Query a job's state.
    pub fn status(&self, job_id: &str) -> Result<Response, String> {
        self.request(&Request::Status {
            job_id: job_id.to_string(),
        })
    }

    /// Fetch a finished job's result.
    pub fn result(&self, job_id: &str) -> Result<Response, String> {
        self.request(&Request::Result {
            job_id: job_id.to_string(),
        })
    }

    /// Fetch the daemon counters.
    pub fn stats(&self) -> Result<ServiceStats, String> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("expected stats, got {other:?}")),
        }
    }

    /// Ask the daemon to stop admissions and finish in-flight work.
    pub fn drain(&self) -> Result<Response, String> {
        self.request(&Request::Drain)
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), String> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }

    /// Wait — at the daemon, through [`Request::Wait`] — until the job
    /// leaves the queue/run states, and return its raw result JSON.
    ///
    /// # Errors
    ///
    /// Transport failures, a `failed` job (its structured error,
    /// rendered), or `deadline` expiring first.
    pub fn wait_result(&self, job_id: &str, deadline: Duration) -> Result<String, String> {
        let start = Instant::now();
        loop {
            // Each wait ends well inside the socket's read timeout, so
            // a long job is never mistaken for a dead connection.
            let left = deadline.saturating_sub(start.elapsed());
            let slice = left.min(self.timeout / 2);
            // Rounded up: a last sub-millisecond is waited out, not spun.
            let wait_ms = u64::try_from(slice.as_millis()).map_or(u64::MAX, |ms| ms + 1);
            let waited = self.request(&Request::Wait {
                job_id: job_id.to_string(),
                wait_ms,
            })?;
            match waited {
                Response::JobResult { result, .. } => return Ok(result),
                Response::JobStatus { state, .. }
                    if state == "queued" || state == "running" =>
                {
                    if start.elapsed() > deadline {
                        return Err(format!("job {job_id} still {state} after {deadline:?}"));
                    }
                }
                Response::Error { kind, message } => {
                    return Err(format!("job {job_id} failed ({kind}): {message}"))
                }
                other => return Err(format!("unexpected result response: {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetworkSpec;
    use minnet_traffic::MessageSizeDist;

    fn quick_spec() -> JobSpec {
        JobSpec {
            sizes: "fixed:32".into(),
            loads: vec![0.15, 0.3],
            warmup: 500,
            measure: 3_000,
            seed: 7,
            budget_cycles: 100_000,
            ..JobSpec::default()
        }
    }

    #[test]
    fn spec_json_round_trips_bitwise() {
        let mut spec = quick_spec();
        spec.loads = vec![0.1, 1.0 / 3.0, 0.65];
        spec.pattern = "hotspot:0.05".into();
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        // The hash (job identity) survives the round trip exactly.
        assert_eq!(spec.job_hash().unwrap(), back.job_hash().unwrap());
    }

    /// The `config_hash` in the header of the checkpoint `run` writes.
    fn header_hash(tag: &str, run: impl FnOnce(&CampaignPolicy)) -> String {
        let path = std::env::temp_dir().join(format!(
            "minnet_identity_{}_{tag}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        run(&CampaignPolicy {
            checkpoint: Some(path.clone()),
            ..CampaignPolicy::default()
        });
        let header = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        Obj::parse(header.lines().next().unwrap()).unwrap().str("config_hash").unwrap()
    }

    /// Identity v1 is a data format: these hashes key every checkpoint
    /// header, journal line and job id already on disk. They cover the
    /// `Debug` text of `Experiment`, so renaming, reordering or dropping
    /// a field anywhere under it lands here — and, for every campaign
    /// kind, the `params` string its curve function formats, so a
    /// drifted separator lands here too. The literals were recorded at
    /// the commit before the curves moved onto the one plan runner.
    #[test]
    fn identity_hashes_are_pinned() {
        assert_eq!(JobSpec::default().job_id().unwrap(), "06cdfb50362b750d");
        let vmin = JobSpec {
            network: "vmin".into(),
            vcs: 2,
            budget_cycles: 250_000,
            ..quick_spec()
        };
        assert_eq!(vmin.job_id().unwrap(), "5213f11348604871");
        let chaotic = JobSpec {
            retries: 2,
            chaos_panic_attempts: 1,
            ..quick_spec()
        };
        assert_eq!(chaotic.job_id().unwrap(), "ca044bfbc8f7578a");
        let exp = Experiment::paper_default(NetworkSpec::Bmin);
        let loads = [0.1, 0.5];
        assert_eq!(
            format!("{:016x}", config_hash("curve", &exp, &format!("{loads:?}"), 0)),
            "728495952c81ef19"
        );

        let mut exp = Experiment::paper_default(NetworkSpec::tmin());
        exp.sizes = MessageSizeDist::Fixed(32);
        exp.sim.warmup = 500;
        exp.sim.measure = 4_000;
        let replicated = header_hash("replicated", |policy| {
            crate::campaign_replicated_curve(&exp, &[0.1, 0.3], 3, 2, policy).unwrap();
        });
        assert_eq!(replicated, "c06593f333b21575");
        let degradation = header_hash("degradation", |policy| {
            let policy = CampaignPolicy {
                retries: 1,
                ..policy.clone()
            };
            crate::campaign_degradation_curve(&exp, 0.2, &[0, 1], 2, 2, &policy).unwrap();
        });
        assert_eq!(degradation, "35cbd01b1ded12b1");
        let scenario = header_hash("scenario", |policy| {
            let text = "name = pinned\nsizes = fixed:32\nwarmup = 500\nmeasure = 3000\n\
                        loads = 0.1, 0.2\nfault = channel 7 @ 100..500\nexpect.delivery = 0.5\n";
            crate::Scenario::parse(text, "pinned.scn").unwrap().run(2, policy).unwrap();
        });
        assert_eq!(scenario, "85e4df5a94a3495b");
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                client: "c\"1".into(),
                spec: quick_spec(),
            },
            Request::Status {
                job_id: "abc123".into(),
            },
            Request::Result {
                job_id: "abc123".into(),
            },
            Request::Wait {
                job_id: "abc123".into(),
                wait_ms: 2_500,
            },
            Request::Stats,
            Request::Drain,
            Request::Ping,
        ];
        for r in reqs {
            let back = Request::parse(&r.to_line()).unwrap();
            assert_eq!(r, back);
        }
    }

    /// Lines a standard JSON encoder writes: any whitespace, escaped
    /// non-BMP characters, and keys of a nested object that repeat a
    /// top-level key.
    #[test]
    fn standard_encoder_lines_parse() {
        assert_eq!(Request::parse("{\"op\" : \"ping\"}"), Some(Request::Ping));
        assert_eq!(Request::parse("{\"op\":  \"ping\"}"), Some(Request::Ping));
        let submit = format!(
            "{{\"op\":\"submit\",\"client\":\"\\ud83d\\ude00\",\"spec\":{}}}",
            quick_spec().to_json()
        );
        let Some(Request::Submit { client, spec }) = Request::parse(&submit) else {
            panic!("escaped client refused: {submit}");
        };
        assert_eq!((client.as_str(), spec), ("\u{1f600}", quick_spec()));
        let nested =
            "{\"op\":\"wait\",\"x\":{\"job_id\":\"inner\"},\"job_id\":\"outer\",\"wait_ms\":5}";
        assert_eq!(
            Request::parse(nested),
            Some(Request::Wait {
                job_id: "outer".into(),
                wait_ms: 5
            })
        );
        let spaced = "{ \"status\" : \"accepted\" , \"job_id\" : \"x\" , \"cached\" : true }";
        assert_eq!(
            Response::parse(spaced),
            Some(Response::Accepted {
                job_id: "x".into(),
                cached: true
            })
        );
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Accepted {
                job_id: "x".into(),
                cached: true,
            },
            Response::Rejected {
                reason: "queue full (depth 4)".into(),
                retry_after_ms: 150,
            },
            Response::JobStatus {
                job_id: "x".into(),
                state: "running".into(),
            },
            Response::JobResult {
                job_id: "x".into(),
                result: "{\"v\":1,\"job_id\":\"x\",\"points\":[{\"task\":0}]}".into(),
            },
            Response::Stats(ServiceStats {
                queued: 1,
                running: 2,
                done: 3,
                rejected: 4,
                cache_hits: 5,
                draining: true,
                connections: 6,
                open_connections: 7,
            }),
            Response::Draining,
            Response::Pong,
            Response::Error {
                kind: "config".into(),
                message: "bad \"thing\"".into(),
            },
        ];
        for r in resps {
            let back = Response::parse(&r.to_line()).unwrap();
            assert_eq!(r, back);
        }
    }

    /// The wire is a data format too: a client or daemon built before
    /// `wait` and the connection counters existed must read and write
    /// the same bytes. `stats` grew at its end only.
    #[test]
    fn wire_lines_are_pinned() {
        let id = || "abc123".to_string();
        let spec = "{\"network\":\"tmin\",\"wiring\":\"cube\",\"dilation\":2,\"vcs\":2,\
                    \"k\":4,\"n\":3,\"pattern\":\"uniform\",\"sizes\":\"fixed:32\",\
                    \"loads_bits\":[\"4594572339843380019\",\"4599075939470750515\"],\
                    \"warmup\":500,\"measure\":3000,\"seed\":7,\"budget_cycles\":100000,\
                    \"budget_ms\":0,\"retries\":0,\"chaos\":0}";
        let requests = [
            (
                Request::Submit {
                    client: "c\"1".into(),
                    spec: quick_spec(),
                },
                format!("{{\"op\":\"submit\",\"client\":\"c\\\"1\",\"spec\":{spec}}}"),
            ),
            (
                Request::Status { job_id: id() },
                "{\"op\":\"status\",\"job_id\":\"abc123\"}".to_string(),
            ),
            (
                Request::Result { job_id: id() },
                "{\"op\":\"result\",\"job_id\":\"abc123\"}".to_string(),
            ),
            (Request::Stats, "{\"op\":\"stats\"}".to_string()),
            (Request::Drain, "{\"op\":\"drain\"}".to_string()),
            (Request::Ping, "{\"op\":\"ping\"}".to_string()),
            (
                Request::Wait {
                    job_id: id(),
                    wait_ms: 2_500,
                },
                "{\"op\":\"wait\",\"job_id\":\"abc123\",\"wait_ms\":2500}".to_string(),
            ),
        ];
        for (request, line) in requests {
            assert_eq!(request.to_line(), line);
        }
        let responses = [
            (
                Response::Accepted {
                    job_id: id(),
                    cached: true,
                },
                "{\"status\":\"accepted\",\"job_id\":\"abc123\",\"cached\":true}",
            ),
            (
                Response::Rejected {
                    reason: "queue full (depth 4)".into(),
                    retry_after_ms: 150,
                },
                "{\"status\":\"rejected\",\"reason\":\"queue full (depth 4)\",\"retry_after_ms\":150}",
            ),
            (
                Response::JobStatus {
                    job_id: id(),
                    state: "running".into(),
                },
                "{\"status\":\"job\",\"job_id\":\"abc123\",\"state\":\"running\"}",
            ),
            (
                Response::JobResult {
                    job_id: id(),
                    result: "{\"v\":1,\"points\":[]}".into(),
                },
                "{\"status\":\"result\",\"job_id\":\"abc123\",\"result\":{\"v\":1,\"points\":[]}}",
            ),
            (Response::Draining, "{\"status\":\"draining\"}"),
            (Response::Pong, "{\"status\":\"pong\"}"),
            (
                Response::Error {
                    kind: "config".into(),
                    message: "bad \"thing\"".into(),
                },
                "{\"status\":\"error\",\"kind\":\"config\",\"message\":\"bad \\\"thing\\\"\"}",
            ),
            (
                Response::Stats(ServiceStats {
                    queued: 1,
                    running: 2,
                    done: 3,
                    rejected: 4,
                    cache_hits: 5,
                    draining: true,
                    connections: 6,
                    open_connections: 7,
                }),
                "{\"status\":\"stats\",\"queued\":1,\"running\":2,\"done\":3,\"rejected\":4,\
                 \"cache_hits\":5,\"draining\":true,\"connections\":6,\"open_connections\":7}",
            ),
        ];
        for (response, line) in responses {
            assert_eq!(response.to_line(), line);
        }
    }

    /// A daemon stand-in that plays a script, one entry a connection:
    /// read a line, then either answer it and close, or hang up without
    /// an answer and read on until the peer closes too. Returns how
    /// many lines each connection was seen to carry.
    fn scripted_daemon(
        listener: std::net::TcpListener,
        answers: &'static [bool],
    ) -> std::thread::JoinHandle<Vec<usize>> {
        std::thread::spawn(move || {
            answers
                .iter()
                .map(|&answer| {
                    let (stream, _) = listener.accept().unwrap();
                    let mut conn = BufReader::new(stream);
                    let mut line = String::new();
                    conn.read_line(&mut line).unwrap();
                    assert_eq!(line, "{\"op\":\"ping\"}\n");
                    if answer {
                        conn.get_mut().write_all(b"{\"status\":\"pong\"}\n").unwrap();
                        return 1;
                    }
                    conn.get_mut().shutdown(std::net::Shutdown::Write).unwrap();
                    let mut rest = String::new();
                    std::io::Read::read_to_string(&mut conn, &mut rest).unwrap();
                    1 + rest.lines().count()
                })
                .collect()
        })
    }

    #[test]
    fn a_stale_connection_is_replaced_once_and_a_fresh_failure_is_returned() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let backlog = listener.try_clone().unwrap();
        // Every connection is closed after one line; the third is
        // closed without an answer.
        let daemon = scripted_daemon(listener, &[true, true, false]);
        let client = ServiceClient::new(addr.to_string()).with_timeout(Duration::from_secs(10));
        client.ping().unwrap();
        // The kept connection is dead: replaced without the caller
        // noticing.
        client.ping().unwrap();
        // Dead again, and the replacement fails too: that is an error,
        // not a third attempt.
        let err = client.ping().unwrap_err();
        assert!(err.contains("closed the connection"), "{err}");
        backlog.set_nonblocking(true).unwrap();
        assert!(backlog.accept().is_err(), "a fourth connection was opened");
        // The failed fresh connection carried its request exactly once
        // and was given up, not kept.
        assert_eq!(daemon.join().unwrap(), [1, 1, 1]);
    }

    #[test]
    fn sim_errors_cross_the_wire_structured() {
        let e = SimError::Config("vcs must be positive".into());
        let line = Response::from_sim_error(&e).to_line();
        let Response::Error { kind, message } = Response::parse(&line).unwrap() else {
            panic!("expected error response");
        };
        assert_eq!(kind, "config");
        assert!(message.contains("vcs"));
        assert_eq!(error_kind(&SimError::Internal { what: "x" }), "internal");
        assert_eq!(
            error_kind(&SimError::Routing("no path".into())),
            "routing"
        );
    }

    #[test]
    fn invalid_specs_are_typed_config_errors() {
        let mut s = quick_spec();
        s.network = "ring".into();
        assert_eq!(error_kind(&s.to_experiment().unwrap_err()), "config");
        let mut s = quick_spec();
        s.loads = vec![];
        assert!(s.to_experiment().is_err());
        let mut s = quick_spec();
        s.loads = vec![-0.5];
        assert!(s.to_experiment().is_err());
        let mut s = quick_spec();
        s.pattern = "nope".into();
        assert!(s.to_experiment().is_err());
        // A job speaks the command line's vocabulary…
        let accepted = [("butterfly:2", "fixed:32"), ("uniform", "bimodal:8,1024,0.5")];
        for (pattern, sizes) in accepted {
            let mut s = quick_spec();
            (s.pattern, s.sizes) = (pattern.into(), sizes.into());
            assert!(s.to_experiment().is_ok(), "{pattern} {sizes}");
        }
        // …and refuses, naming the field, a value no run can use (these
        // were accepted, journaled, and failed at compile time).
        for (field, value) in [
            ("pattern", "hotspot:-1"),
            ("pattern", "hotspot:NaN"),
            ("sizes", "fixed:0"),
            ("sizes", "bimodal:8,1024,1.5"),
        ] {
            let mut s = quick_spec();
            match field {
                "pattern" => s.pattern = value.into(),
                _ => s.sizes = value.into(),
            }
            let err = s.to_experiment().unwrap_err();
            assert_eq!(error_kind(&err), "config", "{value}");
            assert!(String::from(err).starts_with(&format!("{field}: ")), "{value}");
        }
        // Geometry: degenerate, past `u32` node ids, past the graph's
        // byte-wide ports — and a `k` past `u32` is a torn line, not 4.
        for (k, n) in [(1, 3), (4, 0), (4, 17), (32, 9), (300, 1)] {
            let mut s = quick_spec();
            (s.k, s.n) = (k, n);
            let err = s.to_experiment().unwrap_err();
            assert_eq!(error_kind(&err), "config", "k={k} n={n}");
        }
        let json = quick_spec().to_json();
        let wide = json.replace("\"k\":4,", "\"k\":4294967300,");
        assert!(wide.contains("4294967300") && JobSpec::from_json(&wide).is_none());
        // …and so are retry / chaos counts past `u32` (they used to wrap:
        // 4294967297 retries ran as 1).
        for key in ["retries", "chaos"] {
            let wide = json.replace(&format!("\"{key}\":0"), &format!("\"{key}\":4294967297"));
            assert!(wide.contains("4294967297") && JobSpec::from_json(&wide).is_none(), "{key}");
        }
    }

    #[test]
    fn run_job_is_byte_deterministic() {
        let spec = quick_spec();
        let a = run_job(&spec, None, 2).unwrap();
        let b = run_job(&spec, None, 1).unwrap();
        assert_eq!(a, b, "thread count or repetition changed result bytes");
        assert!(a.contains(&format!("\"job_id\":\"{}\"", spec.job_id().unwrap())));
        assert!(a.contains("\"outcome\":\"ok\""));
    }

    #[test]
    fn chaos_panics_are_isolated_and_retried_on_derived_seeds() {
        let mut spec = quick_spec();
        spec.chaos_panic_attempts = 1;
        spec.retries = 2;
        let chaotic = run_job(&spec, None, 2).unwrap();
        // Every point spent the chaos attempt and recovered.
        assert!(chaotic.contains("\"attempts\":2"));
        assert!(!chaotic.contains("\"outcome\":\"failed\""));
        // Chaos participates in the job identity: the recovered curve is
        // its own job, not a cache alias of the calm one.
        let calm = {
            let mut s = spec.clone();
            s.chaos_panic_attempts = 0;
            s.retries = 0;
            s
        };
        assert_ne!(spec.job_id().unwrap(), calm.job_id().unwrap());
        // Unrecoverable chaos: more injected panics than retries fails
        // every point but still completes the job.
        let mut doomed = quick_spec();
        doomed.chaos_panic_attempts = 3;
        doomed.retries = 1;
        let out = run_job(&doomed, None, 1).unwrap();
        assert!(out.contains("\"outcome\":\"failed\""));
        assert!(out.contains("chaos: injected panic"));
    }

    #[test]
    fn run_job_resumes_from_checkpoint_byte_identically() {
        let spec = quick_spec();
        let dir = std::env::temp_dir().join(format!(
            "minnet_service_ckpt_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("job.ckpt.jsonl");
        let _ = std::fs::remove_file(&ckpt);
        let uninterrupted = run_job(&spec, None, 1).unwrap();
        let first = run_job(&spec, Some(ckpt.clone()), 1).unwrap();
        assert_eq!(uninterrupted, first);
        // Simulate a kill after the first point: drop the last line.
        let full = std::fs::read_to_string(&ckpt).unwrap();
        let keep: String = full.split_inclusive('\n').take(2).collect();
        std::fs::write(&ckpt, keep).unwrap();
        let resumed = run_job(&spec, Some(ckpt.clone()), 1).unwrap();
        assert_eq!(uninterrupted, resumed, "resume changed result bytes");
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_dir(&dir);
    }
}
