//! Child processes with their resource usage. `std::process` reaps a
//! child without reporting `ru_maxrss`, so the harness reaps with
//! `wait4(2)` itself — the one foreign call of the benchmark, declared
//! raw like `minnetd`'s `signal(2)` because the workspace vendors no
//! libc crate.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// 64-bit Linux `struct rusage`: two `timeval`s then fourteen `long`s
/// (the benchmark is Linux-only, like the `/proc` reads below).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

unsafe extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What a finished child cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// Exit code; `None` when a signal ended the process.
    pub exit_code: Option<i32>,
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
}

impl Usage {
    pub fn succeeded(&self) -> bool {
        self.exit_code == Some(0)
    }
}

/// `wait4` on this process's own child `pid`; `None` when `nohang` and
/// the child is still running.
fn wait_child(pid: u32, nohang: bool, started: Instant) -> std::io::Result<Option<Usage>> {
    const WNOHANG: i32 = 1;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are live, writable and correctly laid
    // out for the 64-bit Linux ABI (`Rusage` is 144 bytes, the size of
    // `struct rusage`); callers pass the pid of an unreaped child they
    // own, so wait4 cannot reap anything else.
    let got = unsafe {
        wait4(
            pid as i32,
            &mut status,
            if nohang { WNOHANG } else { 0 },
            &mut ru,
        )
    };
    if got < 0 {
        return Err(std::io::Error::last_os_error());
    }
    if got == 0 {
        return Ok(None);
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(Some(Usage {
        exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: secs(ru.utime) + secs(ru.stime),
        peak_rss_kb: ru.maxrss_kb.max(0) as u64,
    }))
}

/// Block until `child` ends and return its exit status and `rusage`.
/// The child is reaped here, which is why it is taken by value:
/// `child.wait()` must not run afterwards (`Child`'s drop neither waits
/// nor kills).
pub fn reap(child: Child, started: Instant) -> std::io::Result<Usage> {
    Ok(wait_child(child.id(), false, started)?.expect("blocking wait4 returns a child"))
}

/// Run `program args…` in `cwd` to completion with stdout discarded and
/// stderr passed through.
pub fn run(program: &Path, args: &[String], cwd: &Path) -> Result<Usage, String> {
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", program.display()))?;
    reap(child, started).map_err(|e| format!("waiting for {}: {e}", program.display()))
}

/// [`reap`], but kill `child` if it is still running after `grace`.
pub fn reap_within(mut child: Child, started: Instant, grace: Duration) -> std::io::Result<Usage> {
    let deadline = Instant::now() + grace;
    while Instant::now() < deadline {
        if let Some(usage) = wait_child(child.id(), true, started)? {
            return Ok(usage);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    reap(child, started)
}

/// The harness's own peak RSS in KB. A child's `ru_maxrss` starts from
/// the forking parent's high-water mark, so this is the floor below
/// which a child's peak cannot be read.
pub fn own_peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
