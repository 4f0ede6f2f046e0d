//! Host and process facts: the report stamp, child-process resource
//! usage, and the few libc calls the standard library does not expose.

use std::os::raw::{c_double, c_int, c_long, c_ulong};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::Duration;

#[repr(C)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    other: [c_long; 13],
}

const RUSAGE_CHILDREN: c_int = -1;
const PR_SET_TIMERSLACK: c_int = 29;
const SIGKILL: c_int = 9;

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    fn getloadavg(loadavg: *mut c_double, nelem: c_int) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// Resource usage of every child process waited for so far (and of
/// their own waited-for children).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildUsage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Largest resident set of any one of them, KiB.
    pub max_rss_kib: u64,
}

/// Read this process's cumulative child usage.
pub fn child_usage() -> ChildUsage {
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        other: [0; 13],
    };
    // SAFETY: `ru` is a writable struct with the layout of Linux's
    // `struct rusage` (two timevals, then fourteen longs), which is all
    // getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return ChildUsage::default();
    }
    let secs = |tv: [c_long; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    ChildUsage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
        max_rss_kib: u64::try_from(ru.maxrss).unwrap_or(0),
    }
}

/// One-minute load average (0 when unavailable).
pub fn loadavg_1m() -> f64 {
    let mut avg = [0.0 as c_double; 1];
    // SAFETY: the buffer holds the one element requested.
    let n = unsafe { getloadavg(avg.as_mut_ptr(), 1) };
    if n == 1 {
        avg[0]
    } else {
        0.0
    }
}

/// Shrink the calling thread's timer slack to 1 µs, so short sleeps end
/// on time (the default 50 µs slack would show up as generator lateness).
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and affects
    // only the calling thread; the unused arguments are ignored.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Restrict the calling thread, and every thread and process it starts
/// from now on, to the lowest-numbered CPU it may run on. Returns that
/// CPU, or `None` when the affinity could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    // A glibc `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the layout
    // of `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: as above, with a read-only buffer.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Wait for `child`, killing it if it runs longer than `limit`, together
/// with its process group when it leads one (so a killed sharded
/// campaign takes its shard processes with it). Returns `None` when it
/// had to be killed.
pub fn wait_or_kill(child: &mut Child, limit: Duration) -> std::io::Result<Option<ExitStatus>> {
    let pid = c_int::try_from(child.id()).expect("pids fit in pid_t");
    let (done, watch) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let watchdog = scope.spawn(move || {
            if watch.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                // SAFETY: a plain syscall, no memory involved. The pid is
                // the child's while `wait` below still blocks; only a
                // child exiting in the instant the limit (minutes) runs
                // out could leave it reaped and the pid reusable.
                unsafe {
                    kill(-pid, SIGKILL);
                    kill(pid, SIGKILL);
                }
                true
            } else {
                false
            }
        });
        let status = child.wait();
        let _ = done.send(());
        let killed = watchdog.join().expect("watchdog thread panicked");
        status.map(|s| (!killed).then_some(s))
    })
}

/// Host and run facts printed with every report.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub load_before: f64,
    pub load_after: f64,
    pub git_rev: String,
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Never report the revision of a repository that merely contains
    // this checkout.
    let ceiling = std::env::current_dir().ok()?.parent()?.to_path_buf();
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

impl Stamp {
    /// Take the facts known before the run.
    pub fn before() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            load_before: loadavg_1m(),
            load_after: 0.0,
            git_rev: String::new(),
            rustc: String::new(),
        }
    }

    /// Complete the stamp after the run. The `git` and `rustc` queries
    /// run only now, so their processes never count in the measured
    /// child usage (peak RSS) of the run.
    pub fn finish(&mut self) {
        self.load_after = loadavg_1m();
        self.git_rev = command_line("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "none (not a git checkout)".into());
        self.rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    }

    /// True when the host was busier than it has cores, before or after.
    pub fn overloaded(&self) -> bool {
        self.load_before.max(self.load_after) > self.nproc as f64
    }
}
