//! Host facts every result records, process resource usage, and the
//! per-run scratch directory.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) with the 64-bit Linux struct layout");

/// Logical CPUs this process may use: the ceiling for threads, pool
/// workers and client connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Linux `struct rusage` on 64-bit targets: two `timeval`s, then
/// fourteen `long`s starting with `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU time and peak resident set of a process group.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in MiB (for children: the largest reaped child).
    pub maxrss_mb: f64,
}

fn usage(who: i32) -> Usage {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the layout of the Linux
    // 64-bit `struct rusage` (checked by the compile_error! gate above),
    // and getrusage writes nothing beyond that struct.
    let rc = unsafe { getrusage(who, &mut u) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        cpu_s: secs(u.utime) + secs(u.stime),
        maxrss_mb: u.maxrss as f64 / 1024.0,
    }
}

/// This process.
pub fn self_usage() -> Usage {
    usage(RUSAGE_SELF)
}

/// Every child process already reaped (`wait`ed for). Only the binaries
/// under test are spawned, so this is their peak, not a toolchain's.
pub fn children_usage() -> Usage {
    usage(RUSAGE_CHILDREN)
}

/// A fresh directory under `.perfbench_out/` for one run's caches and
/// temporaries, removed on drop — on every exit path, panics included.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(out_dir: &Path) -> std::io::Result<ScratchDir> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = out_dir.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
