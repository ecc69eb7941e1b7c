//! Process plumbing: peak memory, child processes, scratch directories.

use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of a process in MiB; `pid` `None` means
/// this process. 0 when the kernel does not report it.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A set of CPUs, laid out as the kernel's `cpu_set_t` (1024 bits).
#[derive(Clone, Copy)]
#[repr(transparent)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

impl CpuSet {
    /// The CPUs the calling thread may run on; empty if the kernel
    /// does not say.
    pub fn allowed() -> CpuSet {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            set = CpuSet([0; 16]);
        }
        set
    }

    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The highest CPU of the set (empty if the set is).
    pub fn last(&self) -> CpuSet {
        let mut last = CpuSet([0; 16]);
        if let Some(word) = self.0.iter().rposition(|&w| w != 0) {
            last.0[word] = 1 << (63 - self.0[word].leading_zeros());
        }
        last
    }

    /// Confines the calling thread to the set. Only a system call, so
    /// it is safe between fork and exec, where it confines the child.
    pub fn pin(&self) -> std::io::Result<()> {
        // SAFETY: the kernel reads at most `size_of::<CpuSet>()` bytes.
        match unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self) } {
            0 => Ok(()),
            _ => Err(std::io::Error::last_os_error()),
        }
    }
}

/// A child process that is killed and reaped when dropped.
pub struct ChildGuard(pub Child);

impl ChildGuard {
    /// Waits up to `limit` for the child to exit on its own, then kills
    /// it; either way the child is reaped before this returns.
    pub fn finish(mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.0.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// A scratch directory inside the checkout, removed when dropped. The
/// returned path is relative to the checkout root (the working
/// directory), which keeps unix socket paths short.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(name: &str) -> std::io::Result<ScratchDir> {
        let dir = Path::new(".bench_run").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn join(&self, rel: &str) -> PathBuf {
        self.0.join(rel)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
