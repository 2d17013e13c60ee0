//! What the benchmark reads about its machine and its own process.

use std::fs;
use std::path::Path;

/// The machine a result was measured on.
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
    pub commit: String,
}

impl Machine {
    /// Reads core count, CPU model and the checkout's commit (when the
    /// working directory is a git checkout; `unknown` otherwise).
    pub fn probe() -> Machine {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Machine {
            nproc,
            cpu,
            commit: git_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Resolves `.git/HEAD` to a commit id without running git.
fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the peak-RSS high-water mark to the current RSS, so the
/// measured phase's peak excludes set-up. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The filesystem type the directory `dir` lives on (longest matching
/// mount point in `/proc/self/mounts`), e.g. `ext4`, `overlay`, `tmpfs`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = fs::canonicalize(dir) else {
        return "unknown".to_string();
    };
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}
