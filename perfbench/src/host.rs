//! What a result must carry about the machine and build that produced it.

use std::path::Path;

/// Hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `release` or `debug`.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    read_git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into())
}

fn read_git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_this_process() {
        assert!(hardware_threads() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
        assert!(read_git_rev(Path::new("/nonexistent/.git")).is_none());
    }
}
