//! Resident-set readings from `/proc/self` (Linux). The peak counter
//! (`VmHWM`) is reset by writing `5` to `/proc/self/clear_refs`, so a
//! peak can be attributed to one round instead of the whole process.

use std::fs;

fn status_kib(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Current resident set in MiB (0 where `/proc` is unavailable).
pub fn current_mib() -> f64 {
    status_kib("VmRSS").unwrap_or(0.0) / 1024.0
}

/// Peak resident set in MiB since process start or the last
/// successful [`reset_peak`].
pub fn peak_mib() -> f64 {
    status_kib("VmHWM").unwrap_or(0.0) / 1024.0
}

/// Resets the peak counter to the current resident set. Returns false
/// if the kernel refuses; the peak then covers the whole process,
/// which runs exactly one workload.
pub fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}
