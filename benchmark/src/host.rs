//! What the host tells us about this process: peak resident set, CPU
//! seconds, core count. Linux `/proc` only — the benchmark runs nowhere
//! else.

use std::fs;

/// Hardware threads the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// User + system CPU seconds consumed by every thread of this process
/// (`/proc/self/stat` fields 14 and 15, at the Linux-wide 100 Hz tick).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The comm field may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("comm in /proc/self/stat") + 1..];
    let mut f = rest.split_whitespace().skip(11);
    let mut tick = || {
        f.next()
            .and_then(|v| v.parse::<f64>().ok())
            .expect("cpu ticks")
    };
    (tick() + tick()) / 100.0
}
