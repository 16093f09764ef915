//! CPU and memory accounting read from `/proc`, from outside the program.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second of `/proc/*/stat` times (`sysconf(_SC_CLK_TCK)`,
/// 100 on every Linux platform this runs on).
const CLOCK_TICKS_PER_S: u64 = 100;

/// Process user + system CPU in microseconds, threads that already exited
/// included.
pub fn process_cpu_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields = stat_fields(&stat);
    // utime and stime are fields 14 and 15 of proc(5), i.e. the 12th and
    // 13th after the parenthesised command name.
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    ticks * 1_000_000 / CLOCK_TICKS_PER_S
}

/// Machine-wide CPU time as `(steal, total)` clock ticks from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else, out of all
/// CPU time.
pub fn machine_steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest times are already counted in user and nice.
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// The fields of a `stat` line after the `(comm)` field.
fn stat_fields(stat: &str) -> Vec<&str> {
    match stat.rfind(')') {
        Some(end) => stat[end + 1..].split_whitespace().collect(),
        None => Vec::new(),
    }
}

/// Resets the process's peak resident set size to its current size, so a
/// later [`peak_rss_mb`] is this workload's own peak. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

fn status_kb(key: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// The on-CPU nanoseconds in a thread's `schedstat` file.
fn schedstat_ns(path: impl AsRef<std::path::Path>) -> Option<u64> {
    let stat = fs::read_to_string(path).ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds of the calling thread.
pub fn this_thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat").unwrap_or(0)
}

/// On-CPU nanoseconds of every live thread of this process, keyed by thread
/// id, with the thread's name (`comm`, at most 15 bytes).
pub fn thread_cpu_ns() -> BTreeMap<u64, (String, u64)> {
    let mut threads = BTreeMap::new();
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return threads;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let name = fs::read_to_string(path.join("comm")).unwrap_or_default();
        if let Some(on_cpu) = schedstat_ns(path.join("schedstat")) {
            threads.insert(tid, (name.trim().to_string(), on_cpu));
        }
    }
    threads
}

/// CPU nanoseconds spent between two [`thread_cpu_ns`] snapshots by the
/// threads whose name starts with one of `prefixes`. Threads that exited
/// in between are not counted; threads born in between count from zero.
pub fn cpu_between(
    before: &BTreeMap<u64, (String, u64)>,
    after: &BTreeMap<u64, (String, u64)>,
    prefixes: &[&str],
) -> u64 {
    after
        .iter()
        .filter(|(_, (name, _))| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(tid, (_, ns))| ns - before.get(tid).map_or(0, |(_, b)| (*b).min(*ns)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_thread_is_visible_and_burns_cpu() {
        let name = std::thread::current().name().map(str::to_string);
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = thread_cpu_ns();
        assert!(!after.is_empty());
        assert!(cpu_between(&before, &after, &[""]) > 0, "{name:?} {x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
