//! Process and thread counters read from `/proc`.

/// `/proc` reports CPU time in USER_HZ ticks, 100 per second on Linux.
pub const TICK_US: f64 = 10_000.0;

/// utime + stime (ticks) from one `/proc/.../stat` line. The command
/// name is parenthesised and may hold spaces, so fields are counted
/// after its closing parenthesis.
fn cpu_ticks_of(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, so utime (14) and stime (15)
    // are the 12th and 13th fields here.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU ticks the whole process has used.
pub fn process_cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_ticks_of(&s))
        .unwrap_or(0)
}

/// CPU ticks used by the live threads named `name` (as the kernel
/// stores it: at most 15 bytes).
pub fn thread_cpu_ticks(name: &str) -> u64 {
    let name = &name[..name.len().min(15)];
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
            if comm.trim_end() != name {
                return None;
            }
            cpu_ticks_of(&std::fs::read_to_string(t.path().join("stat")).ok()?)
        })
        .sum()
}

/// Host CPU time as (steal, total) ticks from the aggregate `cpu` line
/// of a `/proc/stat`: user, nice, system, idle, iowait, irq, softirq,
/// steal. Guest time is already inside user time.
fn host_ticks_of(stat: &str) -> (u64, u64) {
    let fields: Vec<u64> = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Host CPU time as (steal, total) ticks: time the hypervisor gave to
/// other tenants while this host's CPUs wanted to run.
pub fn host_cpu_ticks() -> (u64, u64) {
    host_ticks_of(&std::fs::read_to_string("/proc/stat").unwrap_or_default())
}

/// Share of the host's CPU time stolen between two [`host_cpu_ticks`]
/// readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    after.0.saturating_sub(before.0) as f64 / after.1.saturating_sub(before.1).max(1) as f64
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_name() {
        let line = "42 (geoproof reactor) S 1 42 1 0 -1 4194560 10 0 0 0 7 5 0 0 20 0 3 0";
        assert_eq!(cpu_ticks_of(line), Some(12));
    }

    #[test]
    fn host_steal_is_the_eighth_cpu_field() {
        let stat = "cpu  100 0 50 800 10 0 20 20 5 0\ncpu0 50 0 25 400 5 0 10 10 5 0\n";
        assert_eq!(host_ticks_of(stat), (20, 1000));
    }

    #[test]
    fn own_counters_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        assert!(host_cores() >= 1);
    }
}
