//! Process and host readings from `/proc`: CPU time, peak RSS, thread
//! count and hypervisor steal.

use std::fs;

/// Kernel clock ticks per second behind the `/proc/*/stat` CPU fields
/// (`USER_HZ`, 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may hold spaces; fields
    // after it start at field 3 (`state`), so utime (field 14) and
    // stime (field 15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

fn status_kb(key: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_kb("Threads:")
}

/// Cumulative steal and total jiffies of the host's aggregate CPU line.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    /// Reads the `cpu` line of `/proc/stat`.
    pub fn now() -> HostCpu {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let values: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user, so the total stops at steal.
        HostCpu {
            steal: values.get(7).copied().unwrap_or(0),
            total: values.iter().take(8).sum(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
