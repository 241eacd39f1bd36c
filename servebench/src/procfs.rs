//! Linux `/proc` readers: process and thread CPU time, host steal time
//! and peak resident memory.

use std::fs;
use std::io;

/// Clock ticks per second of the CPU fields in `/proc/*/stat` and
/// `/proc/stat` (`USER_HZ`, 100 on every Linux architecture this runs on).
pub const TICK_HZ: u64 = 100;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}

/// utime + stime in ticks from a `/proc/<pid>[/task/<tid>]/stat` file.
fn stat_cpu_ticks(path: &str) -> io::Result<u64> {
    let text = fs::read_to_string(path)?;
    // The command name is parenthesised and may hold spaces: the fields
    // we want are counted from after its closing parenthesis, where
    // field 3 (state) comes first, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    let rest = text.rsplit_once(')').ok_or_else(|| bad(path))?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> io::Result<u64> {
        fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(|| bad(path))
    };
    Ok(field(11)? + field(12)?)
}

/// CPU ticks of the whole process, exited threads included.
pub fn process_cpu_ticks() -> io::Result<u64> {
    stat_cpu_ticks("/proc/self/stat")
}

/// CPU ticks of the calling thread.
pub fn thread_cpu_ticks() -> io::Result<u64> {
    stat_cpu_ticks("/proc/thread-self/stat")
}

/// Host-wide CPU accounting from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time the hypervisor ran something else on our vCPUs.
    pub steal: u64,
}

impl HostCpu {
    /// Reads the current counters.
    pub fn read() -> io::Result<Self> {
        let text = fs::read_to_string("/proc/stat")?;
        let line = text
            .lines()
            .next()
            .filter(|l| l.starts_with("cpu "))
            .ok_or_else(|| bad("/proc/stat"))?;
        let values: Vec<u64> =
            line.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
        if values.len() < 8 {
            return Err(bad("/proc/stat"));
        }
        Ok(Self { total: values[..8].iter().sum(), steal: values[7] })
    }

    /// Share of host CPU time stolen between `earlier` and `self`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let text = fs::read_to_string("/proc/self/status")?;
    let kib: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad("VmHWM in /proc/self/status"))?;
    Ok(kib as f64 / 1024.0)
}
