//! Host and process readings from `/proc`. They are recorded next to the
//! metrics so host noise can be told from program noise; no metric is
//! normalised or filtered by them.

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, 100
/// on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds stolen from this VM by its hypervisor, host-wide.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |t| t / TICKS_PER_S)
}

/// User plus system CPU seconds of this process, all threads.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU and steal seconds between two readings.
#[derive(Clone, Copy)]
pub struct Clock {
    cpu: f64,
    steal: f64,
}

impl Clock {
    pub fn now() -> Clock {
        Clock {
            cpu: process_cpu_seconds(),
            steal: steal_seconds(),
        }
    }

    /// `(process CPU seconds, host steal seconds)` since `self`.
    pub fn since(&self) -> (f64, f64) {
        let now = Clock::now();
        (now.cpu - self.cpu, now.steal - self.steal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let c = Clock::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (cpu, steal) = c.since();
        assert!(cpu >= 0.0 && steal >= 0.0);
        assert!(process_cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(available_parallelism() >= 1);
    }
}
