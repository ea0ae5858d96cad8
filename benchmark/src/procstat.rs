//! Readings from `/proc`: who else used the core during a slice, and this
//! process's peak resident size.

use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};

/// CPU ticks since boot: of the watched core (or the whole machine) and
/// of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks spent doing anything, for anyone: user, nice, system, irq,
    /// softirq and steal (time the hypervisor ran someone else instead).
    busy: u64,
    /// `busy` plus idle and iowait.
    total: u64,
    /// utime + stime of this process, all threads.
    own: u64,
}

/// The core the process is pinned to, or `usize::MAX` for "all of them".
/// Relaxed: set once before any reader thread exists.
static WATCHED_CORE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Tells the readings which core's line of `/proc/stat` to read: with
/// every thread of the process on one core, what the neighbours do on the
/// other cores is not what slows it down.
pub fn watch_core(core: usize) {
    WATCHED_CORE.store(core, Ordering::Relaxed);
}

impl CpuTicks {
    /// Reads both counters now. `None` when `/proc` is not readable, in
    /// which case every slice counts as clean: the benchmark still runs
    /// on a kernel without procfs, it just cannot excuse a noisy slice.
    pub fn read() -> Option<Self> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let line = match WATCHED_CORE.load(Ordering::Relaxed) {
            usize::MAX => "cpu ".to_owned(),
            core => format!("cpu{core} "),
        };
        let cpu = stat.lines().find_map(|l| l.strip_prefix(line.as_str()))?;
        let f: Vec<u64> = cpu
            .split_whitespace()
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        if f.len() < 8 {
            return None;
        }
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user).
        let busy = f[0] + f[1] + f[2] + f[5] + f[6] + f[7];
        let total = busy + f[3] + f[4];

        let me = fs::read_to_string("/proc/self/stat").ok()?;
        // The command name may hold spaces; fields are counted after the
        // closing parenthesis. utime and stime are fields 14 and 15.
        let rest = &me[me.rfind(')')? + 1..];
        let g: Vec<&str> = rest.split_whitespace().collect();
        let own = g.get(11)?.parse::<u64>().ok()? + g.get(12)?.parse::<u64>().ok()?;
        Some(Self { busy, total, own })
    }

    /// Share of the ticks between `earlier` and `self` that the machine
    /// spent on work that was not this process.
    pub fn foreign_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        let busy = self.busy.saturating_sub(earlier.busy);
        let own = self.own.saturating_sub(earlier.own);
        busy.saturating_sub(own) as f64 / total as f64
    }
}

/// Foreign share between two optional readings; 0 when either is missing.
pub fn foreign_share(earlier: Option<CpuTicks>, later: Option<CpuTicks>) -> f64 {
    match (earlier, later) {
        (Some(a), Some(b)) => b.foreign_share_since(&a),
        _ => 0.0,
    }
}

/// `VmHWM` (peak resident set) in MB, 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foreign_share_subtracts_own_ticks() {
        let a = CpuTicks {
            busy: 100,
            total: 1_000,
            own: 50,
        };
        let b = CpuTicks {
            busy: 300,
            total: 1_200,
            own: 230,
        };
        // 200 busy ticks of 200 elapsed, 180 of them ours.
        assert!((b.foreign_share_since(&a) - 0.1).abs() < 1e-12);
        assert_eq!(a.foreign_share_since(&a), 0.0);
    }

    #[test]
    fn proc_is_readable_here() {
        let t = CpuTicks::read().expect("linux procfs");
        assert!(t.total >= t.busy);
        assert!(peak_rss_mb() > 0.0);
    }
}
