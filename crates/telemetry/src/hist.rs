//! Fixed-bucket log-scale latency histograms.
//!
//! Buckets are powers of two of nanoseconds: bucket `i` holds values in
//! `[2^i, 2^(i+1))` (bucket 0 also absorbs 0, the last bucket absorbs
//! everything above). With [`BUCKETS`] = 48 the range spans 1ns to ~39h at
//! a fixed worst-case relative error of 2×, which is ample for latency
//! work where we report order-of-magnitude tails (p50/p95/p99/max).
//! Recording is a handful of relaxed atomic adds, so histograms can sit on
//! hot paths and be snapshotted concurrently without stopping traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets. Covers `[1ns, 2^48ns ≈ 78h)`.
pub const BUCKETS: usize = 48;

/// The bucket a value lands in: `floor(log2(max(v, 1)))`, clamped to the
/// last bucket.
pub fn bucket_index(v: u64) -> usize {
    ((63 - v.max(1).leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Half-open bounds `[lo, hi)` of bucket `i`; the last bucket's upper
/// bound is `u64::MAX`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i.min(BUCKETS - 1);
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    };
    (lo, hi)
}

/// A concurrent fixed-bucket log-scale histogram of nanosecond values.
///
/// The total count is derived from the buckets at snapshot time rather
/// than kept in its own atomic, and the max is only written when it
/// actually grows, so the hot recording path is two relaxed adds plus a
/// load — cheap enough to sit inside per-operation code.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond value.
    pub fn record(&self, v_ns: u64) {
        self.buckets[bucket_index(v_ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v_ns, Ordering::Relaxed);
        // After warm-up the max almost never moves; guard the RMW with a
        // plain load so steady-state recording stays two atomic adds.
        if v_ns > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v_ns, Ordering::Relaxed);
        }
    }

    /// Records a duration (saturating at `u64::MAX` ns).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy; concurrent recording keeps going. The copy is
    /// taken bucket-by-bucket with relaxed loads, so totals may be off by
    /// in-flight records — fine for reporting, not for accounting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; see [`bucket_bounds`].
    pub buckets: [u64; BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (ns).
    pub sum: u64,
    /// Largest recorded value (ns).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean in nanoseconds, `None` when empty (never a fabricated zero —
    /// see the `avg_latency` bug this replaced).
    pub fn mean_ns(&self) -> Option<u64> {
        self.sum.checked_div(self.count)
    }

    /// Estimated `q`-quantile in nanoseconds (`0 <= q <= 1`): the upper
    /// bound of the bucket where the cumulative count crosses `q · count`,
    /// clamped to the observed maximum so the estimate never exceeds a
    /// real value. Returns `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(n);
            if cum >= target {
                let (_, hi) = bucket_bounds(i);
                return Some(hi.saturating_sub(1).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate (ns); `None` when empty.
    pub fn p50(&self) -> Option<u64> {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile estimate (ns); `None` when empty.
    pub fn p95(&self) -> Option<u64> {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile estimate (ns); `None` when empty.
    pub fn p99(&self) -> Option<u64> {
        self.quantile_ns(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Consecutive buckets tile with no gap or overlap.
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert_eq!(hi, lo_next, "bucket {i} upper != bucket {} lower", i + 1);
        }
    }

    #[test]
    fn quantiles_bracket_recorded_values() {
        let h = Histogram::new();
        for v in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 100_000);
        let p50 = s.p50().unwrap();
        let p99 = s.p99().unwrap();
        assert!(p50 <= p99, "quantiles must be monotone: {p50} > {p99}");
        assert!(p99 <= s.max);
        // p50 of {10,100,1k,10k,100k}: third value is 1_000, so the
        // estimate must sit in 1_000's bucket (upper bound 2^10 - 1).
        let (lo, hi) = bucket_bounds(bucket_index(1_000));
        assert!(p50 >= lo && p50 < hi, "p50={p50} outside [{lo},{hi})");
    }

    #[test]
    fn empty_snapshot_reports_none_not_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.mean_ns(), None);
        assert_eq!(s.p50(), None);
        assert_eq!(s.p99(), None);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per {
                        h.record(t * per + i);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, threads * per);
        assert_eq!(s.buckets.iter().sum::<u64>(), threads * per);
        assert_eq!(s.max, threads * per - 1);
    }
}
