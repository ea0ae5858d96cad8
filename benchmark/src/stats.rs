//! The estimator: clean-slice medians, drift, quartiles and the seeded
//! Poisson schedule. Everything here is pure, so it is tested without a
//! clock.

/// A slice is clean when the rest of the machine used at most this share
/// of the CPU ticks that elapsed during it.
pub const CLEAN_FOREIGN_SHARE: f64 = 0.05;

/// What the harness knows about one slice apart from the measured value:
/// the disturbance signals a slice is selected by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceSignal {
    /// (machine busy+steal ticks − own ticks) / total ticks over the slice.
    pub foreign_share: f64,
    /// Open loop only: the generator was already ≥ 1 ms behind its
    /// schedule when the slice began, so the slice measures a backlog.
    pub late: bool,
}

impl SliceSignal {
    pub fn clean(&self) -> bool {
        self.foreign_share <= CLEAN_FOREIGN_SHARE && !self.late
    }

    /// The share of the machine this process could have had during the
    /// slice. Measured times are multiplied by it and rates divided by
    /// it, so a slice measured beside a neighbour that took 30 % of the
    /// CPU reads as it would have on 100 %: on this box a slice at 0.3
    /// foreign share runs 1.4× slower, at 0.01 it is a 1 % correction.
    /// Floored so that a reading of pure noise cannot blow a value up.
    pub fn own_share(&self) -> f64 {
        (1.0 - self.foreign_share).clamp(0.25, 1.0)
    }
}

/// The slices a phase's metrics are taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Indices into the phase's slices, ascending.
    pub indices: Vec<usize>,
    /// Fewer than half the slices were clean, so the quietest half was
    /// used instead.
    pub disturbed: bool,
}

/// Picks the slices to estimate from, by the disturbance signals alone —
/// the measured values are not an argument, so a slow slice can never be
/// dropped for being slow. Clean slices are used when they are at least
/// a quarter of all slices (and at least two); otherwise the half with
/// the lowest foreign share (late slices last, ties by position) and
/// `disturbed` is set.
pub fn select_clean(signals: &[SliceSignal]) -> Selection {
    let clean: Vec<usize> = (0..signals.len()).filter(|&i| signals[i].clean()).collect();
    if clean.len() * 4 >= signals.len() && clean.len() >= 2.min(signals.len()) {
        return Selection {
            indices: clean,
            disturbed: false,
        };
    }
    let mut order: Vec<usize> = (0..signals.len()).collect();
    order.sort_by(|&a, &b| {
        (signals[a].late, signals[a].foreign_share)
            .partial_cmp(&(signals[b].late, signals[b].foreign_share))
            .expect("foreign shares are finite")
            .then(a.cmp(&b))
    });
    order.truncate(signals.len().div_ceil(2));
    order.sort_unstable();
    Selection {
        indices: order,
        disturbed: true,
    }
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The metric of a phase: the median, over the selected slices, of the
/// per-slice value.
pub fn clean_median(values: &[f64], selection: &Selection) -> f64 {
    let picked: Vec<f64> = selection.indices.iter().map(|&i| values[i]).collect();
    median(&picked)
}

/// Nearest-rank percentile of an unsorted sample, `q` in 0..=1.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// (mean rate of the last third of slices) / (mean of the first third):
/// 1.0 when cost does not depend on how long the run has been going.
/// With fewer than six slices the two halves are compared, so that no
/// side is a single slice.
pub fn drift(rates: &[f64]) -> f64 {
    let third = if rates.len() < 6 {
        (rates.len() / 2).max(1)
    } else {
        rates.len() / 3
    };
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&rates[rates.len() - third..]) / mean(&rates[..third])
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver judges spreads with.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// SplitMix64: the benchmark's only random source. One generator per
/// purpose, each seeded from the run seed, so inputs are a function of
/// `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The generator for op `index` of a run: any thread can produce any
/// op's inputs, so what an op asks for does not depend on which client
/// happened to issue it.
pub fn op_rng(seed: u64, index: u64) -> SplitMix {
    let mut mix = SplitMix(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    mix.next_u64();
    mix
}

/// Due times (ns from phase start) of a Poisson arrival process at
/// `rate_per_s`, covering `duration_ns`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    let mut rng = SplitMix(seed ^ 0x0A11_0CA7_ED5C_4ED0);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((duration_ns as f64 / mean_gap_ns * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 − u is in (0, 1], so ln is finite.
        t += -(1.0 - rng.unit()).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(foreign_share: f64) -> SliceSignal {
        SliceSignal {
            foreign_share,
            late: false,
        }
    }

    #[test]
    fn selection_reads_the_signal_never_the_value() {
        // Slice 1 is the slowest by far but quiet; slice 2 is fast but
        // was measured beside a busy neighbour.
        let signals = [sig(0.01), sig(0.02), sig(0.40), sig(0.00)];
        let values = [100.0, 10.0, 500.0, 101.0];
        let sel = select_clean(&signals);
        assert_eq!(sel.indices, vec![0, 1, 3]);
        assert!(!sel.disturbed);
        assert_eq!(clean_median(&values, &sel), 100.0);
        // The same signals with different values select the same slices.
        assert_eq!(select_clean(&signals), sel);
    }

    #[test]
    fn thirty_percent_poisoned_slices_do_not_move_the_median() {
        let mut signals = Vec::new();
        let mut values = Vec::new();
        for i in 0..20 {
            let poisoned = i % 10 < 3;
            signals.push(sig(if poisoned { 0.45 } else { 0.01 }));
            values.push(if poisoned {
                4_000.0
            } else {
                13_000.0 + i as f64
            });
        }
        let sel = select_clean(&signals);
        assert!(!sel.disturbed);
        assert_eq!(sel.indices.len(), 14);
        let m = clean_median(&values, &sel);
        assert!((13_000.0..13_020.0).contains(&m), "{m}");
    }

    #[test]
    fn mostly_disturbed_run_uses_the_quietest_half_and_says_so() {
        let signals = [sig(0.30), sig(0.06), sig(0.50), sig(0.02), sig(0.20)];
        let sel = select_clean(&signals);
        assert!(sel.disturbed);
        assert_eq!(sel.indices, vec![1, 3, 4]);
    }

    #[test]
    fn a_late_slice_is_not_clean() {
        let mut signals = vec![sig(0.0); 4];
        signals[2].late = true;
        assert_eq!(select_clean(&signals).indices, vec![0, 1, 3]);
    }

    #[test]
    fn poisson_schedule_is_identical_per_seed() {
        let a = poisson_schedule(7, 5_000.0, 2_000_000_000);
        let b = poisson_schedule(7, 5_000.0, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 5_000.0, 2_000_000_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 10 000 expected arrivals; five standard deviations is 500.
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
    }

    #[test]
    fn drift_compares_last_third_to_first() {
        assert_eq!(drift(&[10.0, 10.0, 10.0, 10.0, 10.0, 10.0]), 1.0);
        assert_eq!(drift(&[10.0, 10.0, 7.0, 7.0, 5.0, 5.0]), 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut s, 0.50), 50);
        assert_eq!(percentile(&mut s, 0.99), 99);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }
}
