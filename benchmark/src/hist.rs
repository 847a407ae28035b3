//! Fixed-size log-linear latency histogram.
//!
//! `stm_perf::hist::LatencyHist` splits each octave into 8 buckets and
//! reports bucket midpoints: a 12.5 % step, wider than the 10 % bounds
//! this benchmark gates on, and a p50 that reads exactly the same on
//! every run. This one splits each octave into 128 buckets (0.8 %) and
//! interpolates inside the bucket, at a fixed 58 KiB, so recording
//! latencies never grows the process the benchmark is measuring.

const SUB_BITS: u32 = 7;
const SUBS: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS as usize;

/// A percentile needs this many samples beyond it to be reported.
const MIN_BEYOND: u64 = 10;

fn index_for(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let m = 63 - v.leading_zeros();
        let sub = (v >> (m - SUB_BITS)) & (SUBS - 1);
        ((m - SUB_BITS + 1) as u64 * SUBS + sub) as usize
    }
}

/// Smallest value of bucket `idx`, and the bucket's width.
fn bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUBS {
        (idx, 1)
    } else {
        let shift = (idx >> SUB_BITS) as u32 - 1;
        ((SUBS + (idx & (SUBS - 1))) << shift, 1 << shift)
    }
}

/// The 1-based rank a percentile is read at: `ceil(p · n)`, lowered
/// until [`MIN_BEYOND`] samples lie beyond it, but never below the
/// median's rank.
fn rank_for(count: u64, p: f64) -> u64 {
    let want = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
    let median = count.div_ceil(2).max(1);
    if p <= 50.0 {
        return want.min(count);
    }
    want.min(count.saturating_sub(MIN_BEYOND)).max(median)
}

/// Histogram of nanosecond samples.
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            buckets: vec![0; BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.buckets[index_for(nanos)] += 1;
        self.count += 1;
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &Hist) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += *src;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Value at percentile `p` (see [`rank_for`]), in nanoseconds,
    /// interpolated linearly inside the bucket that holds the rank.
    /// 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = rank_for(self.count, p);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, width) = bounds(idx);
                let within = (rank - seen) as f64 - 0.5;
                let v = lo as f64 + width as f64 * within / n as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_map_tiles_the_range() {
        let mut next = 0u64;
        for idx in 0..BUCKETS - 1 {
            let (lo, width) = bounds(idx);
            assert_eq!(lo, next, "gap before bucket {idx}");
            assert_eq!(index_for(lo), idx);
            assert_eq!(index_for(lo + width - 1), idx);
            next = lo + width;
        }
        assert_eq!(index_for(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_is_within_one_bucket_of_the_sample() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v * 7);
        }
        for p in [1.0, 25.0, 50.0, 90.0, 99.0] {
            let exact = (p / 100.0 * 100_000.0_f64).ceil() * 7.0;
            let got = h.percentile(p);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "p{p}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 2000 samples: p99 is rank 1980, 20 beyond -> kept.
        assert_eq!(rank_for(2000, 99.0), 1980);
        // 500 samples: p99 would be rank 495 with 5 beyond -> rank 490.
        assert_eq!(rank_for(500, 99.0), 490);
        // 15 samples: ten beyond would fall below the median -> median.
        assert_eq!(rank_for(15, 99.0), 8);
        assert_eq!(rank_for(3, 99.0), 2);
        // The median itself is never moved.
        assert_eq!(rank_for(3, 50.0), 2);
        assert_eq!(rank_for(500, 50.0), 250);

        let mut h = Hist::new();
        for v in 1..=500u64 {
            h.record(v * 1000);
        }
        let p99 = h.percentile(99.0);
        assert!((p99 - 490_000.0).abs() < 4_000.0, "{p99}");
    }

    #[test]
    fn interpolation_moves_with_the_rank() {
        // All samples in one bucket: a coarse histogram would report
        // the midpoint for every percentile.
        let mut h = Hist::new();
        for i in 0..2000 {
            h.record(1_000_000 + i);
        }
        assert_eq!(index_for(1_000_000), index_for(1_001_999));
        let (p25, p50, p75) = (h.percentile(25.0), h.percentile(50.0), h.percentile(75.0));
        assert!(p25 < p50 && p50 < p75, "{p25} {p50} {p75}");
        for (got, exact) in [(p25, 1_000_500.0), (p50, 1_001_000.0), (p75, 1_001_500.0)] {
            assert!((got - exact).abs() / exact < 0.005, "{got} vs {exact}");
        }
    }

    #[test]
    fn merge_adds_the_samples() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        a.record(10);
        for _ in 0..3 {
            b.record(1_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!((a.percentile(25.0) - 10.0).abs() < 1.0);
        assert_eq!(a.percentile(50.0), 1_000.0);
        assert_eq!(Hist::new().percentile(50.0), 0.0);
    }
}
