//! Measurement primitives used by the benchmark harness.
//!
//! The paper reports medians/representative latencies (Table 1), a stage
//! breakdown (Figure 6) and throughput series (Figures 7 and 8). These
//! types collect exactly that: latency histograms with percentiles and
//! byte-rate meters that convert to the paper's unit (Mbit/s).

use crate::time::{SimDuration, SimTime};

/// A latency histogram storing exact samples.
///
/// Experiments in this workspace collect at most a few hundred thousand
/// samples, so we keep them all: exact percentiles beat bucketing error,
/// and sorting once at report time is cheap.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    pub fn record_nanos(&mut self, ns: u64) {
        self.samples.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The p-th percentile (0.0 ..= 1.0) using nearest-rank. Returns zero
    /// on an empty histogram.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let rank = ((p.clamp(0.0, 1.0)) * (self.samples.len() - 1) as f64).round() as usize;
        SimDuration::from_nanos(self.samples[rank])
    }

    pub fn median(&mut self) -> SimDuration {
        self.percentile(0.5)
    }

    pub fn min(&mut self) -> SimDuration {
        self.percentile(0.0)
    }

    pub fn max(&mut self) -> SimDuration {
        self.percentile(1.0)
    }

    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|&s| s as u128).sum();
        SimDuration::from_nanos((total / self.samples.len() as u128) as u64)
    }
}

/// A log-bucketed latency histogram with bounded memory.
///
/// [`Histogram`] stores every sample exactly, which is the right trade
/// for the paper-fidelity benches (a few hundred thousand samples,
/// exact percentiles). The load engine drives millions of requests,
/// where an exact store would grow without bound — `BucketHist` instead
/// keeps HdrHistogram-style log-linear buckets: values below 64 ns are
/// exact, and each power-of-two magnitude above that is split into 64
/// linear sub-buckets. A recorded value lands in a bucket whose width
/// is at most 1/64 of its lower bound, so any reported percentile is
/// within **1/128 ≈ 0.8 % relative error** of the true sample (well
/// inside the documented ≤ 2 % bound), from a fixed ~30 KiB table
/// covering the full `u64` nanosecond range.
///
/// Use [`Histogram`] when sample counts are small and exactness
/// matters (Table 1, Figures 6–8); use `BucketHist` for unbounded
/// streams where memory must stay constant (the `nectar-load` sweeps).
#[derive(Clone, Debug)]
pub struct BucketHist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Linear sub-buckets per power-of-two magnitude (the error knob).
const SUB_BUCKETS: usize = 64;
/// log2(SUB_BUCKETS): values below `1 << SUB_SHIFT` are exact.
const SUB_SHIFT: u32 = 6;
/// One run of SUB_BUCKETS per magnitude 6..=63, plus the exact range.
const BUCKET_COUNT: usize = SUB_BUCKETS * (64 - SUB_SHIFT as usize) + SUB_BUCKETS;

impl Default for BucketHist {
    fn default() -> Self {
        BucketHist { counts: vec![0; BUCKET_COUNT], total: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl BucketHist {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: identity below 64, then
    /// `64*(k-6) + (v >> (k-6))` where `k` is the value's MSB position.
    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let k = 63 - v.leading_zeros();
        let shift = k - SUB_SHIFT;
        SUB_BUCKETS * shift as usize + (v >> shift) as usize
    }

    /// Lower bound and width of bucket `idx` (inverse of [`Self::index`]).
    fn bucket_range(idx: usize) -> (u64, u64) {
        if idx < 2 * SUB_BUCKETS {
            return (idx as u64, 1);
        }
        let major = idx / SUB_BUCKETS; // ≥ 2
        let sub = (idx % SUB_BUCKETS + SUB_BUCKETS) as u64;
        let shift = (major - 1) as u32;
        (sub << shift, 1 << shift)
    }

    pub fn record(&mut self, d: SimDuration) {
        self.record_nanos(d.as_nanos());
    }

    pub fn record_nanos(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.sum += ns as u128;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    pub fn len(&self) -> usize {
        self.total as usize
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Merge another histogram's counts into this one.
    pub fn merge(&mut self, other: &BucketHist) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The p-th percentile (0.0 ..= 1.0), nearest-rank like
    /// [`Histogram::percentile`]. The returned value is the recorded
    /// minimum/maximum at the extremes and a bucket midpoint otherwise,
    /// clamped into the observed range. Zero on an empty histogram.
    pub fn percentile(&self, p: f64) -> SimDuration {
        SimDuration::from_nanos(self.percentile_nanos(p))
    }

    pub fn percentile_nanos(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0)) * (self.total - 1) as f64).round() as u64;
        // the extremes are tracked exactly; report them exactly
        if rank == 0 {
            return self.min;
        }
        if rank == self.total - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                let (lo, width) = Self::bucket_range(idx);
                let mid = lo + width / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn median(&self) -> SimDuration {
        self.percentile(0.5)
    }

    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(if self.total == 0 { 0 } else { self.min })
    }

    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }

    /// Exact mean (the running sum is kept exactly).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum / self.total as u128) as u64)
    }
}

/// Measures achieved throughput over a window of simulated time.
#[derive(Clone, Copy, Debug, Default)]
pub struct RateMeter {
    bytes: u64,
    started: Option<SimTime>,
    last: Option<SimTime>,
}

impl RateMeter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` payload bytes delivered at time `now`. The first call
    /// starts the measurement window.
    pub fn record(&mut self, now: SimTime, n: usize) {
        if self.started.is_none() {
            self.started = Some(now);
        }
        self.last = Some(now);
        self.bytes += n as u64;
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Throughput in Mbit/s (the paper's unit) over the window from first
    /// record to `end`.
    fn mbits_per_sec(&self, end: SimTime) -> f64 {
        match self.started {
            None => 0.0,
            Some(start) => {
                let secs = (end - start).as_secs_f64();
                if secs <= 0.0 {
                    0.0
                } else {
                    self.bytes as f64 * 8.0 / 1e6 / secs
                }
            }
        }
    }

    /// Throughput over the window from first to last recorded delivery.
    pub fn mbits_per_sec_to_last(&self) -> f64 {
        match self.last {
            None => 0.0,
            Some(last) => self.mbits_per_sec(last),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for us in [5u64, 1, 9, 3, 7] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.median(), SimDuration::from_micros(5));
        assert_eq!(h.min(), SimDuration::from_micros(1));
        assert_eq!(h.max(), SimDuration::from_micros(9));
        assert_eq!(h.mean(), SimDuration::from_micros(5));
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.median(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_interleaved_record_and_query() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(10));
        assert_eq!(h.median(), SimDuration::from_micros(10));
        h.record(SimDuration::from_micros(2));
        assert_eq!(h.min(), SimDuration::from_micros(2));
    }

    /// Feed identical streams to the exact and bucketed histograms and
    /// require every reported percentile within the documented 2 %
    /// relative error bound (the construction guarantees ≤ 1/128).
    fn assert_percentiles_close(samples: &[u64]) {
        let mut exact = Histogram::new();
        let mut bucket = BucketHist::new();
        for &s in samples {
            exact.record_nanos(s);
            bucket.record_nanos(s);
        }
        assert_eq!(exact.len(), bucket.len());
        for p in [0.0, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let e = exact.percentile(p).as_nanos();
            let b = bucket.percentile(p).as_nanos();
            let err = (e as i128 - b as i128).unsigned_abs();
            let bound = (e as u128) * 2 / 100 + 1; // ≤2% relative (+1 ns slack at zero)
            assert!(
                err <= bound,
                "p{p}: exact={e} bucketed={b} err={err} bound={bound} (n={})",
                samples.len()
            );
        }
    }

    #[test]
    fn bucket_hist_tracks_exact_histogram_on_uniform_stream() {
        let mut g = crate::rng::Pcg32::seeded(0x10ad);
        let samples: Vec<u64> = (0..40_000).map(|_| g.range(1, 5_000_000) as u64).collect();
        assert_percentiles_close(&samples);
    }

    #[test]
    fn bucket_hist_tracks_exact_histogram_on_exponential_stream() {
        // long-tailed, like real latency distributions
        let mut g = crate::rng::Pcg32::seeded(0xbeef);
        let samples: Vec<u64> = (0..40_000).map(|_| g.exp(250_000.0) as u64 + 1).collect();
        assert_percentiles_close(&samples);
    }

    #[test]
    fn bucket_hist_small_values_are_exact() {
        // values below 64 ns (and up to 127 ns) land in unit buckets
        let samples: Vec<u64> = (0..128).collect();
        let mut b = BucketHist::new();
        for &s in &samples {
            b.record_nanos(s);
        }
        assert_eq!(b.percentile(0.0).as_nanos(), 0);
        assert_eq!(b.percentile(1.0).as_nanos(), 127);
        assert_eq!(b.median().as_nanos(), 64); // nearest-rank on 0..=127
        assert_eq!(b.min().as_nanos(), 0);
        assert_eq!(b.max().as_nanos(), 127);
    }

    #[test]
    fn bucket_hist_empty_and_mean() {
        let b = BucketHist::new();
        assert!(b.is_empty());
        assert_eq!(b.percentile(0.5), SimDuration::ZERO);
        assert_eq!(b.mean(), SimDuration::ZERO);
        let mut b = BucketHist::new();
        b.record(SimDuration::from_micros(2));
        b.record(SimDuration::from_micros(4));
        assert_eq!(b.mean(), SimDuration::from_micros(3));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn bucket_hist_merge_matches_combined_stream() {
        let mut g = crate::rng::Pcg32::seeded(7);
        let a: Vec<u64> = (0..5_000).map(|_| g.range(10, 1 << 40) as u64).collect();
        let b: Vec<u64> = (0..5_000).map(|_| g.range(10, 1 << 20) as u64).collect();
        let mut ha = BucketHist::new();
        let mut hb = BucketHist::new();
        let mut hall = BucketHist::new();
        for &s in &a {
            ha.record_nanos(s);
            hall.record_nanos(s);
        }
        for &s in &b {
            hb.record_nanos(s);
            hall.record_nanos(s);
        }
        ha.merge(&hb);
        assert_eq!(ha.len(), hall.len());
        assert_eq!(ha.mean(), hall.mean());
        for p in [0.01, 0.5, 0.99] {
            assert_eq!(ha.percentile(p), hall.percentile(p));
        }
    }

    #[test]
    fn bucket_hist_extreme_magnitudes_stay_in_bounds() {
        // the full u64 range maps into the fixed table without panicking
        let mut b = BucketHist::new();
        for v in [0, 1, 63, 64, 127, 128, u32::MAX as u64, 1 << 40, u64::MAX / 2, u64::MAX] {
            b.record_nanos(v);
        }
        assert_eq!(b.len(), 10);
        assert_eq!(b.min().as_nanos(), 0);
        assert_eq!(b.max().as_nanos(), u64::MAX);
        // p100 reports the exact recorded max
        assert_eq!(b.percentile(1.0).as_nanos(), u64::MAX);
    }

    #[test]
    fn rate_meter_computes_mbps() {
        let mut m = RateMeter::new();
        m.record(SimTime::ZERO, 0);
        // 1 MB over 1 second = 8 Mbit/s
        m.record(SimTime::ZERO + SimDuration::from_secs(1), 1_000_000);
        let mbps = m.mbits_per_sec(SimTime::ZERO + SimDuration::from_secs(1));
        assert!((mbps - 8.0).abs() < 1e-9, "mbps={mbps}");
        assert!((m.mbits_per_sec_to_last() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rate_meter_empty_and_zero_window() {
        let m = RateMeter::new();
        assert_eq!(m.mbits_per_sec(SimTime::ZERO), 0.0);
        let mut m = RateMeter::new();
        m.record(SimTime::ZERO, 100);
        assert_eq!(m.mbits_per_sec(SimTime::ZERO), 0.0);
    }
}
