//! Fixed-memory, mergeable log-bucket latency histogram.
//!
//! Values are nanoseconds. Below 128 every value has its own bucket; above,
//! each power-of-two octave is split into 128 equal sub-buckets, so a bucket
//! is at most 1/128 of its lower bound wide and whatever the histogram
//! reports for it is within 0.8 % of any value that landed in it. Memory is
//! `BUCKETS` counters regardless of how many samples are recorded, and two
//! histograms merge by adding counters — which is what lets every percentile
//! in the benchmark come from here instead of a sorted `Vec`.

/// Sub-buckets per octave (and the size of the exact region).
const SUB: usize = 128;
/// Octaves above the exact region: covers up to 2^47 ns (≈ 39 hours).
const OCTAVES: usize = 40;
const BUCKETS: usize = SUB * (OCTAVES + 1);

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize; // >= 7
    let k = e - 6; // octave number, >= 1
    let m = (v >> (e - 7)) as usize; // in [128, 255]
    (k * SUB + (m - SUB)).min(BUCKETS - 1)
}

/// Smallest value of bucket `i` and how many values it spans.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let k = i / SUB;
    let m = (SUB + i % SUB) as u64;
    (m << (k - 1), 1 << (k - 1))
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            n: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The smallest value `x` such that at least `p` (in `[0, 1]`) of the
    /// samples are `<= x`, to bucket resolution; 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                // Samples are taken to lie evenly across their bucket, so
                // the value moves with the rank instead of jumping from one
                // bucket's midpoint to the next. The extremes are known
                // exactly; never report a value outside the recorded range.
                let (lower, width) = bounds(i);
                let into = (rank - seen) as f64 - 0.5;
                let x = lower as f64 + (width - 1) as f64 * into / c as f64;
                return x.clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// The highest "number of nines" percentile that still has at least ten
    /// samples beyond it, as `(p, value)`; `None` below 20 samples.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        if self.n < 20 {
            return None;
        }
        let mut p = 0.5;
        for cand in [0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999] {
            if (1.0 - cand) * self.n as f64 >= 10.0 {
                p = cand;
            }
        }
        Some((p, self.percentile(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc::datagen::Rng64;

    /// Exact percentile by the same rank rule, from a sorted copy.
    fn exact(sorted: &[u64], p: f64) -> f64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    /// Heavy-tailed latencies like the ones the benchmark sees: a sub-µs
    /// body, a tens-of-µs shoulder and rare multi-ms outliers.
    fn seeded(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let body = 400.0 + 900.0 * rng.f64();
                let x = match rng.below(100) {
                    0 => body * 4000.0 * (1.0 + rng.f64()),
                    1..=9 => body * 60.0 * (1.0 + rng.f64()),
                    _ => body,
                };
                x as u64
            })
            .collect()
    }

    #[test]
    fn percentiles_within_one_percent_of_exact() {
        for seed in [1, 2, 3] {
            let data = seeded(seed, 200_000);
            let mut h = Hist::new();
            data.iter().for_each(|&v| h.record(v));
            let mut sorted = data;
            sorted.sort_unstable();
            for p in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
                let (got, want) = (h.percentile(p), exact(&sorted, p));
                assert!(
                    (got - want).abs() <= want * 0.01,
                    "seed {seed} p{p}: hist {got} vs exact {want}"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        (0..128u64).for_each(|v| h.record(v));
        assert_eq!(h.percentile(0.5), 63.0);
        assert_eq!(h.percentile(1.0), 127.0);
        assert_eq!(h.percentile(0.0), 0.0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (a, b) = (seeded(7, 50_000), seeded(8, 70_000));
        let (mut ha, mut hb, mut all) = (Hist::new(), Hist::new(), Hist::new());
        a.iter().for_each(|&v| {
            ha.record(v);
            all.record(v)
        });
        b.iter().for_each(|&v| {
            hb.record(v);
            all.record(v)
        });
        ha.merge(&hb);
        assert_eq!(ha.count(), all.count());
        for p in [0.5, 0.99, 0.9999] {
            assert_eq!(ha.percentile(p), all.percentile(p));
        }
    }

    #[test]
    fn bucket_error_bound_holds_across_the_range() {
        let mut v = 1u64;
        while v < 1 << 46 {
            for x in [v, v + v / 3, v + v / 2, 2 * v - 1] {
                let (lower, width) = bounds(index(x));
                assert!(lower <= x && x < lower + width, "{x} not in its bucket");
                assert!(
                    width == 1 || width as f64 <= x as f64 * 0.01,
                    "{x}: bucket {width} wide"
                );
            }
            v *= 2;
        }
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        let mut h = Hist::new();
        (0..5_000u64).for_each(|v| h.record(v));
        assert_eq!(h.highest_supported().map(|(p, _)| p), Some(0.99));
        (0..5_000u64).for_each(|v| h.record(v));
        assert_eq!(h.highest_supported().map(|(p, _)| p), Some(0.999));
        assert!(Hist::new().highest_supported().is_none());
    }
}
