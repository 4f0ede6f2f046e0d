//! Timing summaries: a median plus the highest percentile that still has
//! at least ten samples beyond it, always with the sample count.

/// Tail percentiles tried from the highest down.
const TAILS: [(f64, &str); 3] = [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")];

/// Samples a tail percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Summary of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The reported tail value.
    pub tail: f64,
    /// Which percentile `tail` is (`"max"` when no percentile has ten
    /// samples beyond it).
    pub tail_label: &'static str,
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q · n` samples at or below it.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank position of `q`.
fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Summarize `samples` (sorted in place). The tail is the highest
/// percentile at or below `cap` with at least ten samples beyond it, or
/// the maximum when there is none. `None` for an empty sample.
pub fn summarize(samples: &mut [f64], cap: f64) -> Option<Dist> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let (tail, tail_label) = TAILS
        .iter()
        .filter(|(q, _)| *q <= cap && beyond(n, *q) >= MIN_BEYOND)
        .map(|&(q, label)| (nearest_rank(samples, q), label))
        .next()
        .unwrap_or((samples[n - 1], "max"));
    Some(Dist {
        n,
        p50: nearest_rank(samples, 0.5),
        tail,
        tail_label,
    })
}

/// The median, over consecutive windows of `window` samples (in arrival
/// order), of each window's nearest-rank `q` percentile, and the number
/// of windows. A trailing partial window is dropped unless it is the only
/// one. A stall lands in one or two windows, so the result is the tail a
/// typical window sees. `None` for an empty sample.
pub fn windowed(samples: &[f64], window: usize, q: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut tails: Vec<f64> = samples
        .chunks(window.max(1))
        .filter(|w| w.len() == window || samples.len() < window)
        .map(|w| percentile(&mut w.to_vec(), q))
        .collect();
    let n = tails.len();
    Some((median(&mut tails), n))
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    nearest_rank(samples, q)
}

/// Median of an unsorted sample (0 when empty).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Fine log-scale histogram of nanosecond durations: 32 sub-buckets per
/// power of two (relative resolution ≈ 3%), exact below 64 ns. Cheap
/// enough to update on every policy call.
#[derive(Debug, Clone)]
pub struct NsHist {
    counts: Vec<u64>,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl Default for NsHist {
    fn default() -> Self {
        Self {
            counts: vec![0; ((64 - SUB_BITS as usize) + 2) * SUB as usize],
        }
    }
}

impl NsHist {
    fn index(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS + 1
        let mantissa = (v >> (exp - SUB_BITS)) & (SUB - 1);
        ((u64::from(exp - SUB_BITS) + 1) * SUB + mantissa) as usize
    }

    /// Lower bound of bucket `i` (its representative value).
    fn value(i: usize) -> u64 {
        let i = i as u64;
        if i < 2 * SUB {
            return i;
        }
        let exp = i / SUB - 1 + u64::from(SUB_BITS);
        (1 << exp) | ((i % SUB) << (exp - u64::from(SUB_BITS)))
    }

    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
    }

    /// Add another histogram's counts.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank quantile (bucket lower bound; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank never exceeds the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves 10.
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = summarize(&mut xs, 1.0).unwrap();
        assert_eq!((d.n, d.tail_label, d.tail), (1000, "p99", 990.0));
        assert_eq!(d.p50, 500.0);

        // 10 000 samples reach p99.9 (10 beyond) unless capped at p99.
        let mut xs: Vec<f64> = (1..=10_000).rev().map(f64::from).collect();
        let d = summarize(&mut xs, 1.0).unwrap();
        assert_eq!((d.n, d.tail_label, d.tail), (10_000, "p99.9", 9990.0));
        let d = summarize(&mut xs, 0.99).unwrap();
        assert_eq!((d.tail_label, d.tail), ("p99", 9900.0));

        // 999 samples: p99 would leave only 9 beyond, so p90 it is.
        let mut xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let d = summarize(&mut xs, 1.0).unwrap();
        assert_eq!((d.n, d.tail_label, d.tail), (999, "p90", 900.0));

        // Too few samples for any percentile: the maximum, labelled so.
        let mut xs = vec![3.0, 1.0, 2.0];
        let d = summarize(&mut xs, 1.0).unwrap();
        assert_eq!((d.n, d.p50, d.tail_label, d.tail), (3, 2.0, "max", 3.0));
        assert!(summarize(&mut [], 1.0).is_none());
    }

    #[test]
    fn windowed_tail_shrugs_off_a_stall_in_one_window() {
        // Five windows of 100: every sample 1.0, except a stall of 20
        // samples at 50.0 inside the third window.
        let mut xs = vec![1.0; 500];
        for x in &mut xs[220..240] {
            *x = 50.0;
        }
        assert_eq!(percentile(&mut xs.clone(), 0.99), 50.0);
        assert_eq!(windowed(&xs, 100, 0.99), Some((1.0, 5)));
        // A trailing partial window is dropped; a short sample is one window.
        xs.extend([9.0; 50]);
        assert_eq!(windowed(&xs, 100, 0.5), Some((1.0, 5)));
        assert_eq!(windowed(&xs[..50], 100, 0.5), Some((1.0, 1)));
        assert_eq!(windowed(&[], 100, 0.5), None);
    }

    #[test]
    fn ns_histogram_quantiles_are_within_its_resolution() {
        let mut h = NsHist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        for q in [0.01, 0.5, 0.9, 0.99] {
            let exact = q * 100_000.0;
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact).abs() <= exact / 16.0,
                "q={q}: {got} vs {exact}"
            );
        }
        // Exact region and bucket boundaries round-trip.
        for v in [0u64, 1, 63, 64, 65, 1 << 20, u64::MAX] {
            let i = NsHist::index(v);
            assert!(
                NsHist::value(i) <= v && NsHist::index(NsHist::value(i)) == i,
                "{v}"
            );
        }
    }
}
