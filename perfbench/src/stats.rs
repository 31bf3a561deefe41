//! Sample statistics under the benchmark's reporting rules.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is one or two outliers, not a
/// percentile.
pub const MIN_TAIL: usize = 10;

/// Kilometres of location uncertainty per microsecond of round trip:
/// light in fibre covers about 200 km per ms one way, so 1 ms of
/// round-trip time is about 100 km of distance a relay can hide in.
pub const KM_PER_RTT_US: f64 = 0.1;

/// The `q`-quantile of ascending `sorted` by nearest rank, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond that rank.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    rank_beyond(sorted.len(), q).map(|rank| sorted[rank - 1])
}

/// The `q`-quantile of `v` with linear interpolation between order
/// statistics (so `q = 0.5` averages the middle pair).
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Sub-buckets per power of two: under 1% relative error.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// Counts of `u64` samples in log-linear buckets: exact below 128, then
/// 128 buckets per power of two. Its size is fixed, so pooling a whole
/// run's samples costs the same memory however fast the code runs.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u32>,
    n: usize,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB],
            n: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as usize + 1) << SUB_BITS) + (v >> shift) as usize - SUB
    }

    /// The smallest value that falls in bucket `b`.
    fn low(b: usize) -> u64 {
        if b < SUB {
            return b as u64;
        }
        (((b & (SUB - 1)) + SUB) as u64) << ((b >> SUB_BITS) - 1)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    pub fn extend(&mut self, vs: &[u64]) {
        vs.iter().for_each(|&v| self.record(v));
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// [`percentile`] over the pooled samples, as the lower edge of the
    /// bucket that holds the rank.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let rank = rank_beyond(self.n, q)?;
        let mut seen = 0;
        self.counts
            .iter()
            .position(|&c| {
                seen += c as usize;
                seen >= rank
            })
            .map(Self::low)
    }
}

/// Nearest rank of the `q`-quantile of `n` samples, when at least
/// [`MIN_TAIL`] samples lie beyond it.
fn rank_beyond(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL).then_some(rank)
}

/// Distance a relaying prover could hide in a round trip of `rtt_us`.
pub fn rtt_us_to_km(rtt_us: f64) -> f64 {
    rtt_us * KM_PER_RTT_US
}

/// Nanoseconds to the unit named by `per_ns` (1e3 for µs, 1e6 for ms).
pub fn scaled(ns: u64, per_ns: f64) -> f64 {
    ns as f64 / per_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(
            percentile(&short, 0.99),
            None,
            "only 9 samples beyond rank 990"
        );
    }

    #[test]
    fn median_of_small_sets_is_reported() {
        let s: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&s, 0.5), Some(11));
        assert_eq!(percentile(&[7], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(vec![4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(vec![4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(vec![1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn histogram_buckets_hold_their_lower_edges() {
        for v in [0, 1, 127, 128, 255, 256, 257, 1 << 20, u64::MAX] {
            let b = Hist::bucket(v);
            assert!(Hist::low(b) <= v, "{v}");
            assert!(
                b + 1 == Hist::default().counts.len() || Hist::low(b + 1) > v,
                "{v}"
            );
        }
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = Hist::default();
        let samples: Vec<u64> = (1..=5000).map(|i| i * 37).collect();
        h.extend(&samples);
        assert_eq!(h.len(), 5000);
        for q in [0.5, 0.99] {
            let exact = percentile(&samples, q).expect("enough samples") as f64;
            let binned = h.percentile(q).expect("enough samples") as f64;
            assert!(binned <= exact && exact - binned < exact / 100.0, "{q}");
        }
        // The ten-beyond rule applies to pooled samples too.
        let mut short = Hist::default();
        short.extend(&samples[..999]);
        assert_eq!(short.percentile(0.99), None);
    }

    #[test]
    fn rtt_converts_to_relay_slack() {
        assert!((rtt_us_to_km(35.0) - 3.5).abs() < 1e-12);
        // 1 ms of round trip is the paper-scale 100 km.
        assert!((rtt_us_to_km(1000.0) - 100.0).abs() < 1e-9);
        // The paper's 16 ms budget allows 1600 km.
        assert!((rtt_us_to_km(16_000.0) - 1600.0).abs() < 1e-9);
    }
}
