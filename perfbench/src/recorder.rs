//! The benchmark's own latency recorder: a log-linear histogram with
//! `2^SUB_BITS` sub-buckets per power of two, so every bucket is at most
//! 1/128 of its lower edge wide (< 1% relative resolution). The engine's
//! `LogHistogram` has one bucket per power of two, which biases a p99 and
//! hides a 10% change; this one does not.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; above, `SUB` buckets per
/// power of two up to 2^64.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A mergeable nanosecond histogram with < 1% relative bucket width.
#[derive(Clone)]
pub struct LatencyRecorder {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) - SUB; // 0..SUB
    ((shift as u64 + 1) * SUB + mantissa) as usize
}

/// Inclusive lower edge and width of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    let mantissa = i % SUB;
    ((SUB + mantissa) << shift, 1u64 << shift)
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder { counts: vec![0; BUCKETS], total: 0, sum: 0 }
    }
}

impl LatencyRecorder {
    /// Records one value (nanoseconds).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
    }

    /// Adds another recorder's samples.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Samples recorded.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples.
    #[cfg(test)]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The `q` quantile: the sample of rank `ceil(q * n)` (the nearest-rank
    /// definition), placed inside its bucket by its rank among the bucket's
    /// samples; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bucket_range(i);
                let within = (rank - seen) as f64 - 0.5;
                return lo as f64 + (width - 1) as f64 * within / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_value_range() {
        for i in 0..BUCKETS - 1 {
            let (lo, w) = bucket_range(i);
            let (next, _) = bucket_range(i + 1);
            assert_eq!(lo + w, next, "bucket {i} must end where {} starts", i + 1);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + w - 1), i);
            assert!(lo < SUB || (w as f64) / (lo as f64) <= 1.0 / SUB as f64);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_a_sort_of_the_raw_samples_within_one_percent() {
        // Three shapes: a service-time-like body with a long tail, a
        // bimodal mix, and a wide uniform spread.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let shapes: Vec<Vec<u64>> = vec![
            (0..50_000)
                .map(|_| 2_000 + next() % 1_000 + (next() % 100 == 0) as u64 * 40_000)
                .collect(),
            (0..20_000)
                .map(|i| if i % 3 == 0 { 6_000 + next() % 500 } else { 9_000 + next() % 900 })
                .collect(),
            (0..30_000).map(|_| next() % 5_000_000).collect(),
        ];
        for samples in shapes {
            let mut rec = LatencyRecorder::default();
            samples.iter().for_each(|&v| rec.record(v));
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            assert_eq!(rec.count(), sorted.len() as u64);
            assert_eq!(rec.sum(), sorted.iter().map(|&v| u128::from(v)).sum::<u128>());
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let want = exact(&sorted, q);
                let got = rec.quantile(q);
                let err = (got - want).abs() / want.max(1.0);
                assert!(
                    err <= 0.01,
                    "q={q}: recorder {got} vs sorted {want} ({:.3}%)",
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) =
            (LatencyRecorder::default(), LatencyRecorder::default(), LatencyRecorder::default());
        for v in 0..10_000u64 {
            let x = v * v % 77_777;
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.counts, all.counts);
        assert_eq!(a.quantile(0.5), all.quantile(0.5));
    }

    #[test]
    fn empty_recorder_reads_zero() {
        assert_eq!(LatencyRecorder::default().quantile(0.5), 0.0);
    }
}
