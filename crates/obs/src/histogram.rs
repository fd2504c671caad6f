//! Log-linear histogram buckets for latency- and cost-shaped data.
//!
//! Means hide the paper's pathologies: one breaker-open backoff of 2¹⁴
//! simulated seconds disappears inside ten thousand 1-tick waits. A
//! logarithmic histogram keeps the tail visible at a fixed cost — but
//! pure power-of-two buckets proved too coarse at the bottom end
//! (BENCH_5.json reported `queue_wait_us` p50 == p95 == 63 because the
//! whole distribution fit in the `[32, 63]` octave). Each octave is
//! therefore split into 4 linear sub-buckets, bounding the relative
//! quantization error at ~25% across the entire `u64` range.
//!
//! A histogram is a plain `[u64; BUCKETS]` of counts, kept by its owner
//! under whatever lock guards the rest of its state: the service totals'
//! histograms live under the stats hub's lock, the windowed ones in
//! [`crate::window`].

/// Number of buckets: 4 singleton buckets for values `0..=3`, then 4
/// linear sub-buckets per octave for the remaining 62 octaves of a
/// `u64` (`4 + 62 × 4 = 252`).
pub const BUCKETS: usize = 252;

/// The bucket a value lands in: values `0..=3` each get their own
/// bucket; above that, the octave `[2^e, 2^(e+1))` is split into 4 equal
/// linear sub-buckets keyed by the two bits below the most significant
/// bit.
pub fn bucket_index(value: u64) -> usize {
    if value < 4 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros() as usize;
        4 + (msb - 2) * 4 + ((value >> (msb - 2)) & 3) as usize
    }
}

/// `[low, high]` inclusive value bounds of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < 4 {
        (index as u64, index as u64)
    } else {
        let exp = (index - 4) / 4 + 2;
        let sub = ((index - 4) % 4) as u128;
        let lo = (4 + sub) << (exp - 2);
        let hi = ((5 + sub) << (exp - 2)) - 1;
        (
            u64::try_from(lo).unwrap_or(u64::MAX),
            u64::try_from(hi).unwrap_or(u64::MAX),
        )
    }
}

/// Counts one observation of `value` in `counts`.
pub fn record(counts: &mut [u64; BUCKETS], value: u64) {
    if let Some(bucket) = counts.get_mut(bucket_index(value)) {
        *bucket += 1;
    }
}

/// Renders the non-empty buckets of a histogram as `lo..=hi  count`
/// rows, one per line, each indented two spaces — the shared
/// presentation for metrics text output and trace summaries. Empty
/// histograms render as an empty string.
pub fn render_buckets(counts: &[u64; BUCKETS]) -> String {
    let mut out = String::new();
    for (i, &n) in counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let (lo, hi) = bucket_bounds(i);
        let range = if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}..={hi}")
        };
        out.push_str(&format!("  {range:<24}{n}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(5), 5);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(9), 8);
        assert_eq!(bucket_index(10), 9);
        assert_eq!(bucket_index(63), 19);
        assert_eq!(bucket_index(64), 20);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bounds_cover_the_domain_without_gaps() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i} starts where the previous ended");
            assert!(hi >= lo);
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            next = hi + 1;
        }
        panic!("top bucket never reached u64::MAX");
    }

    #[test]
    fn index_and_bounds_agree() {
        for v in [
            0,
            1,
            3,
            4,
            7,
            8,
            31,
            32,
            63,
            64,
            100,
            1000,
            1 << 40,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn sub_buckets_resolve_within_an_octave() {
        // The [32, 63] octave that flattened queue_wait_us in BENCH_5
        // now splits into four buckets: 32..=39, 40..=47, 48..=55, 56..=63.
        let mut seen = std::collections::BTreeSet::new();
        for v in 32..64u64 {
            seen.insert(bucket_index(v));
        }
        assert_eq!(seen.len(), 4, "buckets: {seen:?}");
    }

    #[test]
    fn record_counts_each_value_in_its_bucket() {
        let mut counts = [0u64; BUCKETS];
        for v in [0, 1, 1, 3, 200, 200, 200] {
            record(&mut counts, v);
        }
        assert_eq!(counts[0], 1, "one zero");
        assert_eq!(counts[1], 2, "two ones");
        assert_eq!(counts[3], 1, "one three");
        assert_eq!(counts[bucket_index(200)], 3, "three values of 200");
        assert_eq!(counts.iter().sum::<u64>(), 7);
    }

    #[test]
    fn render_shows_only_nonzero_buckets() {
        let mut counts = [0u64; BUCKETS];
        for v in [0, 5, 100] {
            record(&mut counts, v);
        }
        let text = render_buckets(&counts);
        assert!(text.contains("0                       1"), "text: {text}");
        assert!(text.contains("5                       1"), "text: {text}");
        assert!(text.contains("96..=111                1"), "text: {text}");
        assert_eq!(text.lines().count(), 3);
        assert!(render_buckets(&[0; BUCKETS]).is_empty());
    }
}
