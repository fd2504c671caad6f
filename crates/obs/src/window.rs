//! Rotating-window time series on the logical telemetry clock.
//!
//! Cumulative counters answer "how much since boot"; an operator
//! watching `ma-cli serve` needs "how much *lately*". These types slice
//! the [`crate::TelemetryClock`] tick stream into fixed-width windows
//! with bounded retention, so rates, gauges and latency percentiles can
//! be read per-window without unbounded memory. Everything here is a
//! pure function of the `(tick, value)` observation stream — no wall
//! time, no RNG — so two identical runs under the logical clock produce
//! byte-identical window histories, and the stats stream built on top
//! is golden-testable just like traces are (DESIGN.md §14).

use std::collections::VecDeque;

use crate::histogram::{self, bucket_bounds, BUCKETS};

/// Default window width in telemetry-clock ticks.
pub const DEFAULT_WINDOW_TICKS: u64 = 1024;

/// Default number of windows retained for history/sparklines.
pub const DEFAULT_RETAIN: usize = 16;

/// Aggregates of one window of observations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Window number: `tick / width`.
    pub index: u64,
    /// Observations recorded in this window.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when the window is empty).
    pub min: u64,
    /// Largest observed value (0 when the window is empty).
    pub max: u64,
    /// Most recent observed value — the gauge reading of the window.
    pub last: u64,
}

impl WindowStats {
    fn empty(index: u64) -> Self {
        WindowStats {
            index,
            ..WindowStats::default()
        }
    }

    fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.last = value;
    }
}

/// A bounded series of fixed-width windows over `(tick, value)`
/// observations; the storage behind rate and gauge telemetry.
///
/// Retained windows are contiguous in index (gaps are filled with empty
/// windows), the oldest are evicted once `retain` is exceeded, and an
/// observation older than the oldest retained window is dropped — the
/// series never rewrites history it already published.
#[derive(Clone, Debug)]
pub struct WindowedSeries {
    width: u64,
    retain: usize,
    windows: VecDeque<WindowStats>,
}

impl WindowedSeries {
    /// A series of `retain` windows, each `width` ticks wide (both
    /// clamped to at least 1).
    pub fn new(width: u64, retain: usize) -> Self {
        WindowedSeries {
            width: width.max(1),
            retain: retain.max(1),
            windows: VecDeque::new(),
        }
    }

    /// Window width in ticks.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Maximum windows retained.
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// Records one observation stamped at `tick`.
    pub fn record(&mut self, tick: u64, value: u64) {
        let index = tick / self.width;
        if let Some(offset) = self.roll_to(index) {
            if let Some(window) = self.windows.get_mut(offset) {
                window.observe(value);
            }
        }
    }

    /// Ensures a window for `index` exists and returns its queue offset;
    /// `None` when `index` predates the oldest retained window.
    fn roll_to(&mut self, index: u64) -> Option<usize> {
        let first_keep = index.saturating_sub(self.retain as u64 - 1);
        match self.windows.back() {
            None => self.windows.push_back(WindowStats::empty(index)),
            Some(back) if index > back.index => {
                let mut next = back.index + 1;
                if next < first_keep {
                    // The gap alone exceeds retention: everything held
                    // falls out of the horizon.
                    self.windows.clear();
                    next = first_keep;
                }
                while next <= index {
                    self.windows.push_back(WindowStats::empty(next));
                    next += 1;
                }
            }
            Some(_) => {}
        }
        while self.windows.len() > self.retain {
            self.windows.pop_front();
        }
        let front = self.windows.front()?.index;
        if index < front {
            return None;
        }
        Some((index - front) as usize)
    }

    /// The retained windows, oldest first.
    pub fn snapshot(&self) -> Vec<WindowStats> {
        self.windows.iter().copied().collect()
    }

    /// The newest retained window, if any.
    pub fn latest(&self) -> Option<WindowStats> {
        self.windows.back().copied()
    }

    /// Total observations across retained windows.
    pub fn retained_count(&self) -> u64 {
        self.windows.iter().map(|w| w.count).sum()
    }

    /// Total observed value across retained windows (saturating).
    pub fn retained_sum(&self) -> u64 {
        self.windows
            .iter()
            .fold(0u64, |acc, w| acc.saturating_add(w.sum))
    }
}

/// A rotating-window log-linear histogram ([`crate::histogram`]):
/// per-window bucket counts with bounded retention, plus percentile
/// extraction over the retained horizon. Same rotation semantics as
/// [`WindowedSeries`].
#[derive(Clone, Debug)]
pub struct WindowedHistogram {
    width: u64,
    retain: usize,
    windows: VecDeque<(u64, [u64; BUCKETS])>,
}

impl WindowedHistogram {
    /// A histogram of `retain` windows, each `width` ticks wide.
    pub fn new(width: u64, retain: usize) -> Self {
        WindowedHistogram {
            width: width.max(1),
            retain: retain.max(1),
            windows: VecDeque::new(),
        }
    }

    /// Window width in ticks.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Records one observation stamped at `tick`.
    pub fn record(&mut self, tick: u64, value: u64) {
        let index = tick / self.width;
        let first_keep = index.saturating_sub(self.retain as u64 - 1);
        match self.windows.back() {
            None => self.windows.push_back((index, [0; BUCKETS])),
            Some(&(back, _)) if index > back => {
                let mut next = back + 1;
                if next < first_keep {
                    self.windows.clear();
                    next = first_keep;
                }
                while next <= index {
                    self.windows.push_back((next, [0; BUCKETS]));
                    next += 1;
                }
            }
            Some(_) => {}
        }
        while self.windows.len() > self.retain {
            self.windows.pop_front();
        }
        let Some(&(front, _)) = self.windows.front() else {
            return;
        };
        if index < front {
            return;
        }
        let offset = (index - front) as usize;
        if let Some((_, counts)) = self.windows.get_mut(offset) {
            histogram::record(counts, value);
        }
    }

    /// The retained `(window index, bucket counts)` pairs, oldest first.
    pub fn snapshot(&self) -> Vec<(u64, [u64; BUCKETS])> {
        self.windows.iter().copied().collect()
    }

    /// Bucket counts merged across the retained horizon.
    pub fn merged(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (_, counts) in &self.windows {
            for (slot, n) in out.iter_mut().zip(counts.iter()) {
                *slot = slot.saturating_add(*n);
            }
        }
        out
    }

    /// Observations across the retained horizon.
    pub fn count(&self) -> u64 {
        self.merged().iter().sum()
    }

    /// Per-window observation counts, oldest first — the sparkline feed.
    pub fn window_counts(&self) -> Vec<u64> {
        self.windows
            .iter()
            .map(|(_, counts)| counts.iter().sum())
            .collect()
    }

    /// Quantile `q` over the retained horizon; see [`percentile`].
    pub fn percentile(&self, q: f64) -> u64 {
        percentile(&self.merged(), q)
    }

    /// Largest retained observation's bucket upper bound (0 when empty).
    pub fn max(&self) -> u64 {
        let merged = self.merged();
        merged
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| bucket_bounds(i).1)
    }
}

/// Quantile extraction from log-linear bucket counts: the bucket holding
/// the rank-`⌈q·n⌉` observation is located, then the reported value is
/// interpolated linearly between the bucket's bounds by the rank's
/// position among the bucket's occupants (a lone occupant reports the
/// upper bound, keeping the estimate conservative). Deterministic pure
/// integer arithmetic; 0 when the histogram is empty.
pub fn percentile(counts: &[u64; BUCKETS], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        if n > 0 && cum + n >= rank {
            let (lo, hi) = bucket_bounds(i);
            let into = rank - cum; // 1..=n
            let span = (hi - lo) as u128;
            return lo + (span * into as u128 / n as u128) as u64;
        }
        cum += n;
    }
    bucket_bounds(BUCKETS - 1).1
}

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders per-window values as a fixed-height sparkline, scaled to the
/// series maximum (zeros render as the lowest bar; an empty or all-zero
/// series renders as all-lowest). Pure text, deterministic.
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 || v == 0 {
                SPARK_LEVELS[0] // ma-lint: allow(panic-safety) reason="SPARK_LEVELS is a non-empty const table"
            } else {
                // Map (0, max] onto the 8 levels; v == max hits the top.
                let idx = ((v as u128 * SPARK_LEVELS.len() as u128).div_ceil(max as u128) as usize)
                    .clamp(1, SPARK_LEVELS.len());
                SPARK_LEVELS[idx - 1] // ma-lint: allow(panic-safety) reason="idx clamped to 1..=SPARK_LEVELS.len()"
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_rotates_and_fills_gaps() {
        let mut s = WindowedSeries::new(10, 3);
        s.record(5, 2);
        s.record(7, 4);
        s.record(25, 1); // window 2; window 1 is an empty gap-filler
        let snap = s.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(snap[0].count, 2);
        assert_eq!(snap[0].sum, 6);
        assert_eq!(snap[0].min, 2);
        assert_eq!(snap[0].max, 4);
        assert_eq!(snap[0].last, 4);
        assert_eq!(snap[1].count, 0);
        assert_eq!(snap[2].count, 1);
        // Window 3 evicts window 0.
        s.record(30, 9);
        let snap = s.snapshot();
        assert_eq!(
            snap.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(s.retained_count(), 2);
        assert_eq!(s.retained_sum(), 10);
    }

    #[test]
    fn series_drops_observations_past_the_horizon() {
        let mut s = WindowedSeries::new(10, 2);
        s.record(95, 1); // window 9
        s.record(5, 7); // window 0 — long evicted
        assert_eq!(s.retained_count(), 1);
        assert_eq!(s.latest().unwrap().index, 9);
    }

    #[test]
    fn series_survives_a_gap_wider_than_retention() {
        let mut s = WindowedSeries::new(10, 3);
        s.record(0, 1);
        s.record(1_000, 2); // window 100: every held window falls out
        let snap = s.snapshot();
        assert_eq!(
            snap.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![98, 99, 100]
        );
        assert_eq!(s.retained_count(), 1);
    }

    #[test]
    fn series_is_deterministic() {
        let run = || {
            let mut s = WindowedSeries::new(8, 4);
            for (t, v) in [(1u64, 3u64), (9, 1), (17, 4), (33, 1), (34, 5)] {
                s.record(t, v);
            }
            s.snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn histogram_windows_merge_and_rank() {
        let mut h = WindowedHistogram::new(100, 4);
        for v in [1u64, 1, 3, 200] {
            h.record(10, v);
        }
        h.record(150, 1000); // second window
        assert_eq!(h.count(), 5);
        assert_eq!(h.window_counts(), vec![4, 1]);
        let merged = h.merged();
        assert_eq!(merged[1], 2);
        assert_eq!(merged[3], 1);
        assert_eq!(merged[histogram::bucket_index(200)], 1);
        assert_eq!(merged[histogram::bucket_index(1000)], 1);
        // Ranks: p50 is the 3rd of 5 → the singleton bucket for 3.
        assert_eq!(h.percentile(0.5), 3);
        // p90 is the 5th of 5 → 1000's bucket [896, 1023], lone occupant
        // → upper bound.
        assert_eq!(h.percentile(0.9), 1023);
        assert_eq!(h.max(), 1023);
    }

    #[test]
    fn histogram_eviction_forgets_old_tails() {
        let mut h = WindowedHistogram::new(10, 2);
        h.record(5, 1 << 20); // huge value in window 0
        h.record(25, 2); // window 2 evicts window 0
        h.record(35, 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 2, "the 2^20 outlier left the horizon");
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = [0u64; BUCKETS];
        assert_eq!(percentile(&empty, 0.99), 0);
        let mut zeros = [0u64; BUCKETS];
        zeros[0] = 10;
        assert_eq!(percentile(&zeros, 0.5), 0);
        let mut one = [0u64; BUCKETS];
        one[BUCKETS - 1] = 1;
        assert_eq!(percentile(&one, 0.5), u64::MAX);
    }

    #[test]
    fn percentiles_resolve_a_sub_ms_spread() {
        // Regression for BENCH_5.json's queue_wait_us p50 == p95 == 63:
        // the whole distribution sat inside the [32, 63] octave and
        // power-of-two buckets flattened it. With log-linear sub-buckets
        // and interpolation the spread must be visible again.
        let mut h = WindowedHistogram::new(100, 4);
        for v in 32..64u64 {
            h.record(1, v);
        }
        let p50 = h.percentile(0.5);
        let p95 = h.percentile(0.95);
        assert!(p50 < p95, "p50={p50} p95={p95}");
        assert!((40..=50).contains(&p50), "p50={p50}");
        assert!(p95 >= 56, "p95={p95}");
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let line = sparkline(&[1, 4, 8]);
        assert_eq!(line.chars().count(), 3);
        assert_eq!(line.chars().last(), Some('█'));
        assert_eq!(sparkline(&[5]), "█", "a lone value is its own maximum");
        assert_eq!(sparkline(&[1, 4, 8]), sparkline(&[1, 4, 8]));
    }
}
