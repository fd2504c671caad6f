//! A latency-injecting backend with a concurrent completion model.
//!
//! The paper's live experiments paid 50–100 ms of network RTT per API
//! call; the in-memory [`Platform`] answers in nanoseconds. `SlowBackend`
//! wraps a platform and stalls every fetch by a configurable RTT — but,
//! unlike a serial delay queue, each calling thread stalls
//! *independently*: ten callers in flight at once all complete ~one RTT
//! later, not ten RTTs later. That concurrency model is what makes
//! pipelining measurable — overlapped fetches genuinely overlap, and the
//! [`SlowBackend::peak_inflight`] gauge records how deep the overlap ran.
//!
//! This is bench/test infrastructure: it burns real wall-clock time by
//! design, which is why it carries an explicit allowance of clippy's
//! wall-clock ban (`crates/clippy.toml`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backend::ApiBackend;
use crate::fault::Fault;
use crate::ids::{KeywordId, PostId, UserId};
use crate::platform::Platform;
use crate::time::TimeWindow;

/// An [`ApiBackend`] that delays every fetch by a fixed RTT while letting
/// concurrent fetches overlap, with gauges for measuring that overlap.
#[derive(Debug)]
pub struct SlowBackend {
    inner: Arc<Platform>,
    rtt: std::time::Duration,
    inflight: AtomicU64,
    peak_inflight: AtomicU64,
    calls: AtomicU64,
}

impl SlowBackend {
    /// Wraps `inner`, delaying every fetch by `rtt_ms` milliseconds.
    pub fn new(inner: Arc<Platform>, rtt_ms: u64) -> Self {
        SlowBackend {
            inner,
            rtt: std::time::Duration::from_millis(rtt_ms),
            inflight: AtomicU64::new(0),
            peak_inflight: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// The configured RTT in milliseconds.
    pub fn rtt_ms(&self) -> u64 {
        self.rtt.as_millis() as u64
    }

    /// Total fetches served so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The deepest number of fetches that were ever simultaneously
    /// waiting out their RTT — the direct measure of pipeline overlap.
    pub fn peak_inflight(&self) -> u64 {
        self.peak_inflight.load(Ordering::Relaxed)
    }

    /// Brackets one fetch: bumps the in-flight gauge, folds the new depth
    /// into the peak, sleeps out the RTT, then releases the gauge.
    fn stall(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let depth = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_inflight.fetch_max(depth, Ordering::Relaxed);
        // RTT simulation is this type's purpose.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(self.rtt);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ApiBackend for SlowBackend {
    fn store(&self) -> &Platform {
        &self.inner
    }

    fn fetch_search(&self, kw: KeywordId, window: TimeWindow) -> Result<Vec<PostId>, Fault> {
        self.stall();
        self.inner.fetch_search(kw, window)
    }

    fn fetch_timeline(&self, u: UserId) -> Result<&[PostId], Fault> {
        self.stall();
        self.inner.fetch_timeline(u)
    }

    fn fetch_connections(&self, u: UserId) -> Result<(&[u32], &[u32]), Fault> {
        self.stall();
        self.inner.fetch_connections(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{twitter_2013, Scale};

    #[test]
    fn delegates_and_counts_calls() {
        let s = twitter_2013(Scale::Tiny, 9);
        let platform = Arc::new(s.platform);
        let slow = SlowBackend::new(Arc::clone(&platform), 0);
        let u = UserId(0);
        assert_eq!(slow.fetch_timeline(u).unwrap(), platform.timeline(u));
        let (fols, fees) = slow.fetch_connections(u).unwrap();
        assert_eq!(fols, platform.followers(u));
        assert_eq!(fees, platform.followees(u));
        assert_eq!(slow.calls(), 2);
        assert_eq!(slow.rtt_ms(), 0);
        assert!(slow.peak_inflight() >= 1);
    }

    #[test]
    fn concurrent_fetches_overlap() {
        let s = twitter_2013(Scale::Tiny, 9);
        let slow = SlowBackend::new(Arc::new(s.platform), 20);
        std::thread::scope(|scope| {
            for i in 0..4u32 {
                let slow = &slow;
                scope.spawn(move || {
                    let _ = slow.fetch_timeline(UserId(i));
                });
            }
        });
        assert_eq!(slow.calls(), 4);
        assert!(
            slow.peak_inflight() >= 2,
            "4 threads over a 20 ms RTT should overlap, peak={}",
            slow.peak_inflight()
        );
    }
}
