//! The telemetry time source shared by trace events and job latency.
//!
//! Estimation itself runs entirely on the simulated platform clock
//! (`microblog_platform::Timestamp`), but the stack also reports how
//! long jobs queued and executed, and timestamps every trace event —
//! operator telemetry that has nothing to do with estimates. Reading the
//! machine clock for it would make `queue_wait`/`exec` readings (and any
//! recorded trace) nondeterministic, so the default
//! [`TelemetryMode::Logical`] clock is a monotone atomic counter: every
//! observation advances it by one microsecond-sized tick. Sequential
//! submit-then-join workloads and single-threaded trace recordings replay
//! identically; pipelined batches can still shift a reading by a tick
//! when the submitter races a worker for the counter, but never by
//! machine-time noise. Operators who want real latencies opt into
//! [`TelemetryMode::Wall`], the one place in the tracing stack allowed to
//! touch `std::time::Instant`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which time source feeds trace timestamps and job latency telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// A logical tick counter: deterministic, advances one tick per
    /// observation. The default.
    #[default]
    Logical,
    /// The machine clock: real latencies, nondeterministic.
    Wall,
}

enum Inner {
    Logical(AtomicU64),
    Wall(Instant),
}

/// A monotone clock for trace timestamps and job latency telemetry; see
/// [`TelemetryMode`]. Readings are instants expressed as a [`Duration`]
/// since the clock was created, so `later.saturating_sub(earlier)` is an
/// elapsed time.
pub struct TelemetryClock {
    inner: Inner,
}

impl TelemetryClock {
    /// A clock in the given mode.
    pub fn new(mode: TelemetryMode) -> Self {
        match mode {
            TelemetryMode::Logical => TelemetryClock {
                inner: Inner::Logical(AtomicU64::new(0)),
            },
            // Operator-facing latency telemetry behind TelemetryMode::Wall;
            // never feeds estimates.
            #[allow(clippy::disallowed_methods)]
            TelemetryMode::Wall => TelemetryClock {
                inner: Inner::Wall(Instant::now()),
            },
        }
    }

    /// The mode this clock was built in.
    pub fn mode(&self) -> TelemetryMode {
        match self.inner {
            Inner::Logical(_) => TelemetryMode::Logical,
            Inner::Wall(_) => TelemetryMode::Wall,
        }
    }

    /// The current reading, as time since the clock was created. In
    /// logical mode each call advances the clock by one tick (1µs), so
    /// consecutive readings are strictly increasing.
    pub fn now(&self) -> Duration {
        match &self.inner {
            Inner::Logical(ticks) => {
                Duration::from_micros(ticks.fetch_add(1, Ordering::Relaxed) + 1)
            }
            Inner::Wall(start) => start.elapsed(),
        }
    }
}

impl std::fmt::Debug for TelemetryClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryClock")
            .field("mode", &self.mode())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_readings_strictly_increase() {
        let clock = TelemetryClock::new(TelemetryMode::Logical);
        let a = clock.now();
        let b = clock.now();
        let c = clock.now();
        assert!(a < b && b < c);
        assert_eq!(b.saturating_sub(a), Duration::from_micros(1));
    }

    #[test]
    fn logical_is_reproducible_across_clocks() {
        let readings = |n: usize| {
            let clock = TelemetryClock::new(TelemetryMode::Logical);
            (0..n).map(|_| clock.now()).collect::<Vec<_>>()
        };
        assert_eq!(readings(5), readings(5));
    }

    #[test]
    fn wall_mode_reports_itself() {
        let clock = TelemetryClock::new(TelemetryMode::Wall);
        assert_eq!(clock.mode(), TelemetryMode::Wall);
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
