//! The closed-loop load generator: one thread, one outstanding query per
//! analyst, each analyst submitting its next query as soon as it sees
//! the previous outcome.

use crate::boundary::Boundary;
use crate::host;
use crate::workload::{Query, Running, World};
use microblog_service::{JobHandle, JobOutcome, ServiceError};
use std::time::{Duration, Instant};

/// How often the generator looks for finished jobs.
const POLL: Duration = Duration::from_micros(500);

/// One submitted query and what came of it.
pub struct Record {
    pub query: Query,
    pub submit: Instant,
    /// When the generator saw the outcome.
    pub seen: Instant,
    /// `Err` when admission refused the query.
    pub outcome: Result<JobOutcome, ServiceError>,
}

impl Record {
    pub fn latency(&self) -> Duration {
        self.seen.duration_since(self.submit)
    }

    /// An estimate that is neither missing nor partial.
    pub fn answered(&self) -> bool {
        matches!(self.outcome, Ok(JobOutcome::Complete(_)))
    }

    pub fn charged(&self) -> u64 {
        self.outcome.as_ref().map_or(0, JobOutcome::charged)
    }
}

/// What timed rounds produced.
pub struct Window {
    /// Wall time from each round's first submit to its last outcome,
    /// summed.
    pub seconds: f64,
    /// Every query, in completion order.
    pub records: Vec<Record>,
    /// Process CPU seconds over the same spans.
    pub cpu_secs: f64,
    pub threads_peak: u64,
    pub steal_frac: f64,
}

impl Window {
    /// Jobs the service ran: every record with a service outcome.
    pub fn jobs(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.outcome.is_ok())
    }

    /// Concatenates consecutive windows into one.
    pub fn merge(windows: Vec<Window>) -> Window {
        let seconds: f64 = windows.iter().map(|w| w.seconds).sum();
        let steal: f64 = windows.iter().map(|w| w.steal_frac * w.seconds).sum();
        Window {
            seconds,
            cpu_secs: windows.iter().map(|w| w.cpu_secs).sum(),
            threads_peak: windows.iter().map(|w| w.threads_peak).max().unwrap_or(0),
            steal_frac: if seconds > 0.0 { steal / seconds } else { 0.0 },
            records: windows.into_iter().flat_map(|w| w.records).collect(),
        }
    }
}

/// Runs `queries` closed-loop on `run` with `analysts` analysts and
/// waits for every outcome.
pub fn closed_loop(
    run: &Running,
    world: &World,
    queries: Vec<Query>,
    analysts: usize,
    budget: u64,
) -> Window {
    let host_before = host::HostCpu::now();
    let cpu_before = host::cpu_seconds();
    let mut threads_peak = host::threads();
    let start = Instant::now();
    let mut pending = queries.into_iter();
    let mut slots: Vec<Option<(Query, JobHandle, Instant)>> = (0..analysts).map(|_| None).collect();
    let mut records = Vec::new();
    let mut polls = 0u64;
    loop {
        for slot in &mut slots {
            if let Some((query, handle, submit)) = slot {
                if let Some(outcome) = handle.try_outcome() {
                    records.push(Record {
                        query: *query,
                        submit: *submit,
                        seen: Instant::now(),
                        outcome: Ok(outcome),
                    });
                    *slot = None;
                }
            }
            if slot.is_none() {
                if let Some(query) = pending.next() {
                    let submit = Instant::now();
                    match run.service.submit(query.spec(world, budget)) {
                        Ok(handle) => *slot = Some((query, handle, submit)),
                        Err(error) => records.push(Record {
                            query,
                            submit,
                            seen: Instant::now(),
                            outcome: Err(error),
                        }),
                    }
                }
            }
        }
        if slots.iter().all(Option::is_none) {
            break;
        }
        polls += 1;
        if polls == 200 {
            polls = 0;
            threads_peak = threads_peak.max(host::threads());
        }
        std::thread::sleep(POLL);
    }
    let window = Window {
        seconds: start.elapsed().as_secs_f64(),
        records,
        cpu_secs: host::cpu_seconds() - cpu_before,
        threads_peak: threads_peak.max(host::threads()),
        steal_frac: host::HostCpu::now().steal_frac_since(&host_before),
    };
    quiesce(&run.boundary);
    window
}

/// Waits until no platform call has been open for a while (at most a
/// second). Workers keep working after they publish an outcome — the
/// fetch scheduler's reset waits out in-flight prefetches, then counts
/// the stranded ones — and the service's counters are read only after.
fn quiesce(boundary: &Boundary) {
    let mut idle = 0;
    for _ in 0..100 {
        idle = if boundary.inflight() == 0 {
            idle + 1
        } else {
            0
        };
        if idle == 3 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
