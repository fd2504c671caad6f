//! Service metrics: the numbers one finished job reports
//! ([`JobMetrics`]) and the service totals they add up to
//! ([`MetricsSnapshot`]).
//!
//! The totals have one home. The [`StatsHub`](crate::stats::StatsHub)
//! keeps a `MetricsSnapshot` under its lock and records every engine
//! event into it once: admissions, rejections, settlements, checkpoints,
//! resumes, respawns, interruptions and journal drops.
//! `Service::metrics_snapshot` copies it out, and this module decides
//! how a job's numbers add into it (`MetricsSnapshot::add_job`). Four
//! log-linear histograms (charged calls per sample, backoff, queue wait,
//! execution time) keep tail behaviour visible where means would hide
//! it.
//!
//! Queue wait and execution time are telemetry-clock microseconds, the
//! unit of the hub's pipeline stages: logical **ticks** under the
//! default deterministic clock, real microseconds (**us**) under the
//! wall clock. The text rendering names the unit on every duration line.

use microblog_api::cache::CacheStats;
use microblog_obs::histogram::{self, render_buckets};
use microblog_obs::TelemetryMode;
use std::time::Duration;

/// Number of log2 buckets in each histogram (re-exported from
/// `microblog-obs` for sizing snapshot arrays).
pub const HIST_BUCKETS: usize = microblog_obs::histogram::BUCKETS;

/// One finished job's numbers, as reported by a worker.
#[derive(Clone, Copy, Debug)]
pub struct JobMetrics {
    /// Whether the job produced an estimate.
    pub succeeded: bool,
    /// Whether that estimate is partial (the walk gave up early on a
    /// fatal resilience error). Degraded jobs also count as succeeded.
    pub degraded: bool,
    /// API calls charged to the job's budget (the paper's cost metric).
    pub charged_calls: u64,
    /// Reserved calls returned to the global quota at settlement.
    pub refunded_calls: u64,
    /// Samples the walk collected (0 on failure).
    pub samples: u64,
    /// Cache traffic of the job's client.
    pub cache: CacheStats,
    /// Retried API attempts.
    pub retries: u64,
    /// Calls burned by failed attempts (never charged to the budget).
    pub wasted_calls: u64,
    /// Simulated seconds spent in backoff + rate-limit waits.
    pub backoff_secs: u64,
    /// Rate-limit rejections absorbed.
    pub rate_limited_hits: u64,
    /// Circuit-breaker trips.
    pub breaker_opens: u64,
    /// Calls rejected by an open breaker without touching the platform.
    pub breaker_fast_fails: u64,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Time spent executing.
    pub exec: Duration,
}

/// The service totals.
///
/// Duration totals ([`MetricsSnapshot::queue_wait_total`],
/// [`MetricsSnapshot::exec_total`]) and the queue/exec histograms are
/// telemetry-clock microseconds, named by [`MetricsSnapshot::mode`]:
/// logical ticks when logical, real microseconds when wall.
#[derive(Clone, Copy, Debug)]
pub struct MetricsSnapshot {
    /// The telemetry mode durations were measured under.
    pub mode: TelemetryMode,
    /// Jobs admitted.
    pub jobs_submitted: u64,
    /// Jobs refused at admission.
    pub jobs_rejected: u64,
    /// Jobs that produced an estimate.
    pub jobs_succeeded: u64,
    /// Succeeded jobs whose estimate is partial (walk gave up early on a
    /// fatal resilience error).
    pub jobs_degraded: u64,
    /// Jobs that errored.
    pub jobs_failed: u64,
    /// Estimates produced (== succeeded jobs).
    pub estimates_produced: u64,
    /// API calls charged to budgets.
    pub charged_calls: u64,
    /// Reserved calls refunded to the global quota at settlement.
    pub refunded_calls: u64,
    /// API calls actually issued to the platform.
    pub actual_calls: u64,
    /// Calls absorbed by the shared cache.
    pub saved_calls: u64,
    /// Per-query memo hits.
    pub local_hits: u64,
    /// Shared-cache hits.
    pub shared_hits: u64,
    /// Requests that reached the platform.
    pub cache_misses: u64,
    /// Samples collected by all walks.
    pub walk_samples: u64,
    /// Retried API attempts across all jobs.
    pub retries: u64,
    /// Calls burned by failed attempts (never charged to budgets).
    pub wasted_calls: u64,
    /// Simulated seconds spent in backoff + rate-limit waits.
    pub backoff_secs: u64,
    /// Rate-limit rejections absorbed.
    pub rate_limited_hits: u64,
    /// Circuit-breaker trips.
    pub breaker_opens: u64,
    /// Calls rejected by an open breaker without touching the platform.
    pub breaker_fast_fails: u64,
    /// Walker checkpoints written to the sink/journal.
    pub checkpoints_written: u64,
    /// Jobs resumed from the journal at startup.
    pub jobs_resumed: u64,
    /// Workers the supervisor respawned after crashes.
    pub workers_respawned: u64,
    /// Jobs journaled as interrupted (drain deadline or torn journal).
    pub jobs_interrupted: u64,
    /// Journal records dropped (torn-tail repair + post-tear appends).
    pub journal_records_dropped: u64,
    /// Cache misses that led a singleflight fetch.
    pub coalesce_leads: u64,
    /// Cache misses absorbed by parking on an in-flight fetch of the
    /// same key instead of issuing a duplicate platform call.
    pub coalesce_waits: u64,
    /// In-flight fetches released after a failed platform call.
    pub coalesce_aborts: u64,
    /// Most requesters ever coalesced onto one in-flight fetch.
    pub coalesce_peak_inflight: u64,
    /// Total time jobs spent queued, in ticks or microseconds.
    pub queue_wait_total: u64,
    /// Total time jobs spent executing, in ticks or microseconds.
    pub exec_total: u64,
    /// Log2 histogram of charged-calls-per-sample across succeeded jobs.
    pub charged_per_sample_hist: [u64; HIST_BUCKETS],
    /// Log2 histogram of per-job backoff time (simulated seconds).
    pub backoff_secs_hist: [u64; HIST_BUCKETS],
    /// Log2 histogram of per-job queue wait, in ticks or microseconds.
    pub queue_wait_hist: [u64; HIST_BUCKETS],
    /// Log2 histogram of per-job execution time, in ticks or
    /// microseconds.
    pub exec_hist: [u64; HIST_BUCKETS],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            mode: TelemetryMode::default(),
            jobs_submitted: 0,
            jobs_rejected: 0,
            jobs_succeeded: 0,
            jobs_degraded: 0,
            jobs_failed: 0,
            estimates_produced: 0,
            charged_calls: 0,
            refunded_calls: 0,
            actual_calls: 0,
            saved_calls: 0,
            local_hits: 0,
            shared_hits: 0,
            cache_misses: 0,
            walk_samples: 0,
            retries: 0,
            wasted_calls: 0,
            backoff_secs: 0,
            rate_limited_hits: 0,
            breaker_opens: 0,
            breaker_fast_fails: 0,
            checkpoints_written: 0,
            jobs_resumed: 0,
            workers_respawned: 0,
            jobs_interrupted: 0,
            journal_records_dropped: 0,
            coalesce_leads: 0,
            coalesce_waits: 0,
            coalesce_aborts: 0,
            coalesce_peak_inflight: 0,
            queue_wait_total: 0,
            exec_total: 0,
            charged_per_sample_hist: [0; HIST_BUCKETS],
            backoff_secs_hist: [0; HIST_BUCKETS],
            queue_wait_hist: [0; HIST_BUCKETS],
            exec_hist: [0; HIST_BUCKETS],
        }
    }
}

impl MetricsSnapshot {
    /// Adds one settled job's numbers into the totals. `estimates_produced`
    /// follows `jobs_succeeded`, and the two durations enter their totals
    /// and histograms as telemetry-clock microseconds.
    pub(crate) fn add_job(&mut self, job: &JobMetrics) {
        if job.succeeded {
            self.jobs_succeeded += 1;
            self.jobs_degraded += u64::from(job.degraded);
        } else {
            self.jobs_failed += 1;
        }
        self.estimates_produced = self.jobs_succeeded;
        self.charged_calls += job.charged_calls;
        self.refunded_calls += job.refunded_calls;
        self.actual_calls += job.cache.actual_calls;
        self.saved_calls += job.cache.saved_calls;
        self.local_hits += job.cache.local_hits;
        self.shared_hits += job.cache.shared_hits;
        self.cache_misses += job.cache.misses;
        self.walk_samples += job.samples;
        self.retries += job.retries;
        self.wasted_calls += job.wasted_calls;
        self.backoff_secs += job.backoff_secs;
        self.rate_limited_hits += job.rate_limited_hits;
        self.breaker_opens += job.breaker_opens;
        self.breaker_fast_fails += job.breaker_fast_fails;
        let queue = job.queue_wait.as_micros() as u64;
        let exec = job.exec.as_micros() as u64;
        self.queue_wait_total += queue;
        self.exec_total += exec;
        if let Some(per_sample) = job.charged_calls.checked_div(job.samples) {
            histogram::record(&mut self.charged_per_sample_hist, per_sample);
        }
        histogram::record(&mut self.backoff_secs_hist, job.backoff_secs);
        histogram::record(&mut self.queue_wait_hist, queue);
        histogram::record(&mut self.exec_hist, exec);
    }

    /// The duration unit implied by the snapshot's mode, as it appears
    /// in text headings.
    pub fn duration_unit(&self) -> &'static str {
        match self.mode {
            TelemetryMode::Logical => "ticks",
            TelemetryMode::Wall => "us",
        }
    }

    /// Fraction of charged calls the shared cache absorbed.
    pub fn savings_ratio(&self) -> f64 {
        if self.charged_calls > 0 {
            self.saved_calls as f64 / self.charged_calls as f64
        } else {
            0.0
        }
    }

    /// Histogram sections as `(text_heading, buckets)`, in rendering
    /// order. Duration headings carry the unit.
    fn histograms(&self) -> [(String, &[u64; HIST_BUCKETS]); 4] {
        let unit = self.duration_unit();
        [
            (
                "charged calls per sample (log2)".into(),
                &self.charged_per_sample_hist,
            ),
            ("backoff secs (log2)".into(), &self.backoff_secs_hist),
            (format!("queue wait {unit} (log2)"), &self.queue_wait_hist),
            (format!("exec {unit} (log2)"), &self.exec_hist),
        ]
    }

    /// The aligned-text export.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<22}{v}\n"));
        };
        line("telemetry mode", format!("{:?}", self.mode).to_lowercase());
        line("jobs submitted", self.jobs_submitted.to_string());
        line("jobs rejected", self.jobs_rejected.to_string());
        line("jobs succeeded", self.jobs_succeeded.to_string());
        line("jobs degraded", self.jobs_degraded.to_string());
        line("jobs failed", self.jobs_failed.to_string());
        line("estimates produced", self.estimates_produced.to_string());
        line("API calls charged", self.charged_calls.to_string());
        line("API calls refunded", self.refunded_calls.to_string());
        line("API calls actual", self.actual_calls.to_string());
        line(
            "API calls saved",
            format!(
                "{} ({:.1}% of charged)",
                self.saved_calls,
                100.0 * self.savings_ratio()
            ),
        );
        line(
            "cache hits",
            format!("{} local + {} shared", self.local_hits, self.shared_hits),
        );
        line("cache misses", self.cache_misses.to_string());
        line("walk samples", self.walk_samples.to_string());
        line(
            "retries",
            format!("{} ({} calls wasted)", self.retries, self.wasted_calls),
        );
        line("backoff time (sim)", format!("{}s", self.backoff_secs));
        line("rate-limit hits", self.rate_limited_hits.to_string());
        line(
            "breaker",
            format!(
                "{} open(s), {} fast-fail(s)",
                self.breaker_opens, self.breaker_fast_fails
            ),
        );
        line(
            "checkpoints",
            format!(
                "{} written, {} jobs resumed",
                self.checkpoints_written, self.jobs_resumed
            ),
        );
        line(
            "recovery",
            format!(
                "{} respawn(s), {} interrupted, {} journal record(s) dropped",
                self.workers_respawned, self.jobs_interrupted, self.journal_records_dropped
            ),
        );
        line(
            "coalesced misses",
            format!(
                "{} led + {} waited (peak {} in flight, {} aborted)",
                self.coalesce_leads,
                self.coalesce_waits,
                self.coalesce_peak_inflight,
                self.coalesce_aborts
            ),
        );
        // Totals and per-job means stay integers in the line's unit: a
        // logical tick count is not a duration.
        let unit = self.duration_unit();
        let jobs = self.jobs_succeeded + self.jobs_failed;
        for (label, total) in [
            ("queue wait", self.queue_wait_total),
            ("exec time", self.exec_total),
        ] {
            let mean = total.checked_div(jobs).unwrap_or(0);
            line(
                &format!("{label} ({unit})"),
                format!("{total} total, {mean} mean"),
            );
        }
        for (heading, buckets) in self.histograms() {
            let body = render_buckets(buckets);
            if !body.is_empty() {
                out.push_str(&format!("{heading}:\n{body}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{StatsConfig, StatsHub};
    use microblog_obs::histogram::bucket_index;

    fn job(succeeded: bool, charged: u64, saved: u64) -> JobMetrics {
        JobMetrics {
            succeeded,
            degraded: false,
            charged_calls: charged,
            refunded_calls: 5,
            samples: 10,
            cache: CacheStats {
                local_hits: 1,
                shared_hits: 2,
                misses: 3,
                actual_calls: charged - saved,
                saved_calls: saved,
            },
            retries: 2,
            wasted_calls: 3,
            backoff_secs: 60,
            rate_limited_hits: 1,
            breaker_opens: 0,
            breaker_fast_fails: 0,
            queue_wait: Duration::from_micros(500),
            exec: Duration::from_millis(2),
        }
    }

    fn totals(jobs: &[JobMetrics]) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for job in jobs {
            snap.add_job(job);
        }
        snap
    }

    #[test]
    fn totals_accumulate() {
        let snap = totals(&[job(true, 100, 40), job(false, 50, 0)]);
        assert_eq!(snap.jobs_succeeded, 1);
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.estimates_produced, snap.jobs_succeeded);
        assert_eq!(snap.charged_calls, 150);
        assert_eq!(snap.refunded_calls, 10);
        assert_eq!(snap.actual_calls, 110);
        assert_eq!(snap.saved_calls, 40);
        assert_eq!(snap.walk_samples, 20);
        assert_eq!(snap.retries, 4);
        assert_eq!(snap.wasted_calls, 6);
        assert_eq!(snap.backoff_secs, 120);
        assert_eq!(snap.rate_limited_hits, 2);
        assert_eq!(snap.jobs_degraded, 0);
        assert!((snap.savings_ratio() - 40.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn histograms_bucket_per_job_values() {
        // 100 charged / 10 samples = 10 per sample; the failed job's
        // 50 / 10 = 5 is bucketed too (charge accounting does not depend
        // on success).
        let snap = totals(&[job(true, 100, 0), job(false, 50, 0)]);
        assert_eq!(snap.charged_per_sample_hist[bucket_index(10)], 1);
        assert_eq!(snap.charged_per_sample_hist[bucket_index(5)], 1);
        assert_eq!(snap.backoff_secs_hist[bucket_index(60)], 2);
        // Logical mode: ticks = micros (500 queue, 2000 exec).
        assert_eq!(snap.queue_wait_hist[bucket_index(500)], 2);
        assert_eq!(snap.exec_hist[bucket_index(2_000)], 2);
    }

    #[test]
    fn wall_mode_totals_are_in_micros() {
        let mut snap = totals(&[job(true, 10, 0)]);
        snap.mode = TelemetryMode::Wall;
        assert_eq!(snap.duration_unit(), "us");
        // 500µs queue wait and 2ms exec keep their microseconds instead
        // of truncating to whole milliseconds.
        assert_eq!(snap.queue_wait_total, 500);
        assert_eq!(snap.exec_total, 2_000);
        let text = snap.render_text();
        assert!(text.contains("telemetry mode        wall"), "{text}");
        assert!(
            text.contains("queue wait (us)       500 total, 500 mean"),
            "{text}"
        );
        assert!(text.contains("exec us (log2):"), "{text}");
        assert!(!text.contains("ticks"), "{text}");
    }

    #[test]
    fn exports_are_well_formed() {
        let mut snap = totals(&[
            job(true, 10, 5),
            JobMetrics {
                degraded: true,
                ..job(true, 10, 0)
            },
        ]);
        snap.jobs_submitted = 2;
        assert_eq!(snap.jobs_degraded, 1);
        assert_eq!(snap.jobs_succeeded, 2);
        let text = snap.render_text();
        assert!(text.contains("telemetry mode        logical"), "{text}");
        assert!(text.contains("jobs submitted        2"), "{text}");
        assert!(text.contains("jobs degraded         1"), "{text}");
        assert!(text.contains("API calls saved"));
        assert!(text.contains("retries               4 (6 calls wasted)"));
        assert!(text.contains("breaker"));
        // Two jobs: totals and means are integer tick counts.
        assert!(
            text.contains("queue wait (ticks)    1000 total, 500 mean"),
            "{text}"
        );
        assert!(
            text.contains("exec time (ticks)     4000 total, 2000 mean"),
            "{text}"
        );
        assert!(text.contains("charged calls per sample (log2):"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let hub = std::sync::Arc::new(StatsHub::new(StatsConfig::default()));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let hub = std::sync::Arc::clone(&hub);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        hub.record_admit(i, 1);
                        hub.record_settled(
                            i,
                            t * 1_000 + i,
                            &job(true, 4, 1),
                            None,
                            Duration::ZERO,
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = hub.metrics();
        assert_eq!(snap.jobs_submitted, 2000);
        assert_eq!(snap.charged_calls, 8000);
        assert_eq!(snap.saved_calls, 2000);
        assert_eq!(
            snap.charged_per_sample_hist.iter().sum::<u64>(),
            2000,
            "every job lands one charged-per-sample observation"
        );
    }
}
