//! # microblog-service
//!
//! A long-running, concurrent multi-query estimation engine over the
//! microblog analyzer.
//!
//! The paper's estimators ([MA-SRW, MA-TARW, Mark & Recapture][paper])
//! are single-query: one walk, one budget, one answer. A real analytics
//! deployment runs *many* queries against *one* rate-limited platform
//! account, and those queries keep re-fetching the same hot users. This
//! crate adds the serving layer:
//!
//! - [`Service`] — a worker pool executing [`JobSpec`]s concurrently,
//!   with admission control against a service-wide [`GlobalQuota`]
//!   (a job's full budget is reserved up front, so the service never
//!   promises calls the account cannot cover).
//! - [`SharedApiCache`] — a sharded, bounded, LRU-evicting store of
//!   SEARCH / USER TIMELINE / USER CONNECTIONS responses shared across
//!   all queries, layered under each job's `CachingClient`. Budgets are
//!   still charged *logically* on shared hits (see
//!   `microblog_api::cache`), so estimates stay bit-identical to
//!   isolated runs while actual platform traffic drops.
//! - [`StatsHub`] — the service's one metrics aggregator. The engine
//!   records every event into it once; it keeps the service totals
//!   ([`MetricsSnapshot`], rendered as aligned text by
//!   [`Service::metrics_snapshot`]) and the windowed live telemetry on
//!   the logical clock: per-stage latency histograms (admit → queue →
//!   pilot → walk → estimate → settle), conserved counters whose
//!   per-emission deltas telescope to the cumulative totals, and
//!   per-query convergence gauges, streamed as `stats` trace events
//!   behind `ma-cli serve --stats-every` and the `ma-cli top` dashboard
//!   (DESIGN.md §14).
//! - [`run_batch`] — the JSON-lines frontend behind `ma-cli serve`.
//! - **Graceful degradation** — each job runs through the resilient
//!   client stack (`microblog_api::ResilientClient`) under a
//!   [`RetryPolicy`](microblog_api::RetryPolicy); a
//!   [`ServiceConfig::fault_plan`] injects failures for chaos testing.
//!   Jobs settle their quota reservation down to what they actually
//!   charged — failed and degraded jobs refund the rest — and a
//!   [`JobOutcome::Degraded`] carries the partial estimate plus the
//!   error trail.
//! - **Crash-only recovery** — with [`ServiceConfig::journal`] set, a
//!   write-ahead [`Journal`] records every job's lifecycle (admit,
//!   reserve, walker checkpoints, settle) and [`Service::start`]
//!   replays it: settled consumption is adopted into the quota exactly
//!   once and unfinished jobs are requeued from their latest
//!   checkpoint, with estimates, charges and settlement bit-identical
//!   to the uninterrupted run. An in-process supervisor respawns
//!   crashed workers the same way (DESIGN.md §12).
//!
//! ```no_run
//! use microblog_service::{JobSpec, Service, ServiceConfig};
//! use microblog_analyzer::query::parse::parse_query;
//! use microblog_analyzer::Algorithm;
//! use microblog_api::ApiProfile;
//! use microblog_platform::scenario::{twitter_2013, Scale};
//! use std::sync::Arc;
//!
//! let scenario = twitter_2013(Scale::Small, 2014);
//! let service = Service::new(
//!     Arc::new(scenario.platform),
//!     ApiProfile::twitter(),
//!     ServiceConfig { workers: 4, global_quota: Some(200_000), ..Default::default() },
//! );
//! let query = parse_query(
//!     "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'",
//!     service.platform().keywords(),
//! ).unwrap();
//! let handle = service
//!     .submit(JobSpec::new(query, Algorithm::MaTarw { interval: None }, 25_000, 7))
//!     .unwrap();
//! let output = handle.join().into_result().unwrap();
//! println!("estimate {:.3} for {} calls", output.estimate.value, output.estimate.cost);
//! ```
//!
//! [paper]: https://doi.org/10.1145/2588555.2610517

#![forbid(unsafe_code)]

pub mod cache;
pub mod dashboard;
pub mod engine;
pub mod frontend;
pub mod journal;
pub mod lru;
pub mod metrics;
pub mod quota;
pub mod request;
pub mod stats;
pub mod traceview;

pub use cache::{SharedApiCache, SharedCacheConfig, SharedCacheSnapshot};
pub use dashboard::Dashboard;
pub use engine::{
    JobHandle, JobOutcome, JobOutput, RecoveryReport, Service, ServiceConfig, ServiceError,
    ShutdownReport,
};
pub use frontend::{run_batch, BatchSummary};
pub use journal::{Journal, JournalRecord, RecoveredJob, ReplaySummary};
pub use metrics::{JobMetrics, MetricsSnapshot};
pub use microblog_obs::{TelemetryClock, TelemetryMode};
pub use quota::{GlobalQuota, Reservation};
pub use request::{JobSpec, QueryRequest, QueryResponse};
pub use stats::{GaugeReading, QueryStats, Stage, StatsConfig, StatsHub, StatsSink};
pub use traceview::{record_job, PhaseCost, TraceRun, TraceSummary};
