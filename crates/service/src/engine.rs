//! The multi-query estimation engine.
//!
//! [`Service`] owns a worker pool, the [`SharedApiCache`], the
//! [`GlobalQuota`], and the [`StatsHub`] every engine event is recorded
//! into once (admission, rejection, settlement, checkpoint, resume,
//! respawn, interruption, journal drop). [`Service::submit`]
//! performs admission control — the job's full budget is reserved from
//! the global quota up front, so an admitted job can always run to its
//! budget — and hands back a [`JobHandle`] whose [`JobHandle::join`]
//! blocks until a worker has finished the job.
//!
//! Workers pull jobs from a single `mpsc` channel behind a mutex (the
//! classic shared-receiver pool), run the estimator with the shared
//! cache layered under the per-query client, settle the quota
//! reservation down to what the job actually charged, and publish the
//! outcome through the handle's condvar.
//!
//! # Crash-only operation
//!
//! With [`ServiceConfig::journal`] set, the engine is crash-safe:
//! admission, reservation, walker checkpoints (every
//! [`ServiceConfig::checkpoint_every`] steps), and settlement are
//! journaled write-ahead (see [`crate::journal`]), and
//! [`Service::start`] replays the journal on boot — settled jobs adopt
//! their consumption into the quota, unsettled jobs are requeued from
//! their latest checkpoint. A resumed job produces bit-identical
//! estimates, charged totals, and quota settlement to an uninterrupted
//! run, and settle records are idempotent, so a crash can never
//! double-charge.
//!
//! In-process, a supervisor thread watches for workers killed by crash
//! injection ([`ServiceConfig::crash_plan`]): it respawns the dead
//! worker and requeues its job from the last in-memory checkpoint —
//! the job's reservation travels with it, so recovery needs no quota
//! surgery. [`Service::shutdown`] drains with an optional
//! [`ServiceConfig::drain_timeout`]; jobs still running at the deadline
//! are journaled as interrupted and their handles fail with
//! [`ServiceError::Interrupted`] instead of blocking shutdown forever.

use crate::cache::{CoalescingSharedCache, SharedApiCache, SharedCacheConfig, SharedCacheSnapshot};
use crate::journal::{Journal, JournalRecord, ReplaySummary};
use crate::metrics::{JobMetrics, MetricsSnapshot};
use crate::quota::{GlobalQuota, Reservation};
use crate::request::JobSpec;
use crate::stats::{GaugeReading, StatsConfig, StatsHub};
use microblog_analyzer::checkpoint::{CheckpointCtl, CheckpointSink};
use microblog_analyzer::{Estimate, EstimateError, MicroblogAnalyzer, RunReport, WalkerCheckpoint};
use microblog_api::cache::{CacheLayer, CacheStats, CoalesceStats, CoalescingLayer};
use microblog_api::{
    ApiProfile, FetchScheduler, InflightPolicy, PrefetchSink, ResilienceStats, RetryPolicy,
    SchedCloseGuard, SchedCounters, SchedStats,
};
use microblog_obs::{EventName, FieldValue, SpanName, TelemetryClock, TelemetryMode, Tracer};
use microblog_platform::{
    crash_point, ApiBackend, CrashInjector, CrashMode, CrashPlan, FaultPlan, FaultyPlatform,
    Platform, CRASH_PANIC_PREFIX,
};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Service-wide API-call cap (`None` = unlimited; admission always
    /// succeeds).
    pub global_quota: Option<u64>,
    /// Shared cache layout.
    pub cache: SharedCacheConfig,
    /// Default retry policy for jobs that don't carry their own
    /// ([`JobSpec::retry`]). Faults a policy absorbs never touch the
    /// walk's budget or RNG, so estimates stay bit-identical to
    /// fault-free runs.
    pub retry: RetryPolicy,
    /// When set, all platform traffic flows through a
    /// [`FaultyPlatform`] injecting failures per this plan — the chaos
    /// knob behind `ma-cli serve --fault-plan`.
    pub fault_plan: Option<FaultPlan>,
    /// Time source for `queue_wait`/`exec` telemetry. The default
    /// logical clock keeps serve runs deterministic; `ma-cli serve
    /// --wall-telemetry` opts into real latencies.
    pub telemetry: TelemetryMode,
    /// Structured-trace handle. The default disabled tracer costs
    /// nothing; `ma-cli trace` passes an enabled one to record every
    /// job's walk/charge/resilience events. When the tracer is enabled
    /// its clock also drives `queue_wait`/`exec` telemetry, so traces
    /// and metrics share one tick stream.
    pub tracer: Tracer,
    /// Coalesce concurrent misses on the same cache key into one
    /// platform fetch (waiters park and receive the filled entry,
    /// charged exactly as a shared hit). On by default; the bench
    /// harness turns it off to measure the uncoalesced baseline.
    pub coalesce: bool,
    /// Override backend all platform traffic flows through — the bench
    /// harness plugs in a latency-simulating wrapper here so in-flight
    /// windows are as wide as a real network round-trip would make
    /// them. `fault_plan` takes precedence when both are set; `None`
    /// means the pristine platform.
    pub backend: Option<Arc<dyn ApiBackend>>,
    /// Directory of the write-ahead job journal; `None` runs without
    /// durability. `ma-cli serve --journal <dir>` sets it; on startup
    /// the journal is replayed and unsettled jobs are requeued from
    /// their latest checkpoint.
    pub journal: Option<PathBuf>,
    /// Walker steps between checkpoints (0 disables checkpointing).
    /// Checkpoints flow to the journal (when configured) and to the
    /// in-memory slot crash requeues resume from.
    pub checkpoint_every: u64,
    /// Deterministic crash injection: kill a worker (or tear the
    /// journal tail) at a named crashpoint. The chaos knob behind
    /// `ma-cli serve --crash-plan`.
    pub crash_plan: Option<CrashPlan>,
    /// Shutdown drain deadline: jobs still running when it expires are
    /// journaled as interrupted and their handles fail with
    /// [`ServiceError::Interrupted`]. `None` waits forever (the
    /// pre-deadline behavior — a hung estimator blocks shutdown).
    pub drain_timeout: Option<Duration>,
    /// Live-telemetry hub. `None` (the default) makes the service create
    /// a private hub, so [`Service::stats_snapshot`] always works;
    /// `ma-cli serve --stats-every` passes the hub its [`StatsSink`]
    /// already feeds so stream and snapshot agree.
    pub stats: Option<Arc<StatsHub>>,
    /// Emit a stats emission (`window`/`gauges`/`query` events through
    /// the tracer) after every N settled jobs; 0 emits only on demand
    /// ([`Service::emit_stats`]).
    pub stats_every: u64,
    /// Pipeline announced fetches through a per-worker
    /// [`FetchScheduler`]: walkers announce the calls their next steps
    /// will need and [`InflightPolicy::depth`] prefetcher threads keep
    /// them in flight. Purely a latency optimization — estimates,
    /// charged totals, sample sequences and checkpoints are
    /// bit-identical with the pipeline on or off.
    pub pipeline: bool,
    /// How many announced fetches the pipeline keeps outstanding at
    /// once (per worker). Ignored unless [`ServiceConfig::pipeline`].
    pub inflight: InflightPolicy,
    /// Interleaved walker chains per SRW-family job (1 = the classic
    /// solo walk). Chains interleave on the worker thread and share the
    /// job's budget; with the pipeline on, one chain's compute overlaps
    /// the other chains' fetch RTTs.
    pub chains: usize,
    /// Optional per-chain step cap for SRW-family jobs: clamps the walk
    /// config's `max_steps`. Bounds worker CPU once a walk's neighborhood
    /// is fully memoized and steps stop costing API calls. `None` leaves
    /// each algorithm's own limit in force.
    pub step_cap: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            global_quota: None,
            cache: SharedCacheConfig::default(),
            retry: RetryPolicy::resilient(),
            fault_plan: None,
            telemetry: TelemetryMode::default(),
            tracer: Tracer::disabled(),
            coalesce: true,
            backend: None,
            journal: None,
            checkpoint_every: 1_000,
            crash_plan: None,
            drain_timeout: None,
            stats: None,
            stats_every: 0,
            pipeline: false,
            inflight: InflightPolicy::default(),
            chains: 1,
            step_cap: None,
        }
    }
}

/// Why a job produced no estimate.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// Admission control refused the job: the uncommitted quota cannot
    /// cover its budget.
    Rejected {
        /// The budget the job asked for.
        requested: u64,
        /// Uncommitted calls left in the pool at refusal time.
        available: u64,
    },
    /// The estimator ran and failed.
    Estimation(EstimateError),
    /// The estimator panicked; the payload is the panic message.
    WorkerPanicked(String),
    /// The service is shutting down and no longer accepts jobs.
    ShuttingDown,
    /// The job was interrupted (shutdown drain deadline or a torn
    /// journal) before finishing; with a journal configured it will be
    /// recovered on the next startup.
    Interrupted,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected {
                requested,
                available,
            } => write!(
                f,
                "rejected: budget {requested} exceeds the {available} uncommitted \
                 calls left in the global quota"
            ),
            ServiceError::Estimation(e) => write!(f, "estimation failed: {e}"),
            ServiceError::WorkerPanicked(msg) => write!(f, "estimator panicked: {msg}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Interrupted => {
                write!(
                    f,
                    "interrupted before finishing; recoverable from the journal"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// A finished job's results.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The service-assigned job id.
    pub job: u64,
    /// The estimate.
    pub estimate: Estimate,
    /// API calls charged to the job's budget; the unspent remainder of
    /// the reservation was refunded to the global quota.
    pub charged: u64,
    /// The job client's cache traffic.
    pub cache: CacheStats,
    /// Retry/backoff/breaker accounting for the job's client.
    pub resilience: ResilienceStats,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Time spent executing.
    pub exec: Duration,
}

/// How a job ended: fully, partially, or not at all. Every variant
/// settles the job's quota reservation down to what it actually charged
/// — unused calls go back to the pool either way.
#[must_use = "a JobOutcome carries the estimate (or failure) the job's budget paid for"]
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Ran to its budget (or cache exhaustion) without giving up.
    Complete(JobOutput),
    /// A fatal resilience error (retries exhausted, deadline, breaker)
    /// ended the walk early, but the samples collected before it still
    /// produced an estimate. The error trail is in
    /// [`JobOutput::resilience`].
    Degraded(JobOutput),
    /// No estimate.
    Failed {
        /// The service-assigned job id.
        job: u64,
        /// What went wrong.
        error: ServiceError,
        /// API calls charged before the failure (the rest of the
        /// reservation was refunded).
        charged: u64,
        /// Retry/backoff/breaker accounting up to the failure.
        resilience: ResilienceStats,
    },
}

impl JobOutcome {
    /// The output, when an estimate exists (complete or degraded).
    pub fn output(&self) -> Option<&JobOutput> {
        match self {
            JobOutcome::Complete(out) | JobOutcome::Degraded(out) => Some(out),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// `true` for [`JobOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, JobOutcome::Complete(_))
    }

    /// `true` for [`JobOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, JobOutcome::Degraded(_))
    }

    /// API calls the job charged (and settled against the quota).
    pub fn charged(&self) -> u64 {
        match self {
            JobOutcome::Complete(out) | JobOutcome::Degraded(out) => out.charged,
            JobOutcome::Failed { charged, .. } => *charged,
        }
    }

    /// The resilience accounting, whatever the ending.
    pub fn resilience(&self) -> &ResilienceStats {
        match self {
            JobOutcome::Complete(out) | JobOutcome::Degraded(out) => &out.resilience,
            JobOutcome::Failed { resilience, .. } => resilience,
        }
    }

    /// Collapses to a `Result`, treating a degraded estimate as success.
    pub fn into_result(self) -> Result<JobOutput, ServiceError> {
        match self {
            JobOutcome::Complete(out) | JobOutcome::Degraded(out) => Ok(out),
            JobOutcome::Failed { error, .. } => Err(error),
        }
    }
}

#[derive(Default)]
struct JobState {
    outcome: Mutex<Option<JobOutcome>>,
    ready: Condvar,
}

/// A ticket for an admitted job; [`join`](JobHandle::join) blocks until
/// the outcome is in. Handles are cheap to clone and joinable from any
/// thread, any number of times.
#[derive(Clone)]
pub struct JobHandle {
    job: u64,
    state: Arc<JobState>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("job", &self.job)
            .field("finished", &self.state.outcome.lock().is_some())
            .finish()
    }
}

impl JobHandle {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.job
    }

    /// Blocks until the job finishes and returns its outcome.
    pub fn join(&self) -> JobOutcome {
        let mut slot = self.state.outcome.lock();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            self.state.ready.wait(&mut slot);
        }
    }

    /// The outcome, if the job already finished.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.state.outcome.lock().clone()
    }
}

struct Job {
    id: u64,
    spec: JobSpec,
    reservation: Reservation,
    state: Arc<JobState>,
    /// Telemetry-clock reading at admission.
    submitted: Duration,
    /// Checkpoint to resume from (journal replay or crash requeue).
    resume: Option<Box<WalkerCheckpoint>>,
}

/// Tracks in-flight jobs so shutdown can wait for the pool to drain
/// (and fail the stragglers when the deadline expires).
#[derive(Default)]
struct Outstanding {
    count: Mutex<u64>,
    zero: Condvar,
}

impl Outstanding {
    fn inc(&self) {
        *self.count.lock() += 1;
    }

    fn dec(&self) {
        let mut count = self.count.lock();
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    /// Waits until no jobs are in flight; with a deadline, returns
    /// whether the pool actually drained.
    fn wait_drained(&self, timeout: Option<Duration>) -> bool {
        let mut count = self.count.lock();
        match timeout {
            None => {
                while *count > 0 {
                    self.zero.wait(&mut count);
                }
                true
            }
            Some(timeout) => {
                // The drain deadline is an operator real-time bound; it
                // never feeds estimates.
                #[allow(clippy::disallowed_methods)]
                let deadline = std::time::Instant::now() + timeout;
                while *count > 0 {
                    #[allow(clippy::disallowed_methods)]
                    let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                    if remaining.is_zero() {
                        return false;
                    }
                    self.zero.wait_for(&mut count, remaining);
                }
                true
            }
        }
    }
}

/// What [`Service::shutdown`] did.
#[derive(Clone, Debug, Default)]
pub struct ShutdownReport {
    /// Whether every in-flight job finished before the deadline.
    pub clean: bool,
    /// Jobs journaled as interrupted when the drain deadline expired;
    /// their handles failed with [`ServiceError::Interrupted`].
    pub interrupted: Vec<u64>,
}

/// What startup journal replay recovered; see [`Service::recovery`].
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Valid journal records replayed.
    pub records: u64,
    /// Bytes dropped repairing a torn tail.
    pub dropped_bytes: u64,
    /// Jobs the journal showed as settled.
    pub settled_jobs: u64,
    /// Calls those settled jobs had consumed (adopted into the quota).
    pub adopted_calls: u64,
    /// Unsettled jobs requeued (from their latest checkpoint, when one
    /// was journaled).
    pub resumed_jobs: u64,
    /// Unsettled jobs that could not be re-admitted (quota shrank);
    /// they stay unsettled in the journal for the next startup.
    pub abandoned_jobs: u64,
}

/// Everything the workers, the supervisor that respawns them and the
/// [`Service`] handle share, behind one `Arc` so respawning is a single
/// clone + spawn.
struct WorkerCtx {
    receiver: Arc<Mutex<mpsc::Receiver<Job>>>,
    platform: Arc<Platform>,
    api: ApiProfile,
    shared_layer: Arc<dyn CacheLayer>,
    quota: GlobalQuota,
    clock: Arc<TelemetryClock>,
    faulty: Option<Arc<FaultyPlatform>>,
    custom_backend: Option<Arc<dyn ApiBackend>>,
    default_retry: RetryPolicy,
    tracer: Tracer,
    journal: Option<Arc<Journal>>,
    injector: Option<Arc<CrashInjector>>,
    checkpoint_every: u64,
    outstanding: Arc<Outstanding>,
    inflight: Arc<Mutex<HashMap<u64, Arc<JobState>>>>,
    supervisor: mpsc::Sender<SupervisorMsg>,
    stats: Arc<StatsHub>,
    stats_every: u64,
    coalescer: Option<Arc<CoalescingSharedCache>>,
    pipeline: bool,
    inflight_policy: InflightPolicy,
    chains: usize,
    step_cap: Option<usize>,
    sched_counters: Arc<SchedCounters>,
}

impl WorkerCtx {
    /// Samples the layer gauges one stats emission reports: quota,
    /// in-flight jobs, and the service-wide coalescer and fetch-pipeline
    /// counters.
    fn gauges(&self) -> GaugeReading {
        GaugeReading {
            quota_consumed: self.quota.consumed(),
            quota_reserved: self.quota.reserved(),
            quota_remaining: self.quota.remaining(),
            inflight: self.inflight.lock().len() as u64,
            coalesce: self
                .coalescer
                .as_ref()
                .map(|layer| layer.stats())
                .unwrap_or_default(),
            sched: self.sched_counters.snapshot(),
        }
    }
}

enum SupervisorMsg {
    /// A worker died at a crashpoint; `job` is present unless the job
    /// had already published its outcome (post-settlement crash).
    Crashed {
        point: String,
        job: Option<Box<Job>>,
    },
    Shutdown,
}

/// The long-running engine. Dropping it (or calling
/// [`shutdown`](Service::shutdown)) drains in-flight jobs and joins the
/// workers.
pub struct Service {
    ctx: Arc<WorkerCtx>,
    cache: Arc<SharedApiCache>,
    sender: Option<mpsc::Sender<Job>>,
    supervisor: Option<(mpsc::Sender<SupervisorMsg>, JoinHandle<()>)>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    next_id: AtomicU64,
    drain_timeout: Option<Duration>,
    recovery: Option<RecoveryReport>,
    recovered_handles: Vec<JobHandle>,
    drained: bool,
}

impl Service {
    /// Starts a service over `platform` accessed through `api`,
    /// panicking if the journal directory cannot be opened; use
    /// [`Service::start`] to handle journal I/O errors.
    pub fn new(platform: Arc<Platform>, api: ApiProfile, config: ServiceConfig) -> Self {
        // ma-lint: allow(panic-safety) reason="documented contract: new() panics when the journal cannot open; start() is the fallible path"
        Service::start(platform, api, config).expect("journal directory opens")
    }

    /// Starts a service, replaying the journal (when configured) and
    /// requeueing the jobs a previous process left unsettled.
    pub fn start(
        platform: Arc<Platform>,
        api: ApiProfile,
        config: ServiceConfig,
    ) -> io::Result<Self> {
        let cache = Arc::new(SharedApiCache::new(config.cache).with_tracer(config.tracer.clone()));
        // When coalescing is on, every job sees the cache through one
        // shared singleflight combinator, so concurrent misses on a key
        // collapse into a single platform fetch service-wide.
        let coalescer = config.coalesce.then(|| {
            Arc::new(CoalescingLayer::new(Arc::clone(&cache)).with_tracer(config.tracer.clone()))
        });
        let shared_layer: Arc<dyn CacheLayer> = match &coalescer {
            Some(layer) => Arc::clone(layer) as Arc<dyn CacheLayer>,
            None => Arc::clone(&cache) as Arc<dyn CacheLayer>,
        };
        let quota = match config.global_quota {
            Some(limit) => GlobalQuota::limited(limit),
            None => GlobalQuota::unlimited(),
        };
        // An enabled tracer's clock doubles as the telemetry clock, so
        // trace ticks and queue/exec totals come from one stream.
        let clock = config
            .tracer
            .clock()
            .cloned()
            .unwrap_or_else(|| Arc::new(TelemetryClock::new(config.telemetry)));
        // One injector shared by all workers, so fault counters and the
        // per-key attempt history are service-wide.
        let faulty = config
            .fault_plan
            .map(|plan| Arc::new(FaultyPlatform::new(Arc::clone(&platform), plan)));
        let injector = config
            .crash_plan
            .map(|plan| Arc::new(CrashInjector::new(plan)));
        let (journal, replayed): (Option<Arc<Journal>>, Option<ReplaySummary>) =
            match &config.journal {
                Some(dir) => {
                    let (journal, summary) = Journal::open(dir, Arc::clone(&clock))?;
                    (Some(Arc::new(journal)), Some(summary))
                }
                None => (None, None),
            };
        let stats = config
            .stats
            .unwrap_or_else(|| Arc::new(StatsHub::new(StatsConfig::default())));
        let (sender, receiver) = mpsc::channel::<Job>();
        let (sup_sender, sup_receiver) = mpsc::channel::<SupervisorMsg>();
        let ctx = Arc::new(WorkerCtx {
            receiver: Arc::new(Mutex::new(receiver)),
            platform,
            api,
            shared_layer,
            quota,
            clock,
            faulty,
            custom_backend: config.backend,
            default_retry: config.retry,
            tracer: config.tracer,
            journal,
            injector,
            checkpoint_every: config.checkpoint_every,
            outstanding: Arc::new(Outstanding::default()),
            inflight: Arc::new(Mutex::new(HashMap::new())),
            supervisor: sup_sender.clone(),
            stats,
            stats_every: config.stats_every,
            coalescer,
            pipeline: config.pipeline,
            inflight_policy: config.inflight,
            chains: config.chains.max(1),
            step_cap: config.step_cap,
            // One counter block shared by every worker's scheduler, so
            // the pipeline gauges are service-wide like the fault
            // counters.
            sched_counters: Arc::new(SchedCounters::default()),
        });
        let workers = Arc::new(Mutex::new(
            (0..config.workers.max(1))
                .map(|_| spawn_worker(Arc::clone(&ctx)))
                .collect::<Vec<_>>(),
        ));
        let supervisor_handle = {
            let ctx = Arc::clone(&ctx);
            let workers = Arc::clone(&workers);
            let jobs = sender.clone();
            std::thread::spawn(move || supervisor_loop(ctx, sup_receiver, workers, jobs))
        };
        let mut service = Service {
            ctx,
            cache,
            sender: Some(sender),
            supervisor: Some((sup_sender, supervisor_handle)),
            workers,
            next_id: AtomicU64::new(0),
            drain_timeout: config.drain_timeout,
            recovery: None,
            recovered_handles: Vec::new(),
            drained: false,
        };
        if let Some(summary) = replayed {
            service.recover(summary);
        }
        Ok(service)
    }

    /// Folds a journal replay into the running service: adopt consumed
    /// quota for settled jobs, requeue unsettled jobs from their latest
    /// checkpoint.
    fn recover(&mut self, summary: ReplaySummary) {
        let ctx = &self.ctx;
        self.next_id.store(summary.next_job_id, Ordering::Relaxed);
        ctx.quota.adopt(summary.consumed);
        if summary.dropped_bytes > 0 {
            ctx.stats.record_journal_dropped(1);
        }
        let mut report = RecoveryReport {
            records: summary.records,
            dropped_bytes: summary.dropped_bytes,
            settled_jobs: summary.settled_jobs,
            adopted_calls: summary.consumed,
            ..RecoveryReport::default()
        };
        for recovered in summary.recovered {
            let Ok(reservation) = ctx.quota.try_reserve(recovered.spec.budget) else {
                // The quota shrank under the journal; leave the job
                // unsettled so the next startup can retry it.
                report.abandoned_jobs += 1;
                ctx.stats.record_interrupted();
                continue;
            };
            let state = Arc::new(JobState::default());
            self.recovered_handles.push(JobHandle {
                job: recovered.job,
                state: Arc::clone(&state),
            });
            ctx.inflight
                .lock()
                .insert(recovered.job, Arc::clone(&state));
            ctx.outstanding.inc();
            report.resumed_jobs += 1;
            let submitted = ctx.clock.now();
            ctx.stats.record_resumed(submitted.as_micros() as u64);
            let job = Job {
                id: recovered.job,
                spec: recovered.spec,
                reservation,
                state,
                submitted,
                resume: recovered.checkpoint,
            };
            if let Some(sender) = &self.sender {
                if let Err(mpsc::SendError(job)) = sender.send(job) {
                    let id = job.id;
                    ctx.quota.settle(job.reservation, 0);
                    ctx.outstanding.dec();
                    trace_settle(&ctx.tracer, id, 0, "send_failed");
                }
            }
        }
        if ctx.tracer.is_enabled() {
            ctx.tracer.emit(
                EventName::REPLAY,
                &[
                    ("records", FieldValue::U64(report.records)),
                    ("dropped_bytes", FieldValue::U64(report.dropped_bytes)),
                    ("settled_jobs", FieldValue::U64(report.settled_jobs)),
                    ("resumed_jobs", FieldValue::U64(report.resumed_jobs)),
                ],
            );
        }
        self.recovery = Some(report);
    }

    /// Admits `spec` if the global quota can cover its budget, queueing
    /// it for the next free worker.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, ServiceError> {
        let ctx = &self.ctx;
        let admit_start = ctx.clock.now();
        let reservation = ctx.quota.try_reserve(spec.budget).map_err(|available| {
            ctx.stats.record_rejected();
            ServiceError::Rejected {
                requested: spec.budget,
                available,
            }
        })?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Write-ahead: admission and reservation are journaled before
        // the job can run, so a crash at any later point finds them.
        if let Some(journal) = &ctx.journal {
            let _ = journal.append(&JournalRecord::Admit {
                job: id,
                spec: spec.clone(),
            });
            let _ = journal.append(&JournalRecord::Reserve {
                job: id,
                amount: reservation.amount(),
            });
        }
        let state = Arc::new(JobState::default());
        let handle = JobHandle {
            job: id,
            state: Arc::clone(&state),
        };
        ctx.inflight.lock().insert(id, Arc::clone(&state));
        ctx.outstanding.inc();
        let submitted = ctx.clock.now();
        ctx.stats.record_admit(
            submitted.as_micros() as u64,
            submitted.saturating_sub(admit_start).as_micros() as u64,
        );
        let job = Job {
            id,
            spec,
            reservation,
            state,
            submitted,
            resume: None,
        };
        let send_failed = |job: Job| {
            // Workers are gone; release the reservation untouched.
            ctx.inflight.lock().remove(&job.id);
            ctx.outstanding.dec();
            let id = job.id;
            ctx.quota.settle(job.reservation, 0);
            trace_settle(&ctx.tracer, id, 0, "send_failed");
            ServiceError::ShuttingDown
        };
        let Some(sender) = self.sender.as_ref() else {
            return Err(send_failed(job));
        };
        if let Err(mpsc::SendError(job)) = sender.send(job) {
            return Err(send_failed(job));
        }
        Ok(handle)
    }

    /// Drains queued jobs and joins the workers. With a
    /// [`ServiceConfig::drain_timeout`], jobs still running at the
    /// deadline are journaled as interrupted and their handles fail with
    /// [`ServiceError::Interrupted`] instead of blocking forever.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.drain()
    }

    fn drain(&mut self) -> ShutdownReport {
        let ctx = &self.ctx;
        self.drained = true;
        // Closing the channel lets workers finish the queue and exit.
        self.sender.take();
        let clean = ctx.outstanding.wait_drained(self.drain_timeout);
        let mut interrupted = Vec::new();
        if !clean {
            // Deadline expired: fail the stragglers' handles and journal
            // them as interrupted so the next startup recovers them.
            // Their reservations are owned by hung workers and stay
            // booked — accurate, since the work may still be running.
            let stranded: Vec<(u64, Arc<JobState>)> = ctx.inflight.lock().drain().collect();
            for (id, state) in stranded {
                let failed = JobOutcome::Failed {
                    job: id,
                    error: ServiceError::Interrupted,
                    charged: 0,
                    resilience: ResilienceStats::default(),
                };
                // ma-lint: allow(lock-order) reason="the inflight guard above is a temporary released when `stranded` finishes collecting; only the Vec outlives that statement"
                let mut slot = state.outcome.lock();
                if slot.is_none() {
                    *slot = Some(failed);
                    state.ready.notify_all();
                    drop(slot);
                    if let Some(journal) = &ctx.journal {
                        let _ = journal.append(&JournalRecord::Interrupted { job: id });
                    }
                    ctx.stats.record_interrupted();
                    ctx.outstanding.dec();
                    interrupted.push(id);
                }
            }
        }
        if let Some((sender, handle)) = self.supervisor.take() {
            let _ = sender.send(SupervisorMsg::Shutdown);
            let _ = handle.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        if interrupted.is_empty() {
            for worker in workers {
                let _ = worker.join();
            }
        }
        // else: some workers are hung on interrupted jobs — detach them;
        // the process is exiting and the journal has what recovery needs.
        if let Some(journal) = &ctx.journal {
            let _ = journal.sync();
        }
        ShutdownReport { clean, interrupted }
    }

    /// The world being estimated over.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.ctx.platform
    }

    /// The API profile in force.
    pub fn api_profile(&self) -> &ApiProfile {
        &self.ctx.api
    }

    /// The shared cross-query cache.
    pub fn cache(&self) -> &Arc<SharedApiCache> {
        &self.cache
    }

    /// A point-in-time view of the shared cache.
    pub fn cache_snapshot(&self) -> SharedCacheSnapshot {
        self.cache.snapshot()
    }

    /// The fault injector, when the service was configured with a
    /// [`ServiceConfig::fault_plan`]. Its counters report how many
    /// failures the resilience stack had to absorb.
    pub fn fault_injector(&self) -> Option<&Arc<FaultyPlatform>> {
        self.ctx.faulty.as_ref()
    }

    /// The crash injector, when the service was configured with a
    /// [`ServiceConfig::crash_plan`].
    pub fn crash_injector(&self) -> Option<&Arc<CrashInjector>> {
        self.ctx.injector.as_ref()
    }

    /// The write-ahead journal, when configured.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.ctx.journal.as_ref()
    }

    /// What startup journal replay recovered, when a journal was
    /// configured.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Handles of the jobs startup replay requeued, in admission order;
    /// join them like freshly submitted jobs.
    pub fn recovered_jobs(&self) -> &[JobHandle] {
        &self.recovered_handles
    }

    /// The global quota accountant.
    pub fn quota(&self) -> &GlobalQuota {
        &self.ctx.quota
    }

    /// The time source behind `queue_wait`/`exec` telemetry.
    pub fn telemetry_clock(&self) -> &Arc<TelemetryClock> {
        &self.ctx.clock
    }

    /// Miss-coalescing counters, when coalescing is enabled.
    pub fn coalesce_stats(&self) -> Option<CoalesceStats> {
        self.ctx.coalescer.as_ref().map(|layer| layer.stats())
    }

    /// A point-in-time copy of the service totals: the stats hub's
    /// cumulative state, with the duration unit of the clock that
    /// measured it. Coalescing counters live on the singleflight layer
    /// and post-tear journal drops on the journal (they are
    /// service-wide, not per-job), so the copy overlays them here.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.ctx.stats.metrics();
        snap.mode = self.ctx.clock.mode();
        let coalesce = self.coalesce_stats().unwrap_or_default();
        snap.coalesce_leads = coalesce.leads;
        snap.coalesce_waits = coalesce.waits;
        snap.coalesce_aborts = coalesce.aborts;
        snap.coalesce_peak_inflight = coalesce.peak_inflight;
        if let Some(journal) = &self.ctx.journal {
            snap.journal_records_dropped += journal.dropped_appends();
        }
        snap
    }

    /// Worker thread count (including supervisor respawns).
    pub fn workers(&self) -> usize {
        self.workers.lock().len()
    }

    /// The live-telemetry hub (DESIGN.md §14).
    pub fn stats_hub(&self) -> &Arc<StatsHub> {
        &self.ctx.stats
    }

    /// A stable-JSON snapshot of the live telemetry: conserved totals,
    /// per-stage latency percentiles, rate-window histories, per-query
    /// convergence and current operational gauges.
    pub fn stats_snapshot(&self) -> String {
        self.ctx.stats.snapshot_json(&self.ctx.gauges())
    }

    /// Emits one stats emission (`window`/`gauges`/`query` events)
    /// through the service tracer; no-op when the tracer is disabled.
    pub fn emit_stats(&self) {
        self.ctx.stats.emit(&self.ctx.tracer, self.ctx.gauges());
    }

    /// A point-in-time copy of the fetch-pipeline counters (all zero
    /// when [`ServiceConfig::pipeline`] is off).
    pub fn sched_stats(&self) -> SchedStats {
        self.ctx.sched_counters.snapshot()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.drained {
            let _ = self.drain();
        }
    }
}

fn spawn_worker(ctx: Arc<WorkerCtx>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let backend: &dyn ApiBackend = match (&ctx.faulty, &ctx.custom_backend) {
            (Some(injector), _) => &**injector,
            (None, Some(custom)) => &**custom,
            (None, None) => &*ctx.platform,
        };
        if !ctx.pipeline {
            let mut analyzer =
                MicroblogAnalyzer::with_backend(backend, ctx.api.clone()).with_chains(ctx.chains);
            if let Some(cap) = ctx.step_cap {
                analyzer = analyzer.with_step_cap(cap);
            }
            worker_loop(&analyzer, &ctx, None);
            return;
        }
        // Pipelined: this worker's jobs announce upcoming fetches to a
        // scheduler whose prefetcher threads keep `depth` calls in
        // flight. The scheduler outlives the scope so the prefetchers
        // can borrow it; the guard closes it on every exit path
        // (including unwinds), so the scope join cannot hang on a
        // parked prefetcher.
        let sched = FetchScheduler::new(backend, Arc::clone(&ctx.sched_counters));
        std::thread::scope(|scope| {
            let _guard = SchedCloseGuard(&sched);
            for _ in 0..ctx.inflight_policy.depth() {
                scope.spawn(|| sched.run_prefetcher());
            }
            let mut analyzer = MicroblogAnalyzer::with_backend(&sched, ctx.api.clone())
                .with_chains(ctx.chains)
                .with_prefetch(&sched);
            if let Some(cap) = ctx.step_cap {
                analyzer = analyzer.with_step_cap(cap);
            }
            worker_loop(&analyzer, &ctx, Some(&sched));
        });
    })
}

/// The worker's job loop: pull, run, and — when pipelining — scrub the
/// scheduler between jobs.
fn worker_loop(
    analyzer: &MicroblogAnalyzer<'_>,
    ctx: &Arc<WorkerCtx>,
    sched: Option<&FetchScheduler<'_>>,
) {
    loop {
        // Hold the lock only to pull the next job; when the channel
        // closes (all senders dropped) the worker exits.
        let job = match ctx.receiver.lock().recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        let end = run_job(analyzer, ctx, job);
        // Between jobs the scheduler must be empty. Keys a walk-ending
        // break stranded are dropped, and their speculative fetches are
        // rolled back on the shared fault schedule — so the next job
        // (and a crash-requeued resume of this one) sees exactly the
        // per-key attempt counters a sequential run would.
        if let Some(sched) = sched {
            let stranded = sched.reset();
            if let Some(faulty) = &ctx.faulty {
                for key in &stranded {
                    faulty.forget_attempt(key.endpoint(), key.fault_key());
                }
            }
        }
        match end {
            RunEnd::Done => {}
            RunEnd::Crashed { point, job } => {
                // A crashpoint killed this worker: hand the job to
                // the supervisor (which respawns a replacement) and
                // die.
                let _ = ctx.supervisor.send(SupervisorMsg::Crashed { point, job });
                return;
            }
        }
    }
}

/// Watches for crashed workers: respawns each one and requeues its job
/// from the last checkpoint. Exits on [`SupervisorMsg::Shutdown`],
/// dropping its job-sender clone so draining workers can see the
/// channel close.
fn supervisor_loop(
    ctx: Arc<WorkerCtx>,
    inbox: mpsc::Receiver<SupervisorMsg>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    jobs: mpsc::Sender<Job>,
) {
    while let Ok(msg) = inbox.recv() {
        let SupervisorMsg::Crashed { point, job } = msg else {
            break;
        };
        ctx.stats.record_respawned();
        // ma-lint: allow(lock-across-call) reason="spawn_worker only spawns; the fetch it reaches runs on the new worker thread, not under this guard"
        workers.lock().push(spawn_worker(Arc::clone(&ctx)));
        if ctx.tracer.is_enabled() {
            ctx.tracer.emit(
                EventName::RESPAWN,
                &[
                    ("point", FieldValue::Str(point.clone())),
                    (
                        "job_id",
                        FieldValue::U64(job.as_ref().map_or(u64::MAX, |j| j.id)),
                    ),
                ],
            );
        }
        let Some(job) = job else { continue };
        if job.state.outcome.lock().is_some() {
            continue; // settled and published before dying
        }
        // A torn-tail crash invalidates the journal for this process:
        // requeueing would run the job without durable settlement, so
        // park it for the next startup instead.
        let torn = ctx.injector.as_ref().is_some_and(|inj| {
            inj.plan().point == point && matches!(inj.plan().mode, CrashMode::TornTail { .. })
        });
        if torn {
            interrupt_job(&ctx, *job, "torn_tail");
            continue;
        }
        if let Err(mpsc::SendError(job)) = jobs.send(*job) {
            // Shutdown raced the requeue; park the job for recovery.
            interrupt_job(&ctx, job, "requeue_raced");
        }
    }
}

/// Emits the `settle` job event right after the quota settlement. A job
/// id settles at most once per process lifetime (crash requeues carry
/// the reservation instead of settling it) — `ma-verify` replays traces
/// and asserts exactly that.
fn trace_settle(tracer: &Tracer, job: u64, used: u64, reason: &str) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.emit(
        EventName::SETTLE,
        &[
            ("job_id", FieldValue::U64(job)),
            ("used", FieldValue::U64(used)),
            ("reason", FieldValue::Str(reason.to_string())),
        ],
    );
}

/// Parks a job the supervisor could not requeue: releases its
/// reservation, journals the interruption so the next startup recovers
/// it, counts and de-registers it — and only then fails its handle with
/// [`ServiceError::Interrupted`]. That is the order normal settlement
/// publishes in, so a caller woken by `join` already sees the quota
/// released and the job gone.
fn interrupt_job(ctx: &WorkerCtx, job: Job, reason: &str) {
    let id = job.id;
    ctx.quota.settle(job.reservation, 0);
    trace_settle(&ctx.tracer, id, 0, reason);
    let mut slot = job.state.outcome.lock();
    if slot.is_some() {
        return;
    }
    if let Some(journal) = &ctx.journal {
        let _ = journal.append(&JournalRecord::Interrupted { job: id });
    }
    ctx.stats.record_interrupted();
    ctx.inflight.lock().remove(&id);
    ctx.outstanding.dec();
    *slot = Some(JobOutcome::Failed {
        job: id,
        error: ServiceError::Interrupted,
        charged: 0,
        resilience: ResilienceStats::default(),
    });
    job.state.ready.notify_all();
}

/// The per-job checkpoint sink: journals every checkpoint, keeps the
/// latest in memory for crash requeues, and hosts the `checkpoint`
/// crashpoint.
struct JobSink {
    job: u64,
    journal: Option<Arc<Journal>>,
    injector: Option<Arc<CrashInjector>>,
    stats: Arc<StatsHub>,
    tracer: Tracer,
    latest: std::sync::Mutex<Option<Box<WalkerCheckpoint>>>,
}

impl JobSink {
    fn new(job: u64, ctx: &WorkerCtx) -> Self {
        JobSink {
            job,
            journal: ctx.journal.clone(),
            injector: ctx.injector.clone(),
            stats: Arc::clone(&ctx.stats),
            tracer: ctx.tracer.clone(),
            latest: std::sync::Mutex::new(None),
        }
    }

    fn take_latest(&self) -> Option<Box<WalkerCheckpoint>> {
        // The sink's own panics (crash injection) can poison this lock;
        // the checkpoint inside is still whole.
        self.latest.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

impl CheckpointSink for JobSink {
    fn record(&self, checkpoint: &WalkerCheckpoint) {
        if let Some(journal) = &self.journal {
            let _ = journal.append_checkpoint(self.job, checkpoint);
        }
        self.stats.record_checkpoint();
        if self.tracer.is_enabled() {
            self.tracer.emit(
                EventName::CHECKPOINT,
                &[
                    ("job_id", FieldValue::U64(self.job)),
                    ("steps", FieldValue::U64(checkpoint.steps)),
                    // `steps` is a per-phase marker (pilot candidates,
                    // then walk instances); `charged` is the cumulative
                    // budget spend at capture — the counter that must
                    // never run backwards, across phases and resumes
                    // alike. `ma-verify` audits it.
                    ("charged", FieldValue::U64(checkpoint.client.charged)),
                ],
            );
        }
        *self.latest.lock().unwrap_or_else(|e| e.into_inner()) = Some(Box::new(checkpoint.clone()));
        // The checkpoint is durable (journaled above) before the
        // crashpoint fires, so a kill here resumes from *this*
        // checkpoint.
        crash_check(&self.injector, &self.journal, "checkpoint");
    }
}

/// Evaluates a crashpoint: kills the calling thread (and, for torn-tail
/// shots, tears the journal first) when the armed plan fires.
fn crash_check(injector: &Option<Arc<CrashInjector>>, journal: &Option<Arc<Journal>>, point: &str) {
    let Some(injector) = injector else { return };
    match injector.check(point) {
        None => {}
        Some(CrashMode::Kill) => {
            // ma-lint: allow(panic-safety) reason="deliberate crash injection; the supervisor catches this panic by prefix"
            panic!("{CRASH_PANIC_PREFIX}{point}");
        }
        Some(CrashMode::TornTail { drop }) => {
            if let Some(journal) = journal {
                let _ = journal.truncate_tail(drop);
            }
            // ma-lint: allow(panic-safety) reason="deliberate crash injection; the supervisor catches this panic by prefix"
            panic!("{CRASH_PANIC_PREFIX}{point}");
        }
    }
}

enum RunEnd {
    Done,
    /// A crashpoint killed the job mid-run; `job` is `None` when the
    /// outcome was already published (nothing to requeue).
    Crashed {
        point: String,
        job: Option<Box<Job>>,
    },
}

fn run_job(analyzer: &MicroblogAnalyzer<'_>, ctx: &WorkerCtx, mut job: Job) -> RunEnd {
    let started = ctx.clock.now();
    let queue_wait = started.saturating_sub(job.submitted);
    let shared: Arc<dyn CacheLayer> = Arc::clone(&ctx.shared_layer);
    let policy = job.spec.retry.unwrap_or(ctx.default_retry);
    let tracer = &ctx.tracer;
    let span = if tracer.is_enabled() {
        tracer.span_start(
            SpanName::JOB,
            &[
                ("job_id", FieldValue::U64(job.id)),
                ("algorithm", FieldValue::from(job.spec.algorithm.name())),
                ("budget", FieldValue::U64(job.spec.budget)),
                ("seed", FieldValue::U64(job.spec.seed)),
                (
                    "queue_wait_micros",
                    FieldValue::U64(queue_wait.as_micros() as u64),
                ),
                ("resumed", FieldValue::U64(job.resume.is_some() as u64)),
            ],
        )
    } else {
        0
    };
    let sink = JobSink::new(job.id, ctx);
    let checkpoints_on =
        ctx.checkpoint_every > 0 && (ctx.journal.is_some() || ctx.injector.is_some());
    // A panicking estimator must not strand joiners: catch it, settle the
    // reservation, and surface it as an outcome like any other failure.
    // Crash-injection panics are the exception — they unwind through
    // here and are handed to the supervisor for requeue.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crash_check(&ctx.injector, &ctx.journal, "post_admit");
        crash_check(&ctx.injector, &ctx.journal, "post_reserve");
        let mut ctl = if checkpoints_on {
            CheckpointCtl::new(ctx.checkpoint_every, &sink)
        } else {
            CheckpointCtl::disabled()
        };
        let report = analyzer.run_recoverable(
            &job.spec.query,
            job.spec.budget,
            job.spec.algorithm,
            job.spec.seed,
            Some(shared),
            &policy,
            tracer.clone(),
            &mut ctl,
            job.resume.as_deref(),
        );
        crash_check(&ctx.injector, &ctx.journal, "pre_settle");
        report
    }));
    let exec = ctx.clock.now().saturating_sub(started);
    if tracer.is_enabled() {
        let (outcome, charged) = match &result {
            Ok(report) => (
                match &report.outcome {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.to_string(),
                },
                report.charged,
            ),
            Err(payload) => match crash_point(payload.as_ref()) {
                Some(point) => (format!("crash:{point}"), 0),
                None => ("panic".to_string(), job.reservation.amount()),
            },
        };
        tracer.span_end(
            SpanName::JOB,
            span,
            &[
                ("job_id", FieldValue::U64(job.id)),
                ("charged", FieldValue::U64(charged)),
                ("outcome", FieldValue::Str(outcome)),
                ("exec_micros", FieldValue::U64(exec.as_micros() as u64)),
            ],
        );
    }
    // Alongside the outcome, both settling paths hand the stats hub
    // their settlement facts (crash requeues carry their reservation
    // onward instead of settling, so they return before reporting).
    let (outcome, jm, estimate) = match result {
        Ok(report) => {
            // Settle down to what the run actually charged — success or
            // not, the unused remainder goes back to the pool. The
            // settle record is journaled before the outcome is
            // published, so recovery and the caller agree.
            let refunded = job.reservation.amount().saturating_sub(report.charged);
            ctx.quota.settle(job.reservation, report.charged);
            trace_settle(tracer, job.id, report.charged, "completed");
            if let Some(journal) = &ctx.journal {
                let _ = journal.append(&JournalRecord::Settle {
                    job: job.id,
                    used: report.charged,
                });
            }
            let jm = job_metrics(&report, refunded, queue_wait, exec);
            let estimate = report.outcome.as_ref().ok().copied();
            let RunReport {
                outcome,
                charged,
                cache,
                resilience,
                degraded,
            } = report;
            let published = match outcome {
                Ok(estimate) => {
                    let output = JobOutput {
                        job: job.id,
                        estimate,
                        charged,
                        cache,
                        resilience,
                        queue_wait,
                        exec,
                    };
                    if degraded {
                        JobOutcome::Degraded(output)
                    } else {
                        JobOutcome::Complete(output)
                    }
                }
                Err(err) => JobOutcome::Failed {
                    job: job.id,
                    error: ServiceError::Estimation(err),
                    charged,
                    resilience,
                },
            };
            (published, jm, estimate)
        }
        Err(panic) => {
            if let Some(point) = crash_point(panic.as_ref()) {
                // Deliberate crash: resume from the freshest checkpoint
                // this run emitted, falling back to the one it started
                // from. The reservation travels with the job — never
                // settled, so recovery cannot double-charge.
                let point = point.to_string();
                job.resume = sink.take_latest().or(job.resume);
                return RunEnd::Crashed {
                    point,
                    job: Some(Box::new(job)),
                };
            }
            // A real panic leaves no report, so nothing can be refunded:
            // the whole reservation is conservatively treated as consumed.
            let amount = job.reservation.amount();
            ctx.quota.settle(job.reservation, amount);
            trace_settle(tracer, job.id, amount, "panic");
            if let Some(journal) = &ctx.journal {
                let _ = journal.append(&JournalRecord::Settle {
                    job: job.id,
                    used: amount,
                });
            }
            let jm = JobMetrics {
                succeeded: false,
                degraded: false,
                charged_calls: amount,
                refunded_calls: 0,
                samples: 0,
                cache: CacheStats::default(),
                retries: 0,
                wasted_calls: 0,
                backoff_secs: 0,
                rate_limited_hits: 0,
                breaker_opens: 0,
                breaker_fast_fails: 0,
                queue_wait,
                exec,
            };
            (
                JobOutcome::Failed {
                    job: job.id,
                    error: ServiceError::WorkerPanicked(panic_message(panic.as_ref())),
                    charged: amount,
                    resilience: ResilienceStats::default(),
                },
                jm,
                None,
            )
        }
    };
    // Settlement stats (and any emission they trigger) must complete
    // before the outcome is published: once `join` returns the caller
    // may submit the next job, and its admission events would otherwise
    // race this job's stats on the shared logical clock — breaking the
    // byte-identical stats-stream guarantee.
    let settled_at = ctx.clock.now();
    let settle = settled_at.saturating_sub(started.saturating_add(exec));
    ctx.stats.record_settled(
        settled_at.as_micros() as u64,
        job.id,
        &jm,
        estimate.as_ref(),
        settle,
    );
    ctx.stats
        .maybe_emit(&ctx.tracer, ctx.stats_every, || ctx.gauges());
    let mut slot = job.state.outcome.lock();
    let fresh = slot.is_none();
    if fresh {
        // De-registration happens before the joiner wakes, for the same
        // reason stats do: a caller acting on `join` must observe this
        // job gone from the inflight gauge. Same outcome → inflight
        // nesting as `interrupt_job`.
        ctx.inflight.lock().remove(&job.id);
        ctx.outstanding.dec();
        *slot = Some(outcome);
        job.state.ready.notify_all();
    }
    drop(slot);
    // The worker may still be shot after full completion; recovery then
    // sees a settled job and reruns nothing.
    let post = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crash_check(&ctx.injector, &ctx.journal, "post_settle");
    }));
    if post.is_err() {
        return RunEnd::Crashed {
            point: "post_settle".to_string(),
            job: None,
        };
    }
    RunEnd::Done
}

fn job_metrics(
    report: &RunReport,
    refunded: u64,
    queue_wait: Duration,
    exec: Duration,
) -> JobMetrics {
    let r = &report.resilience;
    JobMetrics {
        succeeded: report.outcome.is_ok(),
        degraded: report.degraded,
        charged_calls: report.charged,
        refunded_calls: refunded,
        samples: report.outcome.as_ref().map_or(0, |est| est.samples as u64),
        cache: report.cache,
        retries: r.retries,
        wasted_calls: r.wasted_calls(),
        backoff_secs: r.total_wait().0.max(0) as u64,
        rate_limited_hits: r.rate_limited_hits,
        breaker_opens: r.breaker_opens,
        breaker_fast_fails: r.breaker_fast_fails,
        queue_wait,
        exec,
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::JobSpec;
    use microblog_analyzer::query::parse::parse_query;
    use microblog_analyzer::Algorithm;
    use microblog_platform::scenario::{twitter_2013, Scale};

    fn tiny_service(quota: Option<u64>, workers: usize) -> Service {
        let scenario = twitter_2013(Scale::Tiny, 2014);
        Service::new(
            Arc::new(scenario.platform),
            ApiProfile::twitter(),
            ServiceConfig {
                workers,
                global_quota: quota,
                cache: SharedCacheConfig {
                    capacity: 4096,
                    shards: 4,
                },
                ..ServiceConfig::default()
            },
        )
    }

    fn spec(service: &Service, budget: u64, seed: u64) -> JobSpec {
        let query = parse_query(
            "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'",
            service.platform().keywords(),
        )
        .expect("query parses");
        JobSpec::new(query, Algorithm::MaTarw { interval: None }, budget, seed)
    }

    #[test]
    fn submit_join_produces_estimate_and_settles_quota() {
        let service = tiny_service(Some(50_000), 2);
        let spec = spec(&service, 4_000, 7);
        let handle = service.submit(spec).expect("admitted");
        let output = handle.join().into_result().expect("estimates");
        assert!(output.estimate.cost <= 4_000);
        assert_eq!(output.charged, output.estimate.cost);
        assert_eq!(service.quota().consumed(), output.charged);
        assert_eq!(service.quota().reserved(), 0);
        let snap = service.metrics_snapshot();
        assert_eq!(snap.jobs_submitted, 1);
        assert_eq!(snap.jobs_succeeded, 1);
        assert_eq!(snap.charged_calls, output.charged);
        let report = service.shutdown();
        assert!(report.clean);
        assert!(report.interrupted.is_empty());
    }

    #[test]
    fn admission_control_rejects_over_quota() {
        let service = tiny_service(Some(1_000), 1);
        let err = service.submit(spec(&service, 5_000, 7)).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected {
                requested: 5_000,
                available: 1_000
            }
        );
        assert_eq!(service.metrics_snapshot().jobs_rejected, 1);
        // A job the quota can cover is still admitted afterwards.
        let handle = service.submit(spec(&service, 1_000, 7)).expect("fits");
        assert!(handle.join().into_result().is_ok());
    }

    #[test]
    fn identical_jobs_share_the_cache() {
        let service = tiny_service(None, 2);
        let first = service.submit(spec(&service, 3_000, 11)).unwrap();
        let a = first.join().into_result().expect("first run");
        let second = service.submit(spec(&service, 3_000, 11)).unwrap();
        let b = second.join().into_result().expect("second run");
        // Logical charging keeps replays bit-identical...
        assert_eq!(a.estimate.value.to_bits(), b.estimate.value.to_bits());
        assert_eq!(a.estimate.cost, b.estimate.cost);
        // ...while the platform sees strictly fewer actual calls.
        assert!(b.cache.actual_calls < a.cache.actual_calls);
        assert!(b.cache.shared_hits > 0);
        assert!(service.cache_snapshot().hits() > 0);
    }

    #[test]
    fn logical_telemetry_is_reproducible() {
        let run = || {
            let service = tiny_service(None, 1);
            let out = service
                .submit(spec(&service, 2_000, 5))
                .unwrap()
                .join()
                .into_result()
                .expect("estimates");
            (out.queue_wait, out.exec)
        };
        let (first, second) = (run(), run());
        assert_eq!(first, second, "logical telemetry must replay identically");
        assert!(first.1 > Duration::ZERO);
    }

    #[test]
    fn handle_is_joinable_multiple_times() {
        let service = tiny_service(None, 1);
        let handle = service.submit(spec(&service, 2_000, 3)).unwrap();
        let first = handle.join().into_result().expect("ok");
        let again = handle.join().into_result().expect("still ok");
        assert_eq!(
            first.estimate.value.to_bits(),
            again.estimate.value.to_bits()
        );
        assert!(handle.try_outcome().is_some());
    }

    #[test]
    fn failed_jobs_refund_their_unused_reservation() {
        // A total outage: every fetch faults forever, so the job fails
        // before charging anything — the old behavior of burning the
        // whole reservation would leave the pool at 12_000 consumed.
        let scenario = twitter_2013(Scale::Tiny, 2014);
        let service = Service::new(
            Arc::new(scenario.platform),
            ApiProfile::twitter(),
            ServiceConfig {
                workers: 1,
                global_quota: Some(20_000),
                fault_plan: Some(FaultPlan::outage(7)),
                retry: RetryPolicy::resilient().with_max_attempts(2),
                ..ServiceConfig::default()
            },
        );
        let handle = service.submit(spec(&service, 12_000, 3)).expect("admitted");
        let outcome = handle.join();
        match &outcome {
            JobOutcome::Failed {
                error,
                charged,
                resilience,
                ..
            } => {
                assert!(matches!(error, ServiceError::Estimation(_)));
                assert_eq!(*charged, 0, "failed attempts charge the waste meter");
                assert!(resilience.fatal_errors > 0);
                assert!(!resilience.trail.is_empty());
            }
            other => panic!("expected Failed under a total outage, got {other:?}"),
        }
        assert_eq!(service.quota().consumed(), 0, "full refund");
        assert_eq!(service.quota().reserved(), 0);
        assert_eq!(service.quota().remaining(), Some(20_000));
        let snap = service.metrics_snapshot();
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.refunded_calls, 12_000);
        assert!(snap.retries > 0);
    }

    #[test]
    fn absorbed_faults_leave_estimates_bit_identical() {
        let clean = tiny_service(None, 1);
        let baseline = clean
            .submit(spec(&clean, 3_000, 21))
            .unwrap()
            .join()
            .into_result()
            .expect("clean run");

        let scenario = twitter_2013(Scale::Tiny, 2014);
        let service = Service::new(
            Arc::new(scenario.platform),
            ApiProfile::twitter(),
            ServiceConfig {
                workers: 1,
                fault_plan: Some(FaultPlan::mixed(5, 0.2).with_max_consecutive(2)),
                retry: RetryPolicy::patient(),
                ..ServiceConfig::default()
            },
        );
        let outcome = service.submit(spec(&service, 3_000, 21)).unwrap().join();
        assert!(outcome.is_complete(), "all faults absorbed: {outcome:?}");
        let out = outcome.into_result().unwrap();
        assert_eq!(
            out.estimate.value.to_bits(),
            baseline.estimate.value.to_bits()
        );
        assert_eq!(out.estimate.cost, baseline.estimate.cost);
        assert_eq!(out.charged, baseline.charged);
        assert!(out.resilience.retries > 0, "a 20% plan must force retries");
        let injector = service.fault_injector().expect("configured");
        assert!(injector.injected().total() > 0);
    }
}
