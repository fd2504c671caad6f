//! The stats hub: the service totals behind `Service::metrics_snapshot`
//! and the live telemetry behind `Service::stats_snapshot`, `ma-cli
//! serve --stats-every` and `ma-cli top`.
//!
//! [`StatsHub`] is the service's only aggregator: every engine event is
//! recorded into it once. It keeps four kinds of state, all driven by the
//! logical [`TelemetryClock`](microblog_obs::TelemetryClock) so two runs
//! with the same seed produce byte-identical stats streams:
//!
//! * **Pipeline stages** — every job flows admit → queue → pilot → walk →
//!   estimate → settle, and each stage owns a rotating
//!   [`WindowedHistogram`] of its latencies. Admit/queue/settle are
//!   recorded directly by the engine; pilot/walk/estimate are correlated
//!   from the `pilot`, `walk` and `estimate` trace spans by
//!   [`StatsHub::observe`].
//! * **Service totals** — one [`MetricsSnapshot`] holding every counter
//!   the service keeps, updated in place under the hub's lock;
//!   `Service::metrics_snapshot` is a copy of it.
//! * **Conserved counters** — eleven of those totals (submissions,
//!   outcomes, charges, cache traffic and samples) are also emitted as a
//!   per-emission delta. Every `stats`/`window` event carries both
//!   (`d_*` and `t_*`), and the deltas telescope: summed over all window
//!   events in a stream they equal the final totals. `ma-verify
//!   --check stats-conservation` audits exactly that.
//! * **Per-query convergence** — running charge/step progress from
//!   checkpoint events, the latest Geweke z-score, and on settlement the
//!   final estimate with its 95% CI half-width per charged call.
//!
//! Emissions flow through the ordinary [`Tracer`] as `Category::Stats`
//! events (`window`, `gauges`, `query` — part of the closed
//! `microblog_obs::schema` vocabulary), so a stats stream is itself a
//! legal trace. [`StatsSink`] splits the event flow: stats events are
//! rendered to the configured writer as JSONL, everything else feeds
//! back into the hub for span correlation (and optionally forwards to an
//! inner sink for full-trace capture).

use crate::metrics::{JobMetrics, MetricsSnapshot};
use microblog_analyzer::Estimate;
use microblog_api::cache::CoalesceStats;
use microblog_api::SchedStats;
use microblog_obs::window::{percentile, WindowedHistogram, WindowedSeries};
use microblog_obs::{to_json_line, Category, EventKind, FieldValue, TraceEvent, TraceSink, Tracer};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// The pipeline stages a job is attributed to, in flow order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Admission control: quota reservation + journaling in `submit`.
    Admit,
    /// Queued, waiting for a free worker.
    Queue,
    /// Pilot walks selecting the MA-TARW interval (the `pilot` span).
    Pilot,
    /// The sampler's walk (the `walk` span every sampler's run emits;
    /// for a pilot-selected MA-TARW job it encloses the pilot stage).
    Walk,
    /// The whole estimator run (the `estimate` span).
    Estimate,
    /// Settlement: quota refund, journaling, outcome publication.
    Settle,
}

impl Stage {
    /// Number of stages; sizes per-stage arrays.
    pub const COUNT: usize = 6;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Admit,
        Stage::Queue,
        Stage::Pilot,
        Stage::Walk,
        Stage::Estimate,
        Stage::Settle,
    ];

    /// Stable index into per-stage arrays.
    pub fn index(self) -> usize {
        match self {
            Stage::Admit => 0,
            Stage::Queue => 1,
            Stage::Pilot => 2,
            Stage::Walk => 3,
            Stage::Estimate => 4,
            Stage::Settle => 5,
        }
    }

    /// Short lowercase name used in snapshots and the dashboard.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::Queue => "queue",
            Stage::Pilot => "pilot",
            Stage::Walk => "walk",
            Stage::Estimate => "estimate",
            Stage::Settle => "settle",
        }
    }
}

/// Number of conserved counters carried by every `window` event.
pub const CONSERVED_COUNT: usize = 11;

/// Conserved counter names, in emission order. The list lives in
/// [`microblog_obs::schema`] so `ma-verify` audits the same vocabulary
/// this hub emits.
pub const CONSERVED_KEYS: [&str; CONSERVED_COUNT] = microblog_obs::schema::STATS_CONSERVED_KEYS;

/// Field names of the per-emission deltas (`d_*`), aligned with
/// [`CONSERVED_KEYS`].
pub const CONSERVED_DELTA_KEYS: [&str; CONSERVED_COUNT] = [
    "d_jobs_submitted",
    "d_jobs_succeeded",
    "d_jobs_degraded",
    "d_jobs_failed",
    "d_charged_calls",
    "d_refunded_calls",
    "d_actual_calls",
    "d_local_hits",
    "d_shared_hits",
    "d_cache_misses",
    "d_walk_samples",
];

/// Field names of the cumulative totals (`t_*`), aligned with
/// [`CONSERVED_KEYS`].
pub const CONSERVED_TOTAL_KEYS: [&str; CONSERVED_COUNT] = [
    "t_jobs_submitted",
    "t_jobs_succeeded",
    "t_jobs_degraded",
    "t_jobs_failed",
    "t_charged_calls",
    "t_refunded_calls",
    "t_actual_calls",
    "t_local_hits",
    "t_shared_hits",
    "t_cache_misses",
    "t_walk_samples",
];

/// The conserved counters of `totals`, in [`CONSERVED_KEYS`] order.
fn conserved(totals: &MetricsSnapshot) -> [u64; CONSERVED_COUNT] {
    [
        totals.jobs_submitted,
        totals.jobs_succeeded,
        totals.jobs_degraded,
        totals.jobs_failed,
        totals.charged_calls,
        totals.refunded_calls,
        totals.actual_calls,
        totals.local_hits,
        totals.shared_hits,
        totals.cache_misses,
        totals.walk_samples,
    ]
}

/// Windowing layout of a [`StatsHub`].
#[derive(Clone, Copy, Debug)]
pub struct StatsConfig {
    /// Width of one window in telemetry-clock ticks (logical µs).
    pub window_ticks: u64,
    /// Windows retained per series/histogram.
    pub retain: usize,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            window_ticks: microblog_obs::window::DEFAULT_WINDOW_TICKS,
            retain: microblog_obs::window::DEFAULT_RETAIN,
        }
    }
}

/// Instantaneous operational gauges of the layers around the hub,
/// sampled by the engine at emission time and attached to every `gauges`
/// event. The breaker counts those events also carry come from the hub's
/// own totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct GaugeReading {
    /// Calls settled against the global quota.
    pub quota_consumed: u64,
    /// Calls reserved by admitted-but-unsettled jobs.
    pub quota_reserved: u64,
    /// Uncommitted calls left (`None` = unlimited quota).
    pub quota_remaining: Option<u64>,
    /// Jobs admitted but not yet settled.
    pub inflight: u64,
    /// Miss-coalescing counters, service-wide (zero with coalescing off).
    pub coalesce: CoalesceStats,
    /// Fetch-pipeline counters, service-wide (zero with the pipeline
    /// off).
    pub sched: SchedStats,
}

/// Live convergence state of one query.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Latest per-phase step marker from checkpoints.
    pub steps: u64,
    /// Cumulative budget spend (checkpoints, then final settlement).
    pub charged: u64,
    /// Samples kept by the final estimate (0 until settled).
    pub samples: u64,
    /// The settled estimate value.
    pub estimate: Option<f64>,
    /// 95% confidence-interval half-width of the settled estimate.
    pub ci_half: Option<f64>,
    /// Latest Geweke z attributed to this query (single-job runs only).
    pub geweke_z: Option<f64>,
    /// Whether the job settled; settled entries are dropped after the
    /// next emission reports them once.
    pub done: bool,
}

struct Inner {
    stages: [WindowedHistogram; Stage::COUNT],
    submitted_rate: WindowedSeries,
    settled_rate: WindowedSeries,
    charged_rate: WindowedSeries,
    /// Every counter the service keeps, cumulative.
    totals: MetricsSnapshot,
    /// The conserved counters as of the last emission.
    emitted: [u64; CONSERVED_COUNT],
    queries: BTreeMap<u64, QueryStats>,
    /// span id → (start tick, stage) for pilot/walk/estimate spans.
    open_stage_spans: HashMap<u64, (u64, Stage)>,
    /// span id → job id for open `job` spans; Geweke attribution.
    open_job_spans: HashMap<u64, u64>,
    latest_geweke: Option<f64>,
    settled_since_emit: u64,
    emissions: u64,
}

impl Inner {
    /// The windowed latency histogram for `stage`.
    fn stage(&mut self, stage: Stage) -> &mut WindowedHistogram {
        // ma-lint: allow(panic-safety) reason="Stage::index() is < Stage::COUNT, the array length"
        &mut self.stages[stage.index()]
    }

    /// An admission at `tick` that took `micros`.
    fn admit(&mut self, tick: u64, micros: u64) {
        self.stage(Stage::Admit).record(tick, micros);
        self.totals.jobs_submitted += 1;
        self.submitted_rate.record(tick, 1);
    }
}

/// The live-telemetry aggregator. Cheap to share (`Arc`), all state
/// behind one mutex; every mutation is a short critical section and
/// emissions release the lock before touching the tracer, so the hub can
/// never deadlock against its own sink.
pub struct StatsHub {
    config: StatsConfig,
    inner: Mutex<Inner>,
    /// Serializes emissions so window events in a shared stream stay in
    /// telescoping order even with concurrent workers.
    emit_lock: Mutex<()>,
}

impl std::fmt::Debug for StatsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsHub")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl StatsHub {
    /// Creates a hub with the given windowing layout.
    pub fn new(config: StatsConfig) -> Self {
        let window = config.window_ticks;
        let retain = config.retain;
        StatsHub {
            config,
            inner: Mutex::new(Inner {
                stages: std::array::from_fn(|_| WindowedHistogram::new(window, retain)),
                submitted_rate: WindowedSeries::new(window, retain),
                settled_rate: WindowedSeries::new(window, retain),
                charged_rate: WindowedSeries::new(window, retain),
                totals: MetricsSnapshot::default(),
                emitted: [0; CONSERVED_COUNT],
                queries: BTreeMap::new(),
                open_stage_spans: HashMap::new(),
                open_job_spans: HashMap::new(),
                latest_geweke: None,
                settled_since_emit: 0,
                emissions: 0,
            }),
            emit_lock: Mutex::new(()),
        }
    }

    /// The windowing layout in force.
    pub fn config(&self) -> StatsConfig {
        self.config
    }

    /// Records an admission: the `admit` stage latency plus the
    /// `jobs_submitted` counter and submission rate.
    pub fn record_admit(&self, tick: u64, micros: u64) {
        self.inner.lock().admit(tick, micros);
    }

    /// Records a job requeued from the journal at startup: it re-enters
    /// the pipeline at the admit stage with zero admission latency (the
    /// reservation already exists) and counts as resumed.
    pub(crate) fn record_resumed(&self, tick: u64) {
        let mut inner = self.inner.lock();
        inner.admit(tick, 0);
        inner.totals.jobs_resumed += 1;
    }

    /// Records a submission refused by admission control.
    pub(crate) fn record_rejected(&self) {
        self.inner.lock().totals.jobs_rejected += 1;
    }

    /// Records a walker checkpoint written to the sink/journal.
    pub(crate) fn record_checkpoint(&self) {
        self.inner.lock().totals.checkpoints_written += 1;
    }

    /// Records a worker the supervisor respawned after a crash.
    pub(crate) fn record_respawned(&self) {
        self.inner.lock().totals.workers_respawned += 1;
    }

    /// Records a job journaled as interrupted (drain deadline, torn
    /// journal, or a quota too small to re-admit it at startup).
    pub(crate) fn record_interrupted(&self) {
        self.inner.lock().totals.jobs_interrupted += 1;
    }

    /// Records `n` journal records dropped repairing a torn tail.
    pub(crate) fn record_journal_dropped(&self, n: u64) {
        self.inner.lock().totals.journal_records_dropped += n;
    }

    /// Records a settlement: queue/settle stage latencies, the job's
    /// numbers added into the totals, and the query's final convergence
    /// reading.
    pub fn record_settled(
        &self,
        tick: u64,
        job: u64,
        metrics: &JobMetrics,
        estimate: Option<&Estimate>,
        settle: Duration,
    ) {
        let mut inner = self.inner.lock();
        inner
            .stage(Stage::Queue)
            .record(tick, metrics.queue_wait.as_micros() as u64);
        inner
            .stage(Stage::Settle)
            .record(tick, settle.as_micros() as u64);
        inner.totals.add_job(metrics);
        inner.settled_rate.record(tick, 1);
        inner.charged_rate.record(tick, metrics.charged_calls);
        let entry = inner.queries.entry(job).or_default();
        entry.charged = entry.charged.max(metrics.charged_calls);
        entry.done = true;
        if let Some(est) = estimate {
            entry.estimate = Some(est.value);
            entry.samples = est.samples as u64;
            entry.ci_half = est.std_err.map(|se| 1.96 * se);
        }
        inner.settled_since_emit += 1;
    }

    /// Feeds one non-stats trace event through the hub: span correlation
    /// for the pilot/walk/estimate stages, checkpoint progress, and
    /// Geweke readings. Called by [`StatsSink`]; cheap and non-blocking.
    pub fn observe(&self, event: &TraceEvent) {
        if event.category == Category::Stats {
            return; // our own emissions; never re-enter
        }
        match (event.kind, event.category, event.name) {
            (EventKind::SpanStart, Category::Walk, "pilot")
            | (EventKind::SpanStart, Category::Job, "walk")
            | (EventKind::SpanStart, Category::Job, "estimate") => {
                let stage = match event.name {
                    "pilot" => Stage::Pilot,
                    "walk" => Stage::Walk,
                    _ => Stage::Estimate,
                };
                if let Some(id) = event.span {
                    self.inner
                        .lock()
                        .open_stage_spans
                        .insert(id, (event.tick, stage));
                }
            }
            (EventKind::SpanEnd, Category::Walk, "pilot")
            | (EventKind::SpanEnd, Category::Job, "walk")
            | (EventKind::SpanEnd, Category::Job, "estimate") => {
                if let Some(id) = event.span {
                    let mut inner = self.inner.lock();
                    if let Some((start, stage)) = inner.open_stage_spans.remove(&id) {
                        let micros = event.tick.saturating_sub(start);
                        inner.stage(stage).record(event.tick, micros);
                    }
                }
            }
            (EventKind::SpanStart, Category::Job, "job") => {
                if let (Some(id), Some(job)) = (event.span, event.u64_field("job_id")) {
                    self.inner.lock().open_job_spans.insert(id, job);
                }
            }
            (EventKind::SpanEnd, Category::Job, "job") => {
                if let Some(id) = event.span {
                    self.inner.lock().open_job_spans.remove(&id);
                }
            }
            (EventKind::Event, Category::Checkpoint, "checkpoint") => {
                if let Some(job) = event.u64_field("job_id") {
                    let mut inner = self.inner.lock();
                    let entry = inner.queries.entry(job).or_default();
                    if let Some(steps) = event.u64_field("steps") {
                        entry.steps = steps;
                    }
                    if let Some(charged) = event.u64_field("charged") {
                        entry.charged = entry.charged.max(charged);
                    }
                }
            }
            (EventKind::Event, Category::Diag, "geweke") => {
                if let Some(z) = event.f64_field("z") {
                    let mut inner = self.inner.lock();
                    inner.latest_geweke = Some(z);
                    // Attribute to a query only when exactly one job span
                    // is open — with concurrent workers the reading is
                    // ambiguous and stays global-only.
                    if inner.open_job_spans.len() == 1 {
                        let job = *inner.open_job_spans.values().next().unwrap_or(&0);
                        inner.queries.entry(job).or_default().geweke_z = Some(z);
                    }
                }
            }
            _ => {}
        }
    }

    /// Emits one stats emission when at least `every` settlements
    /// happened since the last one (`every == 0` disables the cadence).
    /// `gauges` is only evaluated when an emission actually fires.
    pub fn maybe_emit(&self, tracer: &Tracer, every: u64, gauges: impl FnOnce() -> GaugeReading) {
        if every == 0 || !tracer.is_enabled() {
            return;
        }
        let due = self.inner.lock().settled_since_emit >= every;
        if due {
            self.emit(tracer, gauges());
        }
    }

    /// Emits one stats emission unconditionally: a `window` event with
    /// conserved deltas/totals, a `gauges` event, and one `query` event
    /// per tracked query (settled queries are dropped after this report).
    pub fn emit(&self, tracer: &Tracer, gauges: GaugeReading) {
        if !tracer.is_enabled() {
            return;
        }
        // Serialize whole emissions: the conservation invariant needs
        // window events in telescoping order within a shared stream.
        let _ordered = self.emit_lock.lock();
        // Compute every field vector under the inner lock, release it,
        // then emit — the tracer's sink feeds back into `observe`.
        let (window_fields, gauge_fields, query_fields) = {
            let mut inner = self.inner.lock();
            inner.settled_since_emit = 0;
            let win = inner.emissions;
            inner.emissions += 1;
            let mut window: Vec<(&'static str, FieldValue)> =
                Vec::with_capacity(1 + 2 * CONSERVED_COUNT);
            window.push(("win", FieldValue::U64(win)));
            let totals = conserved(&inner.totals);
            let keys = CONSERVED_DELTA_KEYS.iter().zip(CONSERVED_TOTAL_KEYS.iter());
            let counters = totals.iter().zip(inner.emitted.iter());
            for ((total, prev), (dkey, tkey)) in counters.zip(keys) {
                window.push((*dkey, FieldValue::U64(total - prev)));
                window.push((*tkey, FieldValue::U64(*total)));
            }
            inner.emitted = totals;
            let gauge = gauge_fields(&inner, &gauges);
            let queries: Vec<Vec<(&'static str, FieldValue)>> = inner
                .queries
                .iter()
                .map(|(job, q)| query_fields_for(*job, q))
                .collect();
            inner.queries.retain(|_, q| !q.done);
            (window, gauge, queries)
        };
        tracer.emit(Category::Stats, "window", &window_fields);
        tracer.emit(Category::Stats, "gauges", &gauge_fields);
        for fields in &query_fields {
            tracer.emit(Category::Stats, "query", fields);
        }
    }

    /// A point-in-time stable-JSON snapshot of the hub: conserved
    /// totals, per-stage latency percentiles over the retained horizon,
    /// window histories for the rate series, per-query convergence and
    /// the supplied gauges. Field order is fixed, floats use shortest
    /// round-trip formatting — byte-stable for goldens.
    pub fn snapshot_json(&self, gauges: &GaugeReading) -> String {
        let inner = self.inner.lock();
        let mut out = String::with_capacity(1024);
        out.push_str("{\"totals\":{");
        let totals = conserved(&inner.totals);
        for (i, (key, total)) in CONSERVED_KEYS.iter().zip(totals.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{key}\":{total}"));
        }
        out.push_str("},\"stages\":{");
        for (i, (stage, hist)) in Stage::ALL.iter().zip(inner.stages.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let merged = hist.merged();
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                stage.as_str(),
                hist.count(),
                percentile(&merged, 0.50),
                percentile(&merged, 0.90),
                percentile(&merged, 0.99),
                hist.max(),
            ));
        }
        out.push_str("},\"rates\":{");
        for (i, (name, series)) in [
            ("submitted", &inner.submitted_rate),
            ("settled", &inner.settled_rate),
            ("charged", &inner.charged_rate),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":["));
            for (j, w) in series.snapshot().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&w.sum.to_string());
            }
            out.push(']');
        }
        out.push_str("},\"queries\":[");
        for (i, (job, q)) in inner.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"job\":{job},\"steps\":{},\"charged\":{},\"samples\":{},\
                 \"estimate\":{},\"ci_half\":{},\"geweke_z\":{},\"done\":{}}}",
                q.steps,
                q.charged,
                q.samples,
                json_f64_opt(q.estimate),
                json_f64_opt(q.ci_half),
                json_f64_opt(q.geweke_z),
                q.done,
            ));
        }
        out.push_str("],\"gauges\":{");
        out.push_str(&format!(
            "\"quota_consumed\":{},\"quota_reserved\":{},\"quota_remaining\":{},\
             \"inflight\":{},\"cache_hit_rate\":{},\"breaker_opens\":{},\
             \"breaker_fast_fails\":{},\"coalesce_leads\":{},\"coalesce_waits\":{},\
             \"coalesce_aborts\":{},\"coalesce_peak_inflight\":{},\
             \"sched_announced\":{},\"sched_prefetched\":{},\"sched_hits\":{},\
             \"sched_waits\":{},\"sched_claimed\":{},\"sched_stranded\":{},\
             \"sched_peak_inflight\":{},\"geweke_z\":{}",
            gauges.quota_consumed,
            gauges.quota_reserved,
            gauges
                .quota_remaining
                .map_or("null".to_string(), |v| v.to_string()),
            gauges.inflight,
            json_f64(hit_rate(&inner.totals)),
            inner.totals.breaker_opens,
            inner.totals.breaker_fast_fails,
            gauges.coalesce.leads,
            gauges.coalesce.waits,
            gauges.coalesce.aborts,
            gauges.coalesce.peak_inflight,
            gauges.sched.announced,
            gauges.sched.prefetched,
            gauges.sched.hits,
            gauges.sched.waits,
            gauges.sched.claimed,
            gauges.sched.stranded,
            gauges.sched.peak_inflight,
            json_f64_opt(inner.latest_geweke),
        ));
        out.push_str(&format!("}},\"emissions\":{}}}", inner.emissions));
        out
    }

    /// Per-query convergence entries, in job-id order.
    pub fn queries(&self) -> Vec<(u64, QueryStats)> {
        self.inner
            .lock()
            .queries
            .iter()
            .map(|(j, q)| (*j, q.clone()))
            .collect()
    }

    /// The conserved cumulative totals, aligned with [`CONSERVED_KEYS`].
    pub fn totals(&self) -> [u64; CONSERVED_COUNT] {
        conserved(&self.inner.lock().totals)
    }

    /// A copy of every cumulative counter the hub keeps. Its `mode` and
    /// the counters kept by other layers (coalescing, journal appends)
    /// are the caller's to fill in; `Service::metrics_snapshot` does.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        self.inner.lock().totals
    }

    /// Emissions performed so far.
    pub fn emissions(&self) -> u64 {
        self.inner.lock().emissions
    }
}

/// Shared-cache hit rate over the totals (0 when no lookups).
fn hit_rate(totals: &MetricsSnapshot) -> f64 {
    let hits = totals.local_hits + totals.shared_hits;
    let lookups = hits + totals.cache_misses;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

fn gauge_fields(inner: &Inner, g: &GaugeReading) -> Vec<(&'static str, FieldValue)> {
    let mut fields: Vec<(&'static str, FieldValue)> = vec![
        ("quota_consumed", FieldValue::U64(g.quota_consumed)),
        ("quota_reserved", FieldValue::U64(g.quota_reserved)),
        (
            "quota_unlimited",
            FieldValue::U64(u64::from(g.quota_remaining.is_none())),
        ),
        (
            "quota_remaining",
            FieldValue::U64(g.quota_remaining.unwrap_or(0)),
        ),
        ("inflight", FieldValue::U64(g.inflight)),
        ("cache_hit_rate", FieldValue::F64(hit_rate(&inner.totals))),
        ("breaker_opens", FieldValue::U64(inner.totals.breaker_opens)),
        (
            "breaker_fast_fails",
            FieldValue::U64(inner.totals.breaker_fast_fails),
        ),
        ("coalesce_leads", FieldValue::U64(g.coalesce.leads)),
        ("coalesce_waits", FieldValue::U64(g.coalesce.waits)),
        ("coalesce_aborts", FieldValue::U64(g.coalesce.aborts)),
        (
            "coalesce_peak_inflight",
            FieldValue::U64(g.coalesce.peak_inflight),
        ),
        ("sched_announced", FieldValue::U64(g.sched.announced)),
        ("sched_prefetched", FieldValue::U64(g.sched.prefetched)),
        ("sched_hits", FieldValue::U64(g.sched.hits)),
        ("sched_waits", FieldValue::U64(g.sched.waits)),
        ("sched_claimed", FieldValue::U64(g.sched.claimed)),
        ("sched_stranded", FieldValue::U64(g.sched.stranded)),
        (
            "sched_peak_inflight",
            FieldValue::U64(g.sched.peak_inflight),
        ),
    ];
    if let Some(z) = inner.latest_geweke {
        fields.push(("geweke_z", FieldValue::F64(z)));
    }
    fields
}

fn query_fields_for(job: u64, q: &QueryStats) -> Vec<(&'static str, FieldValue)> {
    let mut fields: Vec<(&'static str, FieldValue)> = vec![
        ("job_id", FieldValue::U64(job)),
        ("steps", FieldValue::U64(q.steps)),
        ("charged", FieldValue::U64(q.charged)),
        ("samples", FieldValue::U64(q.samples)),
    ];
    if let Some(v) = q.estimate {
        fields.push(("estimate", FieldValue::F64(v)));
    }
    if let Some(ci) = q.ci_half {
        fields.push(("ci_half", FieldValue::F64(ci)));
        if q.charged > 0 {
            fields.push(("ci_per_call", FieldValue::F64(ci / q.charged as f64)));
        }
    }
    if let Some(z) = q.geweke_z {
        fields.push(("geweke_z", FieldValue::F64(z)));
    }
    fields.push(("done", FieldValue::U64(u64::from(q.done))));
    fields
}

/// Shortest-round-trip float rendering matching `microblog_obs::export`:
/// a forced `.0` for integral values, `null` for non-finite ones.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let mut s = format!("{v}");
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
        s.push_str(".0");
    }
    s
}

fn json_f64_opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), json_f64)
}

/// A [`TraceSink`] that splits the event flow for live telemetry:
/// `Category::Stats` emissions are rendered as JSONL to the configured
/// writer (the stats stream `ma-cli top` consumes), every other event
/// feeds [`StatsHub::observe`] for span correlation, and the whole flow
/// optionally forwards to an inner sink for full-trace capture.
pub struct StatsSink {
    hub: Arc<StatsHub>,
    out: Option<Mutex<Box<dyn Write + Send>>>,
    forward: Option<Arc<dyn TraceSink>>,
}

impl StatsSink {
    /// A sink that only feeds the hub (no stats stream is written).
    pub fn new(hub: Arc<StatsHub>) -> Self {
        StatsSink {
            hub,
            out: None,
            forward: None,
        }
    }

    /// Renders stats emissions to `out` as JSON lines, flushed per line
    /// so a piped `ma-cli top` refreshes promptly.
    pub fn with_output(mut self, out: Box<dyn Write + Send>) -> Self {
        self.out = Some(Mutex::new(out));
        self
    }

    /// Forwards every event (stats included) to `sink` as well.
    pub fn with_forward(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.forward = Some(sink);
        self
    }

    /// The hub this sink feeds.
    pub fn hub(&self) -> &Arc<StatsHub> {
        &self.hub
    }
}

impl TraceSink for StatsSink {
    fn record(&self, event: TraceEvent) {
        if event.category == Category::Stats {
            if let Some(out) = &self.out {
                let mut line = to_json_line(&event);
                line.push('\n');
                let mut w = out.lock();
                // A broken pipe must never take the engine down.
                let _ = w.write_all(line.as_bytes());
                let _ = w.flush();
            }
        } else {
            self.hub.observe(&event);
        }
        if let Some(inner) = &self.forward {
            inner.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_obs::{TelemetryClock, TelemetryMode, WalkPhase};

    fn hub() -> StatsHub {
        StatsHub::new(StatsConfig {
            window_ticks: 64,
            retain: 4,
        })
    }

    #[test]
    fn delta_and_total_field_names_align_with_the_schema_vocabulary() {
        for (i, key) in CONSERVED_KEYS.iter().enumerate() {
            assert_eq!(CONSERVED_DELTA_KEYS[i], format!("d_{key}"));
            assert_eq!(CONSERVED_TOTAL_KEYS[i], format!("t_{key}"));
        }
    }

    fn metrics(charged: u64, succeeded: bool) -> JobMetrics {
        JobMetrics {
            succeeded,
            degraded: false,
            charged_calls: charged,
            refunded_calls: 10,
            samples: 5,
            cache: Default::default(),
            retries: 0,
            wasted_calls: 0,
            backoff_secs: 0,
            rate_limited_hits: 0,
            breaker_opens: 0,
            breaker_fast_fails: 0,
            queue_wait: Duration::from_micros(7),
            exec: Duration::from_micros(100),
        }
    }

    fn event(kind: EventKind, category: Category, name: &'static str, tick: u64) -> TraceEvent {
        TraceEvent {
            tick,
            seq: 0,
            kind,
            category,
            name,
            span: Some(1),
            phase: WalkPhase::Idle,
            level: None,
            fields: Vec::new(),
        }
    }

    /// Collects everything a tracer emits, for emission-shape asserts.
    struct VecSink(Mutex<Vec<TraceEvent>>);

    impl TraceSink for VecSink {
        fn record(&self, event: TraceEvent) {
            self.0.lock().push(event);
        }
    }

    fn tracer_with_sink() -> (Tracer, Arc<VecSink>) {
        let sink = Arc::new(VecSink(Mutex::new(Vec::new())));
        let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
        (
            Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>, clock),
            sink,
        )
    }

    #[test]
    fn admit_and_settle_feed_stages_and_totals() {
        let hub = hub();
        hub.record_admit(10, 3);
        hub.record_settled(200, 0, &metrics(40, true), None, Duration::from_micros(2));
        let totals = hub.metrics();
        assert_eq!(totals.jobs_submitted, 1);
        assert_eq!(totals.jobs_succeeded, 1);
        assert_eq!(totals.charged_calls, 40);
        let snap = hub.snapshot_json(&GaugeReading::default());
        assert!(snap.contains("\"admit\":{\"count\":1"));
        assert!(snap.contains("\"queue\":{\"count\":1"));
        assert!(snap.contains("\"settle\":{\"count\":1"));
    }

    #[test]
    fn span_correlation_measures_pilot_walk_estimate_stages() {
        let hub = hub();
        for (cat, name) in [
            (Category::Walk, "pilot"),
            (Category::Job, "walk"),
            (Category::Job, "estimate"),
        ] {
            hub.observe(&event(EventKind::SpanStart, cat, name, 100));
            hub.observe(&event(EventKind::SpanEnd, cat, name, 130));
        }
        let snap = hub.snapshot_json(&GaugeReading::default());
        // 30 ticks lands in the [28,31] log-linear sub-bucket; a lone
        // occupant reports the inclusive upper bound.
        assert!(snap.contains("\"pilot\":{\"count\":1,\"p50\":31"));
        assert!(snap.contains("\"walk\":{\"count\":1,\"p50\":31"));
        assert!(snap.contains("\"estimate\":{\"count\":1,\"p50\":31"));
    }

    #[test]
    fn checkpoints_and_geweke_drive_query_convergence() {
        let hub = hub();
        let mut job_span = event(EventKind::SpanStart, Category::Job, "job", 5);
        job_span.fields.push(("job_id", FieldValue::U64(9)));
        hub.observe(&job_span);
        let mut ckpt = event(EventKind::Event, Category::Checkpoint, "checkpoint", 10);
        ckpt.fields.push(("job_id", FieldValue::U64(9)));
        ckpt.fields.push(("steps", FieldValue::U64(500)));
        ckpt.fields.push(("charged", FieldValue::U64(120)));
        hub.observe(&ckpt);
        let mut gw = event(EventKind::Event, Category::Diag, "geweke", 11);
        gw.fields.push(("z", FieldValue::F64(0.5)));
        hub.observe(&gw);
        let queries = hub.queries();
        assert_eq!(queries.len(), 1);
        let (job, q) = &queries[0];
        assert_eq!(*job, 9);
        assert_eq!(q.steps, 500);
        assert_eq!(q.charged, 120);
        assert_eq!(q.geweke_z, Some(0.5));
        assert!(!q.done);
    }

    #[test]
    fn emission_deltas_telescope_to_totals() {
        let hub = hub();
        let (tracer, sink) = tracer_with_sink();
        hub.record_admit(1, 1);
        hub.record_settled(50, 0, &metrics(30, true), None, Duration::from_micros(1));
        hub.emit(&tracer, GaugeReading::default());
        hub.record_admit(60, 1);
        hub.record_settled(90, 1, &metrics(12, false), None, Duration::from_micros(1));
        hub.emit(&tracer, GaugeReading::default());
        let events = sink.0.lock();
        let windows: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "window").collect();
        assert_eq!(windows.len(), 2);
        let totals = hub.totals();
        for i in 0..CONSERVED_COUNT {
            let sum: u64 = windows
                .iter()
                .map(|w| w.u64_field(CONSERVED_DELTA_KEYS[i]).unwrap())
                .sum();
            assert_eq!(sum, totals[i], "delta sum for {}", CONSERVED_KEYS[i]);
            assert_eq!(
                windows[1].u64_field(CONSERVED_TOTAL_KEYS[i]).unwrap(),
                totals[i]
            );
        }
        assert_eq!(windows[0].u64_field("win"), Some(0));
        assert_eq!(windows[1].u64_field("win"), Some(1));
    }

    #[test]
    fn settled_queries_are_reported_once_then_dropped() {
        let hub = hub();
        let (tracer, sink) = tracer_with_sink();
        let est = Estimate {
            value: 1000.0,
            std_err: Some(50.0),
            cost: 200,
            samples: 40,
            instances: 4,
        };
        hub.record_settled(
            10,
            3,
            &metrics(200, true),
            Some(&est),
            Duration::from_micros(1),
        );
        hub.emit(&tracer, GaugeReading::default());
        hub.emit(&tracer, GaugeReading::default());
        let events = sink.0.lock();
        let queries: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "query").collect();
        assert_eq!(queries.len(), 1, "settled query reported exactly once");
        let q = queries[0];
        assert_eq!(q.u64_field("job_id"), Some(3));
        assert_eq!(q.f64_field("estimate"), Some(1000.0));
        assert_eq!(q.f64_field("ci_half"), Some(1.96 * 50.0));
        assert_eq!(q.f64_field("ci_per_call"), Some(1.96 * 50.0 / 200.0));
        assert_eq!(q.u64_field("done"), Some(1));
    }

    #[test]
    fn maybe_emit_honors_the_cadence() {
        let hub = hub();
        let (tracer, sink) = tracer_with_sink();
        hub.record_settled(5, 0, &metrics(1, true), None, Duration::from_micros(1));
        hub.maybe_emit(&tracer, 2, GaugeReading::default);
        assert_eq!(hub.emissions(), 0, "one settle < every=2");
        hub.record_settled(9, 1, &metrics(1, true), None, Duration::from_micros(1));
        hub.maybe_emit(&tracer, 2, GaugeReading::default);
        assert_eq!(hub.emissions(), 1);
        assert!(sink.0.lock().iter().any(|e| e.name == "gauges"));
    }

    #[test]
    fn stats_sink_splits_stream_from_observation() {
        let hub = Arc::new(hub());
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = StatsSink::new(Arc::clone(&hub)).with_output(Box::new(Shared(Arc::clone(&buf))));
        let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
        let tracer = Tracer::new(Arc::new(sink), clock);
        // A non-stats event reaches the hub, not the stream.
        tracer.span_start(Category::Walk, "pilot", &[]);
        assert!(buf.lock().is_empty());
        // A stats emission reaches the stream as JSONL.
        hub.emit(&tracer, GaugeReading::default());
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert!(text.lines().count() >= 2, "window + gauges lines");
        assert!(text.contains("\"cat\":\"stats\""));
        assert!(text.contains("\"name\":\"window\""));
    }

    #[test]
    fn snapshot_json_is_stable_across_identical_hubs() {
        let build = || {
            let hub = hub();
            hub.record_admit(10, 3);
            hub.record_settled(300, 0, &metrics(25, true), None, Duration::from_micros(4));
            hub.snapshot_json(&GaugeReading {
                quota_consumed: 25,
                quota_remaining: Some(975),
                ..GaugeReading::default()
            })
        };
        assert_eq!(build(), build());
    }
}
