//! `ma-bench` — the repo's reproducible perf harness.
//!
//! `ma-bench perf` drives the service with a fixed seeded workload
//! (mixed concurrent queries against a shared world, cold and warm
//! cache, coalescing on and off) plus a direct walker step-loop
//! measurement, a recovery section — checkpoint-cadence step-rate
//! overhead (off/1k/10k) and cold journal replay of 100 in-flight
//! jobs — and a fetch-pipeline matrix (simulated RTT ∈ {1, 50, 100} ms
//! × pipeline off/on, cold QPS each way), and writes the numbers to the
//! file named by `--out` (required, so a run never overwrites a
//! committed `BENCH_<n>.json`). Those files are the perf trajectory, so
//! the schema is stable and `ma-bench check FILE` verifies it — CI fails
//! on schema drift, never on absolute numbers (which depend on hardware).
//!
//! The workload is deterministic (fixed world seed, fixed job seeds);
//! only the wall-clock rates and the coalescing race outcomes vary
//! run-to-run. `--smoke` shrinks everything for CI.

// A benchmark times real hardware, so the workspace's wall-clock ban
// (`crates/clippy.toml`) does not apply here.
#![allow(clippy::disallowed_methods)]

use microblog_analyzer::prelude::*;
use microblog_analyzer::walker::srw::{self, SrwConfig};
use microblog_analyzer::{CheckpointCtl, CheckpointSink, WalkerCheckpoint};
use microblog_api::RetryPolicy;
use microblog_api::{CachingClient, InflightPolicy, MicroblogClient, QueryBudget};
use microblog_obs::Tracer;
use microblog_platform::scenario::{twitter_2013, Scale, Scenario};
use microblog_platform::{Duration, SlowBackend};
use microblog_service::{
    JobSpec, Journal, JournalRecord, Service, ServiceConfig, TelemetryClock, TelemetryMode,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// World seed shared by every `perf` invocation, so runs are comparable.
const WORLD_SEED: u64 = 2014;

/// Simulated network round-trip per platform fetch in the service
/// scenarios, in milliseconds. The in-memory store answers in
/// microseconds — no real microblog API does — so without a realistic
/// in-flight window, concurrent misses would never overlap and
/// coalescing (or its absence) would be invisible. 1ms keeps the full
/// run under a few seconds while dwarfing scheduler jitter. The stall is
/// [`SlowBackend`]'s: concurrent fetches stall independently, so a
/// pipeline that keeps N fetches in flight completes them in ~one RTT —
/// the completion model the fetch scheduler is built against.
const SIMULATED_RTT_MS: u64 = 1;

/// Current `BENCH_<n>.json` schema version. v4 added the fetch-pipeline
/// matrix (RTT × pipeline cold QPS, inflight-depth/announce-batch
/// columns, identity booleans); v3 added the queue/exec
/// latency-percentile columns.
const SCHEMA_VERSION: u64 = 4;

/// The simulated RTTs the pipeline matrix sweeps, in milliseconds.
const PIPELINE_RTTS_MS: [u64; 3] = [1, 50, 100];

/// Keys every `BENCH_<n>.json` must carry, with their JSON kind. `check`
/// fails on a missing key, a kind mismatch, or a stale
/// `schema_version` — that is the schema gate.
const SCHEMA: &[(&str, &str)] = &[
    ("schema_version", "integer"),
    ("smoke", "bool"),
    ("world_scale", "string"),
    ("world_seed", "integer"),
    ("workers", "integer"),
    ("jobs", "integer"),
    ("budget_per_job", "integer"),
    ("simulated_rtt_ms", "integer"),
    ("queries_per_sec_cold", "number"),
    ("queries_per_sec_warm", "number"),
    ("walker_steps_measured", "integer"),
    ("walker_steps_per_sec", "number"),
    ("charged_calls", "integer"),
    ("actual_calls", "integer"),
    ("baseline_actual_calls", "integer"),
    ("actual_call_reduction", "number"),
    ("coalesce_leads", "integer"),
    ("coalesce_waits", "integer"),
    ("coalesce_aborts", "integer"),
    ("coalesced_miss_ratio", "number"),
    ("peak_inflight_dedup", "integer"),
    // Latency section (schema v3): per-stage percentiles over the cold
    // coalesced run, read from the service's log2 histograms. Values are
    // inclusive bucket upper bounds in microseconds (logical telemetry).
    ("queue_wait_us_p50", "integer"),
    ("queue_wait_us_p95", "integer"),
    ("queue_wait_us_p99", "integer"),
    ("exec_us_p50", "integer"),
    ("exec_us_p95", "integer"),
    ("exec_us_p99", "integer"),
    // Recovery section: checkpoint-cadence step-rate overhead and
    // cold-recovery (journal replay + resumed-job drain) timings.
    ("recovery_walker_steps", "integer"),
    ("recovery_steps_per_sec_no_checkpoint", "number"),
    ("recovery_steps_per_sec_every_1k", "number"),
    ("recovery_steps_per_sec_every_10k", "number"),
    ("recovery_checkpoint_overhead_1k", "number"),
    ("recovery_checkpoint_overhead_10k", "number"),
    ("recovery_cold_jobs", "integer"),
    ("recovery_cold_start_secs", "number"),
    ("recovery_cold_drain_secs", "number"),
    ("recovery_cold_resumed_jobs", "integer"),
    // Pipeline section (schema v4): cold QPS for an MA-SRW workload at
    // each simulated RTT with the fetch pipeline off vs on, plus the
    // pipeline shape and the off/on identity checks (charged totals and
    // estimate bits must never differ — pipelining is latency-only).
    ("pipeline_jobs", "integer"),
    ("pipeline_budget_per_job", "integer"),
    ("pipeline_chains", "integer"),
    ("pipeline_inflight_depth", "integer"),
    ("pipeline_step_cap", "integer"),
    ("pipeline_announce_batch", "integer"),
    ("pipeline_qps_cold_rtt1_off", "number"),
    ("pipeline_qps_cold_rtt1_on", "number"),
    ("pipeline_speedup_rtt1", "number"),
    ("pipeline_qps_cold_rtt50_off", "number"),
    ("pipeline_qps_cold_rtt50_on", "number"),
    ("pipeline_speedup_rtt50", "number"),
    ("pipeline_qps_cold_rtt100_off", "number"),
    ("pipeline_qps_cold_rtt100_on", "number"),
    ("pipeline_speedup_rtt100", "number"),
    ("pipeline_charged_identical", "bool"),
    ("pipeline_estimates_identical", "bool"),
];

struct PerfParams {
    smoke: bool,
    workers: usize,
    /// Same-seed replicas per keyword — the stampede half of the mix.
    replicas: usize,
    /// Distinct-seed jobs per keyword — the overlapping-but-not-identical half.
    varied: usize,
    budget: u64,
    walker_steps: usize,
    walker_trials: usize,
    /// Pipeline-matrix shape: concurrent MA-SRW jobs per cell (one
    /// worker each), interleaved chains per job, and the per-job budget.
    pipeline_jobs: usize,
    pipeline_chains: usize,
    pipeline_budget: u64,
    /// Outstanding-prefetch depth for the matrix cells. A round announces
    /// roughly `chains x avg-degree` candidate timelines; the depth must
    /// cover most of that batch or the batch resolves in `batch/depth`
    /// serial waves and the speedup caps out well below the chain count.
    pipeline_inflight: InflightPolicy,
    /// Per-chain step cap for the matrix jobs. Must clear burn-in with
    /// room for thinned samples; keeping it tight bounds the CPU-only
    /// tail of free steps over the memoized neighborhood so wall time
    /// stays dominated by fetch latency.
    pipeline_step_cap: usize,
}

impl PerfParams {
    fn new(smoke: bool) -> Self {
        if smoke {
            PerfParams {
                smoke,
                workers: 4,
                replicas: 3,
                varied: 1,
                // TARW's time-bucket seeding needs ~2,250 calls on the
                // tiny world before its first sample; anything lower
                // fails the workload's 'boston' jobs with NoSamples.
                budget: 2_500,
                walker_steps: 20_000,
                walker_trials: 1,
                pipeline_jobs: 2,
                pipeline_chains: 32,
                pipeline_budget: 1_500,
                pipeline_inflight: InflightPolicy::Fixed(256),
                pipeline_step_cap: 200,
            }
        } else {
            PerfParams {
                smoke,
                workers: 8,
                replicas: 4,
                varied: 4,
                budget: 4_000,
                walker_steps: 150_000,
                walker_trials: 3,
                pipeline_jobs: 4,
                pipeline_chains: 32,
                pipeline_budget: 1_500,
                pipeline_inflight: InflightPolicy::Fixed(256),
                pipeline_step_cap: 200,
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("perf") => perf(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => {
            eprintln!("usage: ma-bench perf [--smoke] --out PATH | ma-bench check PATH");
            2
        }
    };
    std::process::exit(code);
}

fn perf(args: &[String]) -> i32 {
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("--out needs a path");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown flag '{other}'");
                return 2;
            }
        }
    }
    let Some(out) = out else {
        eprintln!("usage: ma-bench perf [--smoke] --out PATH");
        return 2;
    };
    let params = PerfParams::new(smoke);
    let scenario = twitter_2013(Scale::Tiny, WORLD_SEED);
    eprintln!(
        "[perf] world: {} users, {} posts (seed {WORLD_SEED})",
        scenario.platform.user_count(),
        scenario.platform.post_count()
    );
    let json = run_perf(&params, &scenario);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        return 1;
    }
    eprintln!("[perf] wrote {out}");
    0
}

/// The seeded job mix: per keyword, `replicas` jobs sharing one seed
/// (identical trajectories racing on identical keys — the stampede) and
/// `varied` jobs with distinct seeds (overlapping hot nodes). Keywords
/// alternate algorithms so the queues mix walk shapes.
fn workload(scenario: &Scenario, params: &PerfParams) -> Vec<JobSpec> {
    let day = Some(Duration::DAY);
    let keywords = ["privacy", "new york", "boston"];
    let algorithms = [
        Algorithm::MaSrw { interval: day },
        Algorithm::SrwFullGraph,
        Algorithm::MaTarw { interval: day },
    ];
    let mut specs = Vec::new();
    for (k, name) in keywords.iter().enumerate() {
        let kw = match scenario.keyword(name) {
            Some(kw) => kw,
            None => continue,
        };
        let query = AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(scenario.window);
        let algorithm = algorithms[k % algorithms.len()];
        for r in 0..params.replicas {
            let _ = r;
            specs.push(JobSpec::new(query.clone(), algorithm, params.budget, 1));
        }
        for v in 0..params.varied {
            specs.push(JobSpec::new(
                query.clone(),
                algorithm,
                params.budget,
                2 + v as u64,
            ));
        }
    }
    specs
}

struct ScenarioResult {
    elapsed_secs: f64,
    snapshot: microblog_service::MetricsSnapshot,
}

/// Submits the whole workload at once against a fresh service (cold
/// cache) and joins every job. With `coalesce` off this is the
/// no-coalescing baseline the reduction is measured against.
fn run_cold(scenario: &Scenario, params: &PerfParams, coalesce: bool) -> (Service, ScenarioResult) {
    let platform = Arc::new(scenario.platform.clone());
    let service = Service::new(
        Arc::clone(&platform),
        ApiProfile::twitter(),
        ServiceConfig {
            workers: params.workers,
            coalesce,
            backend: Some(Arc::new(SlowBackend::new(platform, SIMULATED_RTT_MS))),
            ..ServiceConfig::default()
        },
    );
    let specs = workload(scenario, params);
    let start = Instant::now();
    let handles: Vec<_> = specs
        .into_iter()
        .map(|spec| service.submit(spec).expect("unlimited quota admits"))
        .collect();
    for handle in &handles {
        handle
            .join()
            .into_result()
            .expect("fault-free workload estimates");
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    let snapshot = service.metrics_snapshot();
    (
        service,
        ScenarioResult {
            elapsed_secs,
            snapshot,
        },
    )
}

/// Re-runs the same workload on the already-warm service.
fn run_warm(service: &Service, scenario: &Scenario, params: &PerfParams) -> f64 {
    let specs = workload(scenario, params);
    let start = Instant::now();
    let handles: Vec<_> = specs
        .into_iter()
        .map(|spec| service.submit(spec).expect("unlimited quota admits"))
        .collect();
    for handle in &handles {
        handle
            .join()
            .into_result()
            .expect("fault-free workload estimates");
    }
    start.elapsed().as_secs_f64()
}

/// Times the SRW step loop directly: unlimited budget, hard step cap, so
/// the walk performs exactly `steps` transitions and the rate isolates
/// per-step cost (neighbor lookup + sampling), not budget accounting.
fn walker_steps_per_sec(scenario: &Scenario, steps: usize, trials: usize) -> f64 {
    let kw = scenario.keyword("privacy").expect("world has 'privacy'");
    let query = AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(scenario.window);
    let mut best = 0.0f64;
    for trial in 0..trials.max(1) {
        let mut client = CachingClient::new(MicroblogClient::with_budget(
            &scenario.platform,
            ApiProfile::twitter(),
            QueryBudget::unlimited(),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(7 + trial as u64);
        let mut cfg = SrwConfig::new(ViewKind::level(Duration::DAY));
        cfg.max_steps = steps;
        let start = Instant::now();
        let est = srw::estimate(&mut client, &query, &cfg, &mut rng);
        let rate = steps as f64 / start.elapsed().as_secs_f64();
        assert!(est.is_ok(), "walker measurement run failed: {est:?}");
        best = best.max(rate);
    }
    best
}

/// A fresh scratch directory under the system temp dir; any leftover
/// from an earlier run is removed first.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ma-bench-recovery-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory creates");
    dir
}

/// [`CheckpointSink`] journaling every checkpoint — the same durable
/// path the service's workers pay, fsync batching included.
struct JournalSink {
    journal: Journal,
}

impl CheckpointSink for JournalSink {
    fn record(&self, cp: &WalkerCheckpoint) {
        self.journal
            .append_checkpoint(0, cp)
            .expect("scratch journal appends");
    }
}

/// [`CheckpointSink`] keeping only the first checkpoint it sees.
struct CaptureFirst(Mutex<Option<WalkerCheckpoint>>);

impl CheckpointSink for CaptureFirst {
    fn record(&self, cp: &WalkerCheckpoint) {
        let mut slot = self.0.lock().expect("capture lock");
        if slot.is_none() {
            *slot = Some(cp.clone());
        }
    }
}

/// The walker step loop of [`walker_steps_per_sec`], with checkpoints
/// flowing into a real journal every `every` safe points (`0` disables
/// checkpointing entirely — the baseline the overhead is measured
/// against).
fn walker_rate_at_cadence(scenario: &Scenario, steps: usize, trials: usize, every: u64) -> f64 {
    let kw = scenario.keyword("privacy").expect("world has 'privacy'");
    let query = AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(scenario.window);
    let dir = scratch_dir(&format!("cadence-{every}"));
    let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
    let (journal, _) = Journal::open(&dir, clock).expect("scratch journal opens");
    let sink = JournalSink { journal };
    // An unlimited budget and the step cap make the walk perform exactly
    // `steps` transitions, like `walker_steps_per_sec`.
    let analyzer =
        MicroblogAnalyzer::new(&scenario.platform, ApiProfile::twitter()).with_step_cap(steps);
    let algorithm = Algorithm::MaSrw {
        interval: Some(Duration::DAY),
    };
    let mut best = 0.0f64;
    for trial in 0..trials.max(1) {
        let mut ctl = if every > 0 {
            CheckpointCtl::new(every, &sink)
        } else {
            CheckpointCtl::disabled()
        };
        let start = Instant::now();
        let report = analyzer.run_recoverable(
            &query,
            u64::MAX,
            algorithm,
            7 + trial as u64,
            None,
            &RetryPolicy::none(),
            Tracer::disabled(),
            &mut ctl,
            None,
        );
        let rate = steps as f64 / start.elapsed().as_secs_f64();
        let est = report.outcome;
        assert!(est.is_ok(), "cadence measurement run failed: {est:?}");
        best = best.max(rate);
    }
    let _ = std::fs::remove_dir_all(&dir);
    best
}

struct ColdRecovery {
    jobs: usize,
    start_secs: f64,
    drain_secs: f64,
    resumed: usize,
}

/// Synthesizes the journal a crashed process would leave — `jobs`
/// admitted, reserved, mid-walk-checkpointed jobs, none settled — and
/// times a cold [`Service::start`] over it (replay + requeue) plus the
/// drain of every resumed job to completion.
fn cold_recovery(scenario: &Scenario, params: &PerfParams, jobs: usize) -> ColdRecovery {
    let kw = scenario.keyword("privacy").expect("world has 'privacy'");
    let query = AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(scenario.window);
    let algorithm = Algorithm::MaSrw {
        interval: Some(Duration::DAY),
    };
    // Capture one genuine mid-walk checkpoint by replaying exactly the
    // run the service would execute for this spec (seed 1, limited
    // budget, level-day view).
    let capture = CaptureFirst(Mutex::new(None));
    let mut ctl = CheckpointCtl::new(100, &capture);
    let est = MicroblogAnalyzer::new(&scenario.platform, ApiProfile::twitter())
        .run_recoverable(
            &query,
            params.budget,
            algorithm,
            1,
            None,
            &RetryPolicy::none(),
            Tracer::disabled(),
            &mut ctl,
            None,
        )
        .outcome;
    assert!(est.is_ok(), "checkpoint capture run failed: {est:?}");
    let checkpoint = capture
        .0
        .into_inner()
        .expect("capture lock")
        .expect("walk reached the checkpoint cadence");

    let spec = JobSpec::new(query, algorithm, params.budget, 1);
    let dir = scratch_dir("cold");
    {
        let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
        let (journal, _) = Journal::open(&dir, clock).expect("scratch journal opens");
        for job in 0..jobs as u64 {
            journal
                .append(&JournalRecord::Admit {
                    job,
                    spec: spec.clone(),
                })
                .expect("append");
            journal
                .append(&JournalRecord::Reserve {
                    job,
                    amount: params.budget,
                })
                .expect("append");
            journal
                .append(&JournalRecord::Checkpoint {
                    job,
                    checkpoint: Box::new(checkpoint.clone()),
                })
                .expect("append");
        }
        journal.sync().expect("sync");
    }

    let start = Instant::now();
    let service = Service::start(
        Arc::new(scenario.platform.clone()),
        ApiProfile::twitter(),
        ServiceConfig {
            workers: params.workers,
            journal: Some(dir.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("recovery journal opens");
    let start_secs = start.elapsed().as_secs_f64();
    let resumed = service.recovery().map_or(0, |r| r.resumed_jobs) as usize;
    let drain = Instant::now();
    for handle in service.recovered_jobs() {
        handle
            .join()
            .into_result()
            .expect("recovered job completes");
    }
    let drain_secs = drain.elapsed().as_secs_f64();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    ColdRecovery {
        jobs,
        start_secs,
        drain_secs,
        resumed,
    }
}

/// One pipeline-matrix cell: cold QPS plus the identity evidence.
struct PipelineCell {
    qps: f64,
    /// Total calls charged across the cell's jobs.
    charged: u64,
    /// Estimate bits per job, in submission order.
    estimate_bits: Vec<u64>,
}

/// Runs the matrix workload — `pipeline_jobs` concurrent MA-SRW jobs,
/// each interleaving `pipeline_chains` chains — against a cold service
/// whose backend stalls every fetch by `rtt_ms`, with the fetch
/// pipeline off or on. Everything except the `pipeline` flag is held
/// fixed, so the off/on cells must agree bit-for-bit on charges and
/// estimates.
fn run_pipeline_cell(
    scenario: &Scenario,
    params: &PerfParams,
    rtt_ms: u64,
    pipeline: bool,
) -> PipelineCell {
    let platform = Arc::new(scenario.platform.clone());
    let service = Service::new(
        Arc::clone(&platform),
        ApiProfile::twitter(),
        ServiceConfig {
            workers: params.pipeline_jobs,
            pipeline,
            chains: params.pipeline_chains,
            inflight: params.pipeline_inflight,
            // Each matrix job pays full cold coverage (no cross-job
            // coalescing) and stops soon after burn-in: the cell then
            // measures fetch latency structure, not the CPU-bound
            // free-spin over an already-memoized neighborhood.
            coalesce: false,
            step_cap: Some(params.pipeline_step_cap),
            backend: Some(Arc::new(SlowBackend::new(platform, rtt_ms))),
            ..ServiceConfig::default()
        },
    );
    let kw = scenario.keyword("privacy").expect("world has 'privacy'");
    let query = AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(scenario.window);
    let algorithm = Algorithm::MaSrw {
        interval: Some(Duration::DAY),
    };
    let specs: Vec<JobSpec> = (0..params.pipeline_jobs as u64)
        .map(|j| JobSpec::new(query.clone(), algorithm, params.pipeline_budget, 1 + j))
        .collect();
    let jobs = specs.len();
    let start = Instant::now();
    let handles: Vec<_> = specs
        .into_iter()
        .map(|spec| service.submit(spec).expect("unlimited quota admits"))
        .collect();
    let outputs: Vec<_> = handles
        .iter()
        .map(|h| {
            h.join()
                .into_result()
                .expect("pipeline matrix job estimates")
        })
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    if pipeline {
        let s = service.sched_stats();
        eprintln!(
            "[perf]     sched: announced {} prefetched {} hits {} waits {} claimed {} stranded {} peak {}",
            s.announced, s.prefetched, s.hits, s.waits, s.claimed, s.stranded, s.peak_inflight
        );
    }
    let (lh, sh, miss, actual): (u64, u64, u64, u64) = outputs.iter().fold((0, 0, 0, 0), |a, o| {
        (
            a.0 + o.cache.local_hits,
            a.1 + o.cache.shared_hits,
            a.2 + o.cache.misses,
            a.3 + o.cache.actual_calls,
        )
    });
    eprintln!(
        "[perf]     cache({}): local {} shared {} misses {} actual_calls {}",
        if pipeline { "on" } else { "off" },
        lh,
        sh,
        miss,
        actual
    );
    service.shutdown();
    PipelineCell {
        qps: jobs as f64 / elapsed,
        charged: outputs.iter().map(|o| o.charged).sum(),
        estimate_bits: outputs.iter().map(|o| o.estimate.value.to_bits()).collect(),
    }
}

fn run_perf(params: &PerfParams, scenario: &Scenario) -> String {
    eprintln!("[perf] cold run, coalescing off (baseline)...");
    let (_, baseline) = run_cold(scenario, params, false);
    eprintln!(
        "[perf]   baseline: {} actual calls in {:.2}s",
        baseline.snapshot.actual_calls, baseline.elapsed_secs
    );
    eprintln!("[perf] cold run, coalescing on...");
    let (service, cold) = run_cold(scenario, params, true);
    eprintln!(
        "[perf]   coalesced: {} actual calls in {:.2}s ({} waits, peak {})",
        cold.snapshot.actual_calls,
        cold.elapsed_secs,
        cold.snapshot.coalesce_waits,
        cold.snapshot.coalesce_peak_inflight
    );
    eprintln!("[perf] warm run...");
    let warm_secs = run_warm(&service, scenario, params);
    eprintln!("[perf] walker step loop ({} steps)...", params.walker_steps);
    let steps_rate = walker_steps_per_sec(scenario, params.walker_steps, params.walker_trials);
    eprintln!("[perf]   {steps_rate:.0} steps/sec");
    eprintln!("[perf] checkpoint cadence sweep (off, 1k, 10k)...");
    let rate_off = walker_rate_at_cadence(scenario, params.walker_steps, params.walker_trials, 0);
    let rate_1k =
        walker_rate_at_cadence(scenario, params.walker_steps, params.walker_trials, 1_000);
    let rate_10k =
        walker_rate_at_cadence(scenario, params.walker_steps, params.walker_trials, 10_000);
    let overhead = |rate: f64| {
        if rate_off > 0.0 {
            1.0 - rate / rate_off
        } else {
            0.0
        }
    };
    eprintln!(
        "[perf]   off {:.0}/s, 1k {:.0}/s ({:+.2}%), 10k {:.0}/s ({:+.2}%)",
        rate_off,
        rate_1k,
        100.0 * overhead(rate_1k),
        rate_10k,
        100.0 * overhead(rate_10k),
    );
    let cold_jobs = if params.smoke { 20 } else { 100 };
    eprintln!("[perf] cold recovery of {cold_jobs} in-flight jobs...");
    let recovered = cold_recovery(scenario, params, cold_jobs);
    eprintln!(
        "[perf]   replay+requeue {:.3}s, drain {:.2}s ({} resumed)",
        recovered.start_secs, recovered.drain_secs, recovered.resumed
    );
    eprintln!(
        "[perf] pipeline matrix ({} jobs x {} chains, RTT {:?} ms)...",
        params.pipeline_jobs, params.pipeline_chains, PIPELINE_RTTS_MS
    );
    let mut matrix = Vec::new();
    for rtt in PIPELINE_RTTS_MS {
        let off = run_pipeline_cell(scenario, params, rtt, false);
        let on = run_pipeline_cell(scenario, params, rtt, true);
        eprintln!(
            "[perf]   rtt {rtt}ms: off {:.3} qps, on {:.3} qps ({:.1}x)",
            off.qps,
            on.qps,
            on.qps / off.qps
        );
        matrix.push((rtt, off, on));
    }
    let charged_identical = matrix.iter().all(|(_, off, on)| off.charged == on.charged);
    let estimates_identical = matrix
        .iter()
        .all(|(_, off, on)| off.estimate_bits == on.estimate_bits);

    let jobs = workload(scenario, params).len();
    let snap = &cold.snapshot;
    let reduction = if baseline.snapshot.actual_calls > 0 {
        1.0 - snap.actual_calls as f64 / baseline.snapshot.actual_calls as f64
    } else {
        0.0
    };
    let misses = snap.coalesce_leads + snap.coalesce_waits;
    let miss_ratio = if misses > 0 {
        snap.coalesce_waits as f64 / misses as f64
    } else {
        0.0
    };
    let mut out = String::from("{\n");
    let mut first = true;
    let mut put = |key: &str, value: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{key}\": {value}"));
    };
    put("schema_version", SCHEMA_VERSION.to_string());
    put("smoke", params.smoke.to_string());
    put("world_scale", "\"tiny\"".into());
    put("world_seed", WORLD_SEED.to_string());
    put("workers", params.workers.to_string());
    put("jobs", jobs.to_string());
    put("budget_per_job", params.budget.to_string());
    put("simulated_rtt_ms", SIMULATED_RTT_MS.to_string());
    put(
        "queries_per_sec_cold",
        format!("{:.3}", jobs as f64 / cold.elapsed_secs),
    );
    put(
        "queries_per_sec_warm",
        format!("{:.3}", jobs as f64 / warm_secs),
    );
    put("walker_steps_measured", params.walker_steps.to_string());
    put("walker_steps_per_sec", format!("{steps_rate:.1}"));
    put("charged_calls", snap.charged_calls.to_string());
    put("actual_calls", snap.actual_calls.to_string());
    put(
        "baseline_actual_calls",
        baseline.snapshot.actual_calls.to_string(),
    );
    put("actual_call_reduction", format!("{reduction:.4}"));
    put("coalesce_leads", snap.coalesce_leads.to_string());
    put("coalesce_waits", snap.coalesce_waits.to_string());
    put("coalesce_aborts", snap.coalesce_aborts.to_string());
    put("coalesced_miss_ratio", format!("{miss_ratio:.4}"));
    put(
        "peak_inflight_dedup",
        snap.coalesce_peak_inflight.to_string(),
    );
    let pct = microblog_obs::window::percentile;
    put(
        "queue_wait_us_p50",
        pct(&snap.queue_wait_hist, 0.50).to_string(),
    );
    put(
        "queue_wait_us_p95",
        pct(&snap.queue_wait_hist, 0.95).to_string(),
    );
    put(
        "queue_wait_us_p99",
        pct(&snap.queue_wait_hist, 0.99).to_string(),
    );
    put("exec_us_p50", pct(&snap.exec_hist, 0.50).to_string());
    put("exec_us_p95", pct(&snap.exec_hist, 0.95).to_string());
    put("exec_us_p99", pct(&snap.exec_hist, 0.99).to_string());
    put("recovery_walker_steps", params.walker_steps.to_string());
    put(
        "recovery_steps_per_sec_no_checkpoint",
        format!("{rate_off:.1}"),
    );
    put("recovery_steps_per_sec_every_1k", format!("{rate_1k:.1}"));
    put("recovery_steps_per_sec_every_10k", format!("{rate_10k:.1}"));
    put(
        "recovery_checkpoint_overhead_1k",
        format!("{:.4}", overhead(rate_1k)),
    );
    put(
        "recovery_checkpoint_overhead_10k",
        format!("{:.4}", overhead(rate_10k)),
    );
    put("recovery_cold_jobs", recovered.jobs.to_string());
    put(
        "recovery_cold_start_secs",
        format!("{:.4}", recovered.start_secs),
    );
    put(
        "recovery_cold_drain_secs",
        format!("{:.4}", recovered.drain_secs),
    );
    put("recovery_cold_resumed_jobs", recovered.resumed.to_string());
    put("pipeline_jobs", params.pipeline_jobs.to_string());
    put(
        "pipeline_budget_per_job",
        params.pipeline_budget.to_string(),
    );
    put("pipeline_chains", params.pipeline_chains.to_string());
    put(
        "pipeline_inflight_depth",
        params.pipeline_inflight.depth().to_string(),
    );
    put("pipeline_step_cap", params.pipeline_step_cap.to_string());
    // Per round each chain announces its connections fetch plus (for the
    // level-by-level view) its timeline fetch — the announce batch the
    // prefetcher threads drain concurrently.
    put(
        "pipeline_announce_batch",
        (2 * params.pipeline_chains).to_string(),
    );
    for (rtt, off, on) in &matrix {
        put(
            &format!("pipeline_qps_cold_rtt{rtt}_off"),
            format!("{:.3}", off.qps),
        );
        put(
            &format!("pipeline_qps_cold_rtt{rtt}_on"),
            format!("{:.3}", on.qps),
        );
        put(
            &format!("pipeline_speedup_rtt{rtt}"),
            format!("{:.2}", on.qps / off.qps),
        );
    }
    put("pipeline_charged_identical", charged_identical.to_string());
    put(
        "pipeline_estimates_identical",
        estimates_identical.to_string(),
    );
    out.push_str("\n}\n");
    out
}

/// Validates a BENCH_5.json against [`SCHEMA`]: every key present, every
/// kind right. Absolute numbers are deliberately not checked.
fn check(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: ma-bench check PATH");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    let value = match serde_json::parse_value_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e:?}");
            return 1;
        }
    };
    let Some(entries) = value.as_map() else {
        eprintln!("{path}: top level must be an object");
        return 1;
    };
    let mut problems = Vec::new();
    for &(key, kind) in SCHEMA {
        let field = serde::value::field(entries, key);
        let actual = field.kind();
        let matches = match kind {
            // Integers widen to "number" slots but not the reverse.
            "number" => actual == "number" || actual == "integer",
            other => actual == other,
        };
        if !matches {
            problems.push(format!("  {key}: expected {kind}, found {actual}"));
        }
    }
    let version = serde::value::field(entries, "schema_version").as_u64();
    if version != Some(SCHEMA_VERSION) {
        problems.push(format!(
            "  schema_version: expected {SCHEMA_VERSION}, found {version:?}"
        ));
    }
    if problems.is_empty() {
        eprintln!("{path}: schema ok ({} keys)", SCHEMA.len());
        0
    } else {
        eprintln!("{path}: schema drift:\n{}", problems.join("\n"));
        1
    }
}
