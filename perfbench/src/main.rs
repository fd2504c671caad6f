//! perfbench — the repository's benchmark.
//!
//! Drives `microblog_service::Service` in-process from one closed-loop
//! load-generator thread and reports what a user of the service sees
//! (`--trace 0`) or what each layer under it does (`--trace 1`).
//!
//! ```text
//! perfbench --workload <remote|local|durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is at least [`MIN_ROUNDS`] cold-service rounds, and more while
//! that brings the measured time nearer `--seconds`: every round starts a
//! fresh service with a cold shared cache and runs the next fixed-size
//! slice of the workload's query mix closed-loop to the last outcome, so
//! each run sees the cold start several times and per-query counts
//! describe the same work whatever the host's speed.
//! Every platform call is counted at the benchmark's own `ApiBackend`
//! (the platform boundary), and every run checks the answers it got
//! against isolated runs of the same specs. The last stdout line is the
//! result object; the line before it names the run's sample counts and
//! host diagnostics.

mod boundary;
mod check;
mod drive;
mod host;
mod journal;
mod replay;
mod stats;
mod workload;

use boundary::{Boundary, Counts};
use check::{Isolated, Isolator, Truths};
use drive::{Record, Window};
use journal::JournalStats;
use microblog_api::cache::CoalesceStats;
use microblog_api::{RetryPolicy, SchedStats};
use microblog_platform::ApiBackend;
use microblog_service::{JobOutcome, JobOutput, SharedCacheSnapshot};
use stats::{median, percentile, ratio, tail_percentile, Metrics, SplitMix};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use workload::{time_setup, Mix, Running, Sampler, Workload, World};

const USAGE: &str =
    "usage: perfbench --workload <remote|local|durable> --seed <n> --seconds <s> --trace <0|1>";

/// Rounds every run measures, at least. The tail percentile is the one
/// that leaves ten queries beyond it in this many rounds, so it is the
/// same on every run of a workload.
const MIN_ROUNDS: usize = 3;

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Jobs of a traced run checked and timed in isolation, at most.
const ISOLATED_MAX: usize = 80;

/// Repetitions of each fetch-stack replay pass.
const REPLAY_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Journals and probe files live under the build directory of the
    // checkout the benchmark runs from, and go when the run ends.
    let work_dir = Path::new(".bench_build").join("perfbench").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = if args.trace {
        traced(&args, &work_dir)
    } else {
        untraced(&args, &work_dir)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Service-wide counters of a traced round, read before shutdown.
#[derive(Default)]
struct Layers {
    sched: SchedStats,
    coalesce: CoalesceStats,
    cache_hits: u64,
    cache_misses: u64,
    evictions: u64,
    checkpoints: u64,
    journal: JournalStats,
    busy_ns: u64,
    store_ns: u64,
}

impl Layers {
    fn absorb(&mut self, other: Layers) {
        let (s, o) = (&mut self.sched, other.sched);
        s.prefetched += o.prefetched;
        s.stranded += o.stranded;
        s.hits += o.hits;
        s.waits += o.waits;
        s.peak_inflight = s.peak_inflight.max(o.peak_inflight);
        self.coalesce.leads += other.coalesce.leads;
        self.coalesce.waits += other.coalesce.waits;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.evictions += other.evictions;
        self.checkpoints += other.checkpoints;
        self.journal.absorb(other.journal);
        self.busy_ns += other.busy_ns;
        self.store_ns += other.store_ns;
    }
}

fn evictions(cache: &SharedCacheSnapshot) -> u64 {
    cache.search.evictions + cache.timeline.evictions + cache.connections.evictions
}

/// Cold-service rounds over one continuing query mix, and what they
/// leave behind.
struct Rounds {
    mix: Mix,
    rounds: usize,
    windows: Vec<Window>,
    counts: Counts,
    program_calls: u64,
    /// Peak resident memory at the end of the first round, in MiB: one
    /// world plus one service and its jobs, however many rounds follow.
    peak_rss_mb: f64,
    layers: Layers,
    /// Per record, in window order: nanoseconds of the job's execution
    /// interval during which some boundary call was open (traced only).
    backend_in_exec: Vec<u64>,
}

impl Rounds {
    fn new(args: &Args, world: &World) -> Rounds {
        Rounds {
            mix: Mix::new(args.workload, world.keywords.len(), args.seed),
            rounds: 0,
            windows: Vec::new(),
            counts: Counts::default(),
            program_calls: 0,
            peak_rss_mb: 0.0,
            layers: Layers::default(),
            backend_in_exec: Vec::new(),
        }
    }

    /// Seconds measured so far.
    fn seconds(&self) -> f64 {
        self.windows.iter().map(|w| w.seconds).sum()
    }

    /// Whether the run needs another round: fewer than [`MIN_ROUNDS`] so
    /// far, or one more brings the measured time nearer `target` (rounds
    /// take about the same time, so a longer run ends within half a round
    /// of it).
    fn short_of(&self, target: f64) -> bool {
        let measured = self.seconds();
        let round = measured / self.windows.len().max(1) as f64;
        self.windows.len() < MIN_ROUNDS || measured + round / 2.0 < target
    }

    /// Runs one more round: a fresh service with a cold shared cache runs
    /// the mix's next [`Workload::round_len`] queries closed-loop; then
    /// its counters are read and it shuts down.
    fn run(
        &mut self,
        args: &Args,
        world: &World,
        work_dir: &Path,
        traced: bool,
    ) -> Result<(), String> {
        let w = args.workload;
        self.rounds += 1;
        let dir = work_dir.join(format!(
            "{}-{}",
            if traced { "traced" } else { "plain" },
            self.rounds
        ));
        let journal = (w == Workload::Durable).then(|| dir.join("journal"));
        let run = Running::start(w, world, args.seed, traced, journal.as_deref());
        let queries = self.mix.take(w.round_len());
        let window = drive::closed_loop(&run, world, queries, w.workers(), w.budget());
        if self.rounds == 1 {
            self.peak_rss_mb = host::peak_rss_mb();
        }
        let Running { boundary, service } = run;
        self.counts.absorb(boundary.counts());
        let snapshot = service.metrics_snapshot();
        self.program_calls += snapshot.actual_calls;
        if traced {
            let cache = service.cache_snapshot();
            let spans = boundary.spans();
            let journal = match service.journal() {
                Some(j) => {
                    journal::probe(j, &dir.join("append-probe")).map_err(|e| e.to_string())?
                }
                None => JournalStats::default(),
            };
            self.layers.absorb(Layers {
                sched: service.sched_stats(),
                coalesce: service.coalesce_stats().unwrap_or_default(),
                cache_hits: cache.hits(),
                cache_misses: cache.misses(),
                evictions: evictions(&cache),
                checkpoints: snapshot.checkpoints_written,
                journal,
                busy_ns: boundary.busy_ns(),
                store_ns: spans.iter().map(|s| s.store).sum(),
            });
            let intervals = boundary::union(&spans);
            let epoch = boundary.epoch();
            self.backend_in_exec
                .extend(window.records.iter().map(|r| match &r.outcome {
                    Ok(JobOutcome::Complete(out)) => {
                        let start = r.submit.saturating_duration_since(epoch) + out.queue_wait;
                        let from = start.as_nanos() as u64;
                        boundary::covered(&intervals, from, from + out.exec.as_nanos() as u64)
                    }
                    _ => 0,
                }));
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        self.windows.push(window);
        Ok(())
    }

    /// The rounds' windows merged into one.
    fn window(&mut self) -> Window {
        Window::merge(std::mem::take(&mut self.windows))
    }
}

/// The window's headline counts, shared by both modes.
struct Tally {
    /// Queries submitted.
    attempted: usize,
    /// Of those, answered with a complete estimate.
    answered: usize,
    /// Submit → outcome of every job, in ms.
    latencies: Vec<f64>,
    /// Jobs the service ran (admitted queries).
    jobs: usize,
}

impl Tally {
    fn of(window: &Window) -> Tally {
        Tally {
            attempted: window.records.len(),
            answered: window.records.iter().filter(|r| r.answered()).count(),
            latencies: window.jobs().map(|r| ms(r.latency())).collect(),
            jobs: window.jobs().count(),
        }
    }

    fn failed(&self) -> usize {
        self.attempted - self.answered
    }

    fn qps(&self, window: &Window) -> f64 {
        self.answered as f64 / window.seconds
    }

    /// The workload's tail percentile and its latency.
    fn tail(&self, workload: Workload) -> (u32, f64) {
        let p = tail_percentile(MIN_ROUNDS * workload.round_len()).unwrap_or(100);
        (p, percentile(&self.latencies, p))
    }

    fn per_job(&self, total: f64) -> f64 {
        ratio(total, self.jobs as f64)
    }
}

/// Checks each record against an isolated run of its spec, handing
/// both to `each`; returns the mismatches.
fn check_records<'r>(
    workload: Workload,
    world: &World,
    records: impl Iterator<Item = &'r Record>,
    mut each: impl FnMut(&Record, &Isolated),
) -> Vec<String> {
    let isolator = Isolator::new(workload, world);
    let mut failures = Vec::new();
    for record in records {
        let isolated = isolator.run(world, &record.query);
        if let Err(e) = check::verify(record, &isolated, workload.budget()) {
            eprintln!("perfbench: answer check failed: {e}");
            failures.push(e);
        }
        each(record, &isolated);
    }
    failures
}

/// Indices into `window.records` of a seeded sample of at most `n` of
/// the window's jobs.
fn sample_jobs(window: &Window, seed: u64, n: usize) -> Vec<usize> {
    let mut jobs: Vec<usize> = (0..window.records.len())
        .filter(|&i| window.records[i].outcome.is_ok())
        .collect();
    if jobs.len() > n {
        SplitMix::new(seed ^ 0xC4EC).shuffle(&mut jobs);
        jobs.truncate(n);
    }
    jobs
}

/// The end-to-end run: tracing off, a seeded sample of answers checked.
fn untraced(args: &Args, work_dir: &Path) -> Result<String, String> {
    let w = args.workload;
    let setups: Vec<f64> = (0..SETUPS)
        .map(|n| {
            let journal = (w == Workload::Durable).then(|| work_dir.join(format!("setup-{n}")));
            time_setup(w, args.seed, journal.as_deref())
        })
        .collect();
    let world = World::build(w);
    let mut rounds = Rounds::new(args, &world);
    while rounds.short_of(args.seconds) {
        rounds.run(args, &world, work_dir, false)?;
    }
    let window = rounds.window();
    let (world, window, counts) = (&world, &window, &rounds.counts);

    let sample = sample_jobs(
        window,
        args.seed,
        match w {
            Workload::Remote => 24,
            Workload::Local | Workload::Durable => 8,
        },
    );
    let failures = check_records(
        w,
        world,
        sample.iter().map(|&i| &window.records[i]),
        |_, _| {},
    );

    let tally = Tally::of(window);
    let mut truths = Truths::new();
    let errors: Vec<f64> = window
        .records
        .iter()
        .filter_map(|r| truths.relative_error(world, r))
        .collect();
    let charged: u64 = window.jobs().map(Record::charged).sum();
    let (p, tail) = tally.tail(w);

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("qps", tally.qps(window), "1/s");
    m.put("latency_p50_ms", median(&tally.latencies), "ms");
    m.put("latency_tail_ms", tail, "ms");
    m.put(
        "cpu_ms_per_query",
        tally.per_job(window.cpu_secs * 1e3),
        "ms",
    );
    m.put(
        "backend_calls_per_query",
        tally.per_job(counts.calls() as f64),
        "calls",
    );
    m.put(
        "charged_calls_per_query",
        tally.per_job(charged as f64),
        "calls",
    );
    m.put("rel_error_p50", median(&errors), "ratio");
    m.put(
        "answered_frac",
        ratio(tally.answered as f64, tally.attempted as f64),
        "ratio",
    );
    m.put("peak_rss_mb", rounds.peak_rss_mb, "MB");

    println!(
        "perfbench {} seed {}: {} queries in {:.1}s over {} cold rounds ({} answered, {} not); \
         latency tail = p{} of {} samples; answers checked {}/{} ({} mismatches); \
         host.steal_frac {:.4}; threads peak {}; backend.untracked_frac {:.4}",
        w.name(),
        args.seed,
        tally.attempted,
        window.seconds,
        rounds.rounds,
        tally.answered,
        tally.failed(),
        p,
        tally.latencies.len(),
        sample.len(),
        tally.jobs,
        failures.len(),
        window.steal_frac,
        window.threads_peak,
        1.0 - ratio(rounds.program_calls as f64, counts.calls() as f64),
    );
    let correct = failures.is_empty() && tally.answered > 0;
    Ok(m.result_line(correct, tally.attempted as u64, tally.failed() as u64))
}

/// Per-sampler totals of the isolated runs.
#[derive(Default)]
struct WalkerTotals {
    runs: u64,
    self_ns: u64,
    run_ns: u64,
    samples: u64,
}

/// The per-layer run: traced rounds, each preceded by a reference round
/// with tracing off (for the tracing overhead); then every traced job
/// checked and timed in isolation, and the fetch-stack replay.
fn traced(args: &Args, work_dir: &Path) -> Result<String, String> {
    let w = args.workload;
    let world = World::build(w);
    let (mut reference, mut rounds) = (Rounds::new(args, &world), Rounds::new(args, &world));
    while rounds.short_of(args.seconds) {
        if reference.short_of(args.seconds) {
            reference.run(args, &world, work_dir, false)?;
        }
        rounds.run(args, &world, work_dir, true)?;
    }
    let reference_window = reference.window();
    let reference_qps = Tally::of(&reference_window).qps(&reference_window);
    let window = rounds.window();
    let (world, window, counts, layers) = (&world, &window, &rounds.counts, &rounds.layers);
    let tally = Tally::of(window);
    let per = |total: f64| tally.per_job(total);

    // Jobs checked and timed in isolation (all of them, up to a cap).
    let isolated = sample_jobs(window, args.seed, ISOLATED_MAX);
    let mut walkers: BTreeMap<&'static str, WalkerTotals> = BTreeMap::new();
    let mut walker_self: Vec<u64> = Vec::new();
    let failures = check_records(
        w,
        world,
        isolated.iter().map(|&i| &window.records[i]),
        |record, run| {
            let totals = walkers.entry(record.query.sampler.name()).or_default();
            totals.runs += 1;
            totals.self_ns += run.self_ns();
            totals.run_ns += run.run_ns;
            if let Ok(estimate) = &run.outcome {
                totals.samples += estimate.samples as u64;
            }
            walker_self.push(run.self_ns());
        },
    );

    let mut m = Metrics::default();

    // engine: the service's own queue and execution times (wall clock),
    // and what the submit → outcome latency holds beyond them.
    let outputs: Vec<(&Record, &JobOutput)> = window
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            Ok(JobOutcome::Complete(out)) => Some((r, out)),
            _ => None,
        })
        .collect();
    let queue: Vec<f64> = outputs.iter().map(|(_, o)| ms(o.queue_wait)).collect();
    let exec: Vec<f64> = outputs.iter().map(|(_, o)| ms(o.exec)).collect();
    let outside: Vec<f64> = outputs
        .iter()
        .map(|(r, o)| ms(r.latency().saturating_sub(o.queue_wait + o.exec)))
        .collect();
    m.put("engine.queue_wait_ms_p50", median(&queue), "ms");
    m.put("engine.exec_ms_p50", median(&exec), "ms");
    m.put("engine.outside_ms_p50", median(&outside), "ms");
    m.put(
        "engine.busy_frac",
        ratio(
            exec.iter().sum::<f64>() / 1e3,
            w.workers() as f64 * window.seconds,
        ),
        "ratio",
    );

    // client: the per-query memo.
    let (requests, memo_hits) = window
        .jobs()
        .filter_map(|r| r.outcome.as_ref().ok().and_then(JobOutcome::output))
        .fold((0u64, 0u64), |(req, hit), o| {
            (req + o.cache.requests(), hit + o.cache.local_hits)
        });
    m.put(
        "client.requests_per_query",
        per(requests as f64),
        "requests",
    );
    m.put(
        "client.memo_hit_frac",
        ratio(memo_hits as f64, requests as f64),
        "ratio",
    );

    // shared_cache, coalesce, sched: service-wide counters.
    m.put(
        "shared_cache.hit_frac",
        ratio(
            layers.cache_hits as f64,
            (layers.cache_hits + layers.cache_misses) as f64,
        ),
        "ratio",
    );
    m.put(
        "shared_cache.evictions_per_query",
        per(layers.evictions as f64),
        "entries",
    );
    m.put(
        "coalesce.leads_per_query",
        per(layers.coalesce.leads as f64),
        "count",
    );
    m.put(
        "coalesce.waits_per_query",
        per(layers.coalesce.waits as f64),
        "count",
    );
    let sched = &layers.sched;
    m.put(
        "sched.prefetched_per_query",
        per(sched.prefetched as f64),
        "count",
    );
    m.put(
        "sched.useful_frac",
        ratio(
            sched.prefetched.saturating_sub(sched.stranded) as f64,
            sched.prefetched as f64,
        ),
        "ratio",
    );
    m.put("sched.hits_per_query", per(sched.hits as f64), "count");
    m.put("sched.waits_per_query", per(sched.waits as f64), "count");
    m.put("sched.peak_inflight", sched.peak_inflight as f64, "count");
    m.put("sched.threads_peak", window.threads_peak as f64, "threads");

    // resilient: retries and the calls failed attempts burned.
    let (retries, wasted) = window.jobs().filter_map(|r| r.outcome.as_ref().ok()).fold(
        (0u64, 0u64),
        |(retries, wasted), o| {
            (
                retries + o.resilience().retries,
                wasted + o.resilience().wasted_calls(),
            )
        },
    );
    m.put("resilient.retries_per_query", per(retries as f64), "count");
    m.put(
        "resilient.wasted_calls_per_query",
        per(wasted as f64),
        "calls",
    );

    // backend: the boundary.
    m.put(
        "backend.search_per_query",
        per(counts.search as f64),
        "calls",
    );
    m.put(
        "backend.timeline_per_query",
        per(counts.timeline as f64),
        "calls",
    );
    m.put(
        "backend.connections_per_query",
        per(counts.connections as f64),
        "calls",
    );
    m.put(
        "backend.busy_ms_per_query",
        per(layers.busy_ns as f64 / 1e6),
        "ms",
    );
    m.put(
        "backend.inflight_peak",
        counts.peak_inflight as f64,
        "count",
    );
    m.put(
        "backend.store_us_per_call",
        ratio(layers.store_ns as f64 / 1e3, counts.calls() as f64),
        "us",
    );
    m.put(
        "backend.faults_per_query",
        per(counts.faults as f64),
        "count",
    );
    m.put(
        "backend.untracked_frac",
        1.0 - ratio(rounds.program_calls as f64, counts.calls() as f64),
        "ratio",
    );

    // walker: isolated runs of the window's jobs, per sampler.
    for sampler in Sampler::ALL {
        let t = walkers.remove(sampler.name()).unwrap_or_default();
        m.put(
            format!("walker.{}.self_ms_per_query", sampler.name()),
            ratio(t.self_ns as f64 / 1e6, t.runs as f64),
            "ms",
        );
        m.put(
            format!("walker.{}.samples_per_s", sampler.name()),
            ratio(t.samples as f64, t.run_ns as f64 / 1e9),
            "1/s",
        );
    }

    // checkpoint / journal.
    let journal = &layers.journal;
    m.put(
        "checkpoint.count_per_query",
        per(layers.checkpoints as f64),
        "count",
    );
    m.put(
        "journal.appends_per_query",
        per(journal.appends as f64),
        "count",
    );
    m.put(
        "journal.syncs_per_query",
        per(journal.syncs as f64),
        "count",
    );
    m.put(
        "journal.bytes_per_query",
        per(journal.bytes as f64),
        "bytes",
    );
    m.put("journal.append_us_p50", median(&journal.append_us), "us");

    // stack: one MA-SRW query's boundary keys replayed layer by layer.
    // The costliest answered MA-SRW job stands for the workload.
    let replayed = window
        .records
        .iter()
        .filter(|r| r.query.sampler == Sampler::MaSrw && r.answered())
        .max_by_key(|r| r.charged())
        .map(|r| r.query);
    let mut keys = Vec::new();
    if let Some(query) = replayed {
        let recorder =
            Boundary::new(Arc::clone(&world.platform) as Arc<dyn ApiBackend>, false).recording();
        let _ = w.analyzer(&recorder).run(
            &query.aggregate(world),
            w.budget(),
            query.algorithm(),
            query.seed,
            None,
            &RetryPolicy::resilient(),
        );
        keys = recorder.keys();
    }
    let costs = replay::layer_costs(&world.platform, &keys, REPLAY_REPS);
    for (layer, cost) in replay::LAYERS.iter().zip(costs) {
        m.put(format!("stack.{layer}.ns_per_op"), cost, "ns");
    }

    // ledger: the share of summed latency that queue wait, time outside
    // the engine, walker self time and open boundary calls leave
    // unexplained; negative when those parts overlap (pipelined fetches
    // overlap walker compute).
    let (mut covered, mut total) = (0f64, 0f64);
    for (&i, self_ns) in isolated.iter().zip(&walker_self) {
        let record = &window.records[i];
        let Ok(JobOutcome::Complete(out)) = &record.outcome else {
            continue;
        };
        let backend = rounds.backend_in_exec[i];
        let latency = record.latency();
        let outside = latency.saturating_sub(out.queue_wait + out.exec);
        covered += (out.queue_wait + outside).as_nanos() as f64 + (*self_ns + backend) as f64;
        total += latency.as_nanos() as f64;
    }
    m.put("ledger.residual_frac", 1.0 - ratio(covered, total), "ratio");
    m.put(
        "trace.overhead_frac",
        1.0 - ratio(tally.qps(window), reference_qps),
        "ratio",
    );
    m.put("host.steal_frac", window.steal_frac, "ratio");

    let (p, _) = tally.tail(w);
    println!(
        "perfbench {} seed {} (traced): {} queries in {:.1}s over {} cold rounds ({} answered, \
         {} not); latency tail = p{} of {} samples; answers checked {}/{} ({} mismatches); \
         untraced reference {:.3} qps; replayed {} keys",
        w.name(),
        args.seed,
        tally.attempted,
        window.seconds,
        rounds.rounds,
        tally.answered,
        tally.failed(),
        p,
        tally.latencies.len(),
        isolated.len(),
        tally.jobs,
        failures.len(),
        reference_qps,
        keys.len(),
    );
    let correct = failures.is_empty() && tally.answered > 0;
    Ok(m.result_line(correct, tally.attempted as u64, tally.failed() as u64))
}
