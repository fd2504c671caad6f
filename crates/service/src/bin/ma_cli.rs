//! `ma-cli` — run aggregate estimations over a synthetic microblog world
//! from the command line.
//!
//! ```text
//! Usage: ma-cli [OPTIONS] <SQL-QUERY>
//!        ma-cli serve [OPTIONS]
//!        ma-cli trace [OPTIONS] <SQL-QUERY>
//!        ma-cli top [--file PATH] [--once]
//!
//!   --platform twitter|google+|tumblr   world + API profile  [twitter]
//!   --scale    tiny|small|medium|large  world size           [small]
//!   --world-seed N                      world RNG seed       [2014]
//!   --algorithm tarw|srw|mhrw|mr|srw-term|srw-full           [tarw]
//!   --budget N                          API-call budget      [25000]
//!   --interval 2h|4h|12h|1d|2d|1w|1m|auto   level interval   [auto]
//!   --seed N                            estimator RNG seed   [7]
//!   --truth                             also print exact ground truth
//!   --list-keywords                     print the scenario keywords
//!
//! serve mode (JSON-lines requests in, JSON-lines results out):
//!   --file PATH                         read requests from PATH [stdin]
//!   --workers N                         worker threads       [4]
//!   --global-quota N                    service-wide call cap [unlimited]
//!   --cache-capacity N                  shared-cache entries  [100000]
//!   --retry N                           attempts per API call [5]
//!   --deadline SECS                     per-call deadline, simulated
//!                                       seconds              [none]
//!   --fault-plan SPEC                   inject faults, e.g.
//!                                       'transient=0.05,rate_limited=0.02,seed=42'
//!   --wall-telemetry                    report real queue/exec latencies
//!                                       instead of the deterministic
//!                                       logical telemetry clock
//!   --journal DIR                       write-ahead job journal; replayed
//!                                       on startup to recover in-flight
//!                                       jobs                  [off]
//!   --checkpoint-every N                walker steps between checkpoints,
//!                                       0 disables; only with --journal
//!                                       or --crash-plan       [1000]
//!   --drain-timeout SECS                shutdown drain deadline; stragglers
//!                                       are journaled as interrupted [none]
//!   --crash-plan SPEC                   deterministic crash injection, e.g.
//!                                       'point=pre_settle,hit=2' or
//!                                       'point=checkpoint,mode=torn,drop=7'
//!   --stats-every N                     emit a live-stats emission (window
//!                                       deltas, gauges, per-query
//!                                       convergence) after every N settled
//!                                       jobs, as stats trace JSONL [off]
//!   --stats-out PATH                    write the stats stream to PATH
//!                                       instead of stdout
//!
//! top mode (render a stats stream as a refreshing dashboard):
//!   --file PATH                         read the stats JSONL from PATH
//!                                       [stdin]
//!   --once                              fold the whole stream, print one
//!                                       plain-text snapshot and exit (no
//!                                       escape codes; for CI and pipes)
//!
//!   Lines that are not stats frames (job responses on a shared stdout,
//!   full trace events) are counted and skipped, so
//!   `ma-cli serve --stats-every 1 | ma-cli top` just works.
//!
//! trace mode (record one query's structured trace):
//!   --out PATH                          write JSON-lines events to PATH
//!                                       [trace.jsonl]
//!   --summary                           print the cost-attribution tree
//!                                       (per-phase/per-endpoint/per-level
//!                                       budget, acceptance + collision
//!                                       rates, Geweke checkpoints)
//!
//!   Two trace runs with the same options and the default logical
//!   telemetry produce byte-identical .jsonl files.
//!
//! Examples:
//!   ma-cli --budget 30000 --truth \
//!     "SELECT AVG(FOLLOWERS) FROM USERS WHERE KEYWORD = 'privacy' \
//!      AND TIME BETWEEN DAY 0 AND DAY 303"
//!
//!   echo '{"id":1,"query":"SELECT COUNT(*) FROM USERS WHERE KEYWORD = '\''privacy'\''"}' \
//!     | ma-cli serve --workers 8 --global-quota 100000
//!
//!   ma-cli trace --scale tiny --budget 5000 --summary --out run.jsonl \
//!     "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'"
//!
//!   ma-cli serve --scale tiny --file reqs.jsonl --stats-every 1 \
//!     | ma-cli top --once
//! ```

use microblog_analyzer::prelude::*;
use microblog_analyzer::query::parse::parse_query;
use microblog_api::rate::{human_duration, wall_clock};
use microblog_api::RetryPolicy;
use microblog_obs::Tracer;
use microblog_obs::{render_jsonl, RecorderConfig};
use microblog_platform::scenario::{google_plus_2013, tumblr_2013, twitter_2013, Scale, Scenario};
use microblog_platform::{CrashPlan, Duration, FaultPlan};
use microblog_service::cache::SharedCacheConfig;
use microblog_service::request::{parse_algorithm, parse_interval, JobSpec};
use microblog_service::traceview::{record_job, TraceSummary};
use microblog_service::{
    run_batch, Dashboard, Service, ServiceConfig, StatsConfig, StatsHub, StatsSink, TelemetryClock,
    TelemetryMode,
};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

fn main() {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run with --help for usage");
            std::process::exit(1);
        }
    }
}

struct Options {
    platform: String,
    scale: Scale,
    world_seed: u64,
    algorithm: String,
    budget: u64,
    interval: Option<Duration>,
    seed: u64,
    truth: bool,
    list_keywords: bool,
    serve: bool,
    trace: bool,
    out: String,
    summary: bool,
    file: Option<String>,
    workers: usize,
    global_quota: Option<u64>,
    cache_capacity: usize,
    retry: Option<u32>,
    deadline: Option<i64>,
    fault_plan: Option<FaultPlan>,
    telemetry: TelemetryMode,
    journal: Option<String>,
    checkpoint_every: u64,
    drain_timeout: Option<u64>,
    crash_plan: Option<CrashPlan>,
    stats_every: u64,
    stats_out: Option<String>,
    top: bool,
    once: bool,
    query: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            platform: "twitter".into(),
            scale: Scale::Small,
            world_seed: 2014,
            algorithm: "tarw".into(),
            budget: 25_000,
            interval: None,
            seed: 7,
            truth: false,
            list_keywords: false,
            serve: false,
            trace: false,
            out: "trace.jsonl".into(),
            summary: false,
            file: None,
            workers: 4,
            global_quota: None,
            cache_capacity: 100_000,
            retry: None,
            deadline: None,
            fault_plan: None,
            telemetry: TelemetryMode::Logical,
            journal: None,
            checkpoint_every: 1_000,
            drain_timeout: None,
            crash_plan: None,
            stats_every: 0,
            stats_out: None,
            top: false,
            once: false,
            query: None,
        }
    }
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--help" | "-h" => {
                // Reuse the module docs as help text.
                println!("ma-cli — aggregate estimation over a synthetic microblog\n");
                println!("see `cargo doc -p microblog-service --bin ma-cli` or the");
                println!("source header of src/bin/ma_cli.rs for full usage");
                std::process::exit(0);
            }
            "serve" => opts.serve = true,
            "trace" => opts.trace = true,
            "top" => opts.top = true,
            "--once" => opts.once = true,
            "--stats-every" => {
                opts.stats_every = value("--stats-every")?
                    .parse()
                    .map_err(|_| "bad --stats-every")?
            }
            "--stats-out" => opts.stats_out = Some(value("--stats-out")?),
            "--out" => opts.out = value("--out")?,
            "--summary" => opts.summary = true,
            "--platform" => opts.platform = value("--platform")?.to_lowercase(),
            "--scale" => {
                opts.scale = match value("--scale")?.to_lowercase().as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown scale '{other}'")),
                }
            }
            "--world-seed" => {
                opts.world_seed = value("--world-seed")?
                    .parse()
                    .map_err(|_| "bad --world-seed")?
            }
            "--algorithm" => opts.algorithm = value("--algorithm")?.to_lowercase(),
            "--budget" => opts.budget = value("--budget")?.parse().map_err(|_| "bad --budget")?,
            "--interval" => opts.interval = parse_interval(&value("--interval")?)?,
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--truth" => opts.truth = true,
            "--list-keywords" => opts.list_keywords = true,
            "--file" => opts.file = Some(value("--file")?),
            "--workers" => {
                opts.workers = value("--workers")?.parse().map_err(|_| "bad --workers")?
            }
            "--global-quota" => {
                opts.global_quota = Some(
                    value("--global-quota")?
                        .parse()
                        .map_err(|_| "bad --global-quota")?,
                )
            }
            "--cache-capacity" => {
                opts.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|_| "bad --cache-capacity")?
            }
            "--retry" => opts.retry = Some(value("--retry")?.parse().map_err(|_| "bad --retry")?),
            "--deadline" => {
                opts.deadline = Some(value("--deadline")?.parse().map_err(|_| "bad --deadline")?)
            }
            "--fault-plan" => {
                opts.fault_plan = Some(
                    FaultPlan::parse(&value("--fault-plan")?)
                        .map_err(|e| format!("bad --fault-plan: {e}"))?,
                )
            }
            "--wall-telemetry" => opts.telemetry = TelemetryMode::Wall,
            "--journal" => opts.journal = Some(value("--journal")?),
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every")?
            }
            "--drain-timeout" => {
                opts.drain_timeout = Some(
                    value("--drain-timeout")?
                        .parse()
                        .map_err(|_| "bad --drain-timeout")?,
                )
            }
            "--crash-plan" => {
                opts.crash_plan = Some(
                    CrashPlan::parse(&value("--crash-plan")?)
                        .map_err(|e| format!("bad --crash-plan: {e}"))?,
                )
            }
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            query => {
                if opts.query.replace(query.to_string()).is_some() {
                    return Err("multiple queries given".into());
                }
            }
        }
    }
    Ok(opts)
}

fn build_world(opts: &Options) -> Result<(Scenario, ApiProfile), String> {
    Ok(match opts.platform.as_str() {
        "twitter" => (
            twitter_2013(opts.scale, opts.world_seed),
            ApiProfile::twitter(),
        ),
        "google+" | "googleplus" | "gplus" => (
            google_plus_2013(opts.scale, opts.world_seed),
            ApiProfile::google_plus(),
        ),
        "tumblr" => (
            tumblr_2013(opts.scale, opts.world_seed),
            ApiProfile::tumblr(),
        ),
        other => return Err(format!("unknown platform '{other}'")),
    })
}

fn run(args: Vec<String>) -> Result<(), String> {
    let opts = parse_args(args)?;
    if opts.top {
        // The dashboard only reads a stream; no world to build.
        return top(opts);
    }
    eprintln!(
        "building {} world ({:?}, seed {})...",
        opts.platform, opts.scale, opts.world_seed
    );
    let (scenario, api) = build_world(&opts)?;

    if opts.list_keywords {
        println!("scenario keywords:");
        for spec in &scenario.specs {
            println!("  {}", spec.name);
        }
        return Ok(());
    }

    if opts.serve {
        return serve(opts, scenario, api);
    }

    if opts.trace {
        return trace(opts, scenario, api);
    }

    let query_text = opts.query.as_deref().ok_or("no query given")?;
    let query = parse_query(query_text, scenario.platform.keywords()).map_err(|e| e.to_string())?;

    let algorithm = parse_algorithm(&opts.algorithm, opts.interval)?;

    let analyzer = MicroblogAnalyzer::new(&scenario.platform, api);
    let est = analyzer
        .estimate(&query, opts.budget, algorithm, opts.seed)
        .map_err(|e| e.to_string())?;

    println!("estimate   : {:.3}", est.value);
    if let Some(se) = est.std_err {
        println!("std. error : {se:.3}");
    }
    println!(
        "query cost : {} API calls ≈ {} of {} wall-clock",
        est.cost,
        human_duration(wall_clock(analyzer.api_profile(), est.cost)),
        opts.platform
    );
    println!(
        "samples    : {} across {} walk instance(s)",
        est.samples, est.instances
    );
    if opts.truth {
        match analyzer.ground_truth(&query) {
            Some(truth) => println!(
                "truth      : {:.3} (relative error {:.1}%)",
                truth,
                100.0 * est.relative_error(truth)
            ),
            None => println!("truth      : undefined (no matching users)"),
        }
    }
    Ok(())
}

fn trace(opts: Options, scenario: Scenario, api: ApiProfile) -> Result<(), String> {
    let query_text = opts.query.as_deref().ok_or("no query given")?;
    let query = parse_query(query_text, scenario.platform.keywords()).map_err(|e| e.to_string())?;
    let algorithm = parse_algorithm(&opts.algorithm, opts.interval)?;
    let spec = JobSpec::new(query, algorithm, opts.budget, opts.seed);
    let run = record_job(
        Arc::new(scenario.platform),
        api,
        spec,
        opts.telemetry,
        RecorderConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(&opts.out, render_jsonl(&run.events))
        .map_err(|e| format!("cannot write {}: {e}", opts.out))?;
    eprintln!(
        "recorded {} event(s) to {} ({} offered, {} lost to sampling/eviction)",
        run.events.len(),
        opts.out,
        run.stats.total_seen(),
        run.stats.total_lost(),
    );
    match run.outcome.output() {
        Some(out) => {
            println!("estimate   : {:.3}", out.estimate.value);
            println!("query cost : {} API calls", out.charged);
            println!(
                "samples    : {} across {} walk instance(s)",
                out.estimate.samples, out.estimate.instances
            );
        }
        None => {
            if let microblog_service::JobOutcome::Failed { error, .. } = &run.outcome {
                eprintln!("job failed: {error}");
            }
        }
    }
    if opts.summary {
        print!("{}", TraceSummary::from_events(&run.events).render_text());
    }
    Ok(())
}

fn serve(opts: Options, scenario: Scenario, api: ApiProfile) -> Result<(), String> {
    // Flags override pieces of the stock resilient policy.
    let mut retry = RetryPolicy::resilient();
    if let Some(attempts) = opts.retry {
        retry = retry.with_max_attempts(attempts.max(1));
    }
    if let Some(deadline) = opts.deadline {
        retry = retry.with_deadline(Duration(deadline.max(0)));
    }
    let mut config = ServiceConfig {
        workers: opts.workers,
        global_quota: opts.global_quota,
        cache: SharedCacheConfig {
            capacity: opts.cache_capacity,
            ..SharedCacheConfig::default()
        },
        retry,
        fault_plan: opts.fault_plan,
        telemetry: opts.telemetry,
        journal: opts.journal.as_ref().map(std::path::PathBuf::from),
        checkpoint_every: opts.checkpoint_every,
        crash_plan: opts.crash_plan,
        drain_timeout: opts.drain_timeout.map(std::time::Duration::from_secs),
        stats_every: opts.stats_every,
        ..ServiceConfig::default()
    };
    if opts.stats_every > 0 {
        // Live stats flow through an enabled tracer whose sink writes
        // `stats` frames to the stream and feeds everything else back
        // into the hub for pipeline-stage span correlation.
        let hub = Arc::new(StatsHub::new(StatsConfig::default()));
        let writer: Box<dyn Write + Send> = match &opts.stats_out {
            Some(path) => {
                Box::new(File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?)
            }
            None => Box::new(std::io::stdout()),
        };
        let sink = StatsSink::new(Arc::clone(&hub)).with_output(writer);
        config.tracer = Tracer::new(
            Arc::new(sink),
            Arc::new(TelemetryClock::new(opts.telemetry)),
        );
        config.stats = Some(hub);
    }
    let service = Service::start(Arc::new(scenario.platform), api, config)
        .map_err(|e| format!("cannot open journal: {e}"))?;
    if opts.stats_every > 0 {
        eprintln!(
            "live stats: every {} settlement(s) → {}",
            opts.stats_every,
            opts.stats_out.as_deref().unwrap_or("stdout"),
        );
    }
    eprintln!(
        "serving with {} worker(s), quota {}, cache capacity {}",
        service.workers(),
        match opts.global_quota {
            Some(q) => q.to_string(),
            None => "unlimited".into(),
        },
        opts.cache_capacity
    );
    if let Some(injector) = service.fault_injector() {
        eprintln!("fault injection on: {:?}", injector.plan().rates);
    }
    if let Some(injector) = service.crash_injector() {
        eprintln!("crash injection on: {:?}", injector.plan());
    }
    if let Some(recovery) = service.recovery() {
        eprintln!(
            "journal replay: {} record(s), {} settled job(s) ({} calls adopted), \
             {} resumed, {} abandoned{}",
            recovery.records,
            recovery.settled_jobs,
            recovery.adopted_calls,
            recovery.resumed_jobs,
            recovery.abandoned_jobs,
            if recovery.dropped_bytes > 0 {
                format!(
                    ", torn tail repaired ({} byte(s) dropped)",
                    recovery.dropped_bytes
                )
            } else {
                String::new()
            }
        );
    }

    // When the stats stream shares stdout, workers write to it
    // concurrently — take the lock per write (each line stays atomic)
    // instead of holding it across the whole batch.
    let shared_stdout = opts.stats_every > 0 && opts.stats_out.is_none();
    let mut output: Box<dyn Write> = if shared_stdout {
        Box::new(std::io::stdout())
    } else {
        Box::new(std::io::stdout().lock())
    };
    let summary = match &opts.file {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            run_batch(&service, BufReader::new(file), &mut output)
        }
        None => {
            let stdin = std::io::stdin();
            run_batch(&service, stdin.lock(), &mut output)
        }
    }
    .map_err(|e| e.to_string())?;
    output.flush().map_err(|e| e.to_string())?;
    if opts.stats_every > 0 {
        // A final emission so totals in the stream are final — the
        // stats-conservation audit reconciles deltas against them.
        service.emit_stats();
    }

    eprintln!(
        "\n{} request(s): {} ok, {} degraded, {} rejected, {} error(s)",
        summary.requests, summary.ok, summary.degraded, summary.rejected, summary.errors
    );
    if let Some(injector) = service.fault_injector() {
        let injected = injector.injected();
        eprintln!(
            "faults injected: {} transient, {} rate-limited, {} timeout, {} truncated \
             over {} platform fetches",
            injected.transient,
            injected.rate_limited,
            injected.timeout,
            injected.truncated,
            injector.fetches(),
        );
    }
    let cache = service.cache_snapshot();
    eprintln!(
        "shared cache: {} entries, hit rate {:.1}%",
        cache.entries,
        100.0 * cache.hit_rate()
    );
    eprint!("{}", service.metrics_snapshot().render_text());
    let report = service.shutdown();
    if !report.clean {
        eprintln!(
            "drain deadline expired: {} job(s) journaled as interrupted",
            report.interrupted.len()
        );
    }
    Ok(())
}

/// `ma-cli top`: fold a stats JSONL stream (file or stdin) into the
/// dashboard. Live mode redraws on every stats frame; `--once` prints a
/// single plain-text snapshot after the stream ends.
fn top(opts: Options) -> Result<(), String> {
    let reader: Box<dyn BufRead> = match &opts.file {
        Some(path) => Box::new(BufReader::new(
            File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?,
        )),
        None => Box::new(BufReader::new(std::io::stdin())),
    };
    let mut dash = Dashboard::new();
    let stdout = std::io::stdout();
    for line in reader.lines() {
        let line = line.map_err(|e| e.to_string())?;
        let refreshed = dash.feed_line(&line);
        if refreshed && !opts.once {
            // Clear-and-home per refresh; the final state stays visible.
            let mut out = stdout.lock();
            let _ = write!(out, "\x1b[2J\x1b[H{}", dash.render());
            let _ = out.flush();
        }
    }
    // `--once` prints a single snapshot; live mode leaves a final
    // plain (scrollback-friendly) copy after the stream ends.
    print!("{}", dash.render());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn defaults_hold() {
        let o = parse_args(vec!["SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'x'".into()]).unwrap();
        assert_eq!(o.platform, "twitter");
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.budget, 25_000);
        assert_eq!(o.algorithm, "tarw");
        assert!(o.interval.is_none());
        assert!(!o.truth);
        assert!(!o.serve);
        assert!(o.query.is_some());
    }

    #[test]
    fn parses_all_options() {
        let mut a = args("--platform tumblr --scale large --world-seed 9 --algorithm srw --budget 123 --interval 1w --seed 4 --truth --list-keywords");
        a.push("q".into());
        let o = parse_args(a).unwrap();
        assert_eq!(o.platform, "tumblr");
        assert_eq!(o.scale, Scale::Large);
        assert_eq!(o.world_seed, 9);
        assert_eq!(o.algorithm, "srw");
        assert_eq!(o.budget, 123);
        assert_eq!(o.interval, Some(Duration::WEEK));
        assert_eq!(o.seed, 4);
        assert!(o.truth);
        assert!(o.list_keywords);
        assert_eq!(o.query.as_deref(), Some("q"));
    }

    #[test]
    fn parses_serve_options() {
        let o = parse_args(args(
            "serve --workers 8 --global-quota 50000 --cache-capacity 1024 --file reqs.jsonl",
        ))
        .unwrap();
        assert!(o.serve);
        assert_eq!(o.workers, 8);
        assert_eq!(o.global_quota, Some(50_000));
        assert_eq!(o.cache_capacity, 1024);
        assert_eq!(o.file.as_deref(), Some("reqs.jsonl"));
    }

    #[test]
    fn parses_stats_options() {
        let o = parse_args(args("serve --stats-every 2 --stats-out stats.jsonl")).unwrap();
        assert!(o.serve);
        assert_eq!(o.stats_every, 2);
        assert_eq!(o.stats_out.as_deref(), Some("stats.jsonl"));
    }

    #[test]
    fn parses_top_options() {
        let o = parse_args(args("top --file stats.jsonl --once")).unwrap();
        assert!(o.top);
        assert!(o.once);
        assert_eq!(o.file.as_deref(), Some("stats.jsonl"));
        assert_eq!(o.stats_every, 0);
    }

    #[test]
    fn rejects_bad_stats_every() {
        assert!(parse_args(args("serve --stats-every nope")).is_err());
    }

    #[test]
    fn parses_resilience_options() {
        let o = parse_args(args(
            "serve --retry 8 --deadline 3600 --fault-plan transient=0.05,rate_limited=0.02,seed=42",
        ))
        .unwrap();
        assert_eq!(o.retry, Some(8));
        assert_eq!(o.deadline, Some(3600));
        let plan = o.fault_plan.expect("plan parses");
        assert_eq!(plan.seed, 42);
        assert!((plan.rates.transient - 0.05).abs() < 1e-12);
        assert!((plan.rates.rate_limited - 0.02).abs() < 1e-12);
        assert!(parse_args(args("serve --fault-plan transient=2.0")).is_err());
        assert!(parse_args(args("serve --retry lots")).is_err());
    }

    #[test]
    fn parses_recovery_options() {
        let o = parse_args(args(
            "serve --journal /tmp/j --checkpoint-every 500 --drain-timeout 30 \
             --crash-plan point=pre_settle,hit=2",
        ))
        .unwrap();
        assert_eq!(o.journal.as_deref(), Some("/tmp/j"));
        assert_eq!(o.checkpoint_every, 500);
        assert_eq!(o.drain_timeout, Some(30));
        let plan = o.crash_plan.expect("plan parses");
        assert_eq!(plan.point, "pre_settle");
        assert_eq!(plan.hit, 2);
        let torn = parse_args(args("serve --crash-plan point=checkpoint,mode=torn,drop=7"))
            .unwrap()
            .crash_plan
            .unwrap();
        assert!(matches!(
            torn.mode,
            microblog_platform::CrashMode::TornTail { drop: 7 }
        ));
        assert!(
            parse_args(args("serve --crash-plan hit=2")).is_err(),
            "no point"
        );
        assert!(parse_args(args("serve --checkpoint-every sometimes")).is_err());
        assert!(parse_args(args("serve --drain-timeout soon")).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(args("--scale galactic")).is_err());
        assert!(parse_args(args("--interval fortnight")).is_err());
        assert!(parse_args(args("--budget lots")).is_err());
        assert!(parse_args(args("--unknown-flag")).is_err());
        assert!(parse_args(args("--budget")).is_err(), "missing value");
        assert!(parse_args(args("serve --workers many")).is_err());
        let two = parse_args(vec!["a".into(), "b".into()]);
        assert!(two.is_err(), "two positional queries");
    }

    #[test]
    fn interval_aliases() {
        for (txt, expect) in [
            ("2h", Duration::hours(2)),
            ("12h", Duration::hours(12)),
            ("1d", Duration::DAY),
            ("2d", Duration::days(2)),
            ("1m", Duration::MONTH),
        ] {
            let o = parse_args(args(&format!("--interval {txt}"))).unwrap();
            assert_eq!(o.interval, Some(expect), "{txt}");
        }
        assert!(parse_args(args("--interval auto"))
            .unwrap()
            .interval
            .is_none());
    }
}
