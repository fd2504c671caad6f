//! Cross-version golden telemetry: the live stats stream, the
//! `stats_snapshot()` JSON and the `metrics_snapshot().render_text()`
//! block of two fixed single-worker runs on the logical clock, pinned as
//! files written by an earlier commit.
//!
//! * `journal_quota` — a Tiny/2014 service with a global quota and a
//!   journal at a 1,000-step checkpoint cadence runs three jobs with
//!   different samplers, each submitted and joined before the next, then
//!   rejects a job the remaining quota cannot cover.
//! * `outage` — a service under `FaultPlan::outage` whose one job fails
//!   after its retries.
//!
//! Both run with live stats at `stats_every: 1` and end with one
//! on-demand emission, as `ma-cli serve --stats-every 1` does. The
//! fixtures live in `tests/fixtures/telemetry_golden/` and were written
//! by `TELEMETRY_GOLDEN_WRITE=1 cargo test -p microblog-service --test
//! telemetry_golden`. Regenerate them only when a telemetry output is
//! meant to change, and say which lines changed.

use microblog_analyzer::query::parse::parse_query;
use microblog_analyzer::{Algorithm, ViewKind};
use microblog_api::{ApiProfile, RetryPolicy};
use microblog_obs::{TelemetryClock, TelemetryMode, Tracer};
use microblog_platform::scenario::{twitter_2013, Scale};
use microblog_platform::{Duration, FaultPlan};
use microblog_service::{
    JobOutcome, JobSpec, Service, ServiceConfig, ServiceError, StatsConfig, StatsHub, StatsSink,
};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A `Write` handle into a shared buffer, standing in for the file
/// `ma-cli serve --stats-out` would write.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The three pinned outputs of one run.
struct Outputs {
    stream: String,
    snapshot: String,
    metrics: String,
}

/// Starts a single-worker service on `config` with live stats at
/// `stats_every: 1`, drives it with `drive`, emits once more on demand
/// and collects the three outputs.
fn run(config: ServiceConfig, drive: impl FnOnce(&Service)) -> Outputs {
    let scenario = twitter_2013(Scale::Tiny, 2014);
    let buf = SharedBuf::default();
    let hub = Arc::new(StatsHub::new(StatsConfig::default()));
    let sink = StatsSink::new(Arc::clone(&hub)).with_output(Box::new(buf.clone()));
    let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
    let config = ServiceConfig {
        workers: 1,
        telemetry: TelemetryMode::Logical,
        tracer: Tracer::new(Arc::new(sink), clock),
        stats: Some(hub),
        stats_every: 1,
        ..config
    };
    let service = Service::start(Arc::new(scenario.platform), ApiProfile::twitter(), config)
        .expect("service starts");
    drive(&service);
    service.emit_stats();
    let snapshot = format!("{}\n", service.stats_snapshot());
    let metrics = service.metrics_snapshot().render_text();
    service.shutdown();
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 stream");
    Outputs {
        stream,
        snapshot,
        metrics,
    }
}

fn spec(service: &Service, sql: &str, algorithm: Algorithm, budget: u64, seed: u64) -> JobSpec {
    let query = parse_query(sql, service.platform().keywords()).expect("query parses");
    JobSpec::new(query, algorithm, budget, seed)
}

fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ma-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journal_quota() -> Outputs {
    let dir = journal_dir("journal-quota");
    let config = ServiceConfig {
        global_quota: Some(12_000),
        journal: Some(dir.clone()),
        checkpoint_every: 1_000,
        ..ServiceConfig::default()
    };
    let day = ViewKind::level(Duration::DAY);
    let outputs = run(config, |service| {
        let jobs = [
            (
                "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'",
                Algorithm::MaTarw { interval: None },
                7,
            ),
            (
                "SELECT AVG(FOLLOWERS) FROM USERS WHERE KEYWORD = 'privacy'",
                Algorithm::MaSrw { interval: None },
                8,
            ),
            (
                "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'tahrir'",
                Algorithm::Mhrw { view: day },
                9,
            ),
        ];
        for (sql, algorithm, seed) in jobs {
            let outcome = service
                .submit(spec(service, sql, algorithm, 3_000, seed))
                .expect("admitted")
                .join();
            assert!(outcome.output().is_some(), "{sql}: {outcome:?}");
        }
        // One call more than the pool has left: refused by construction.
        let left = service.quota().remaining().expect("limited quota");
        let err = service
            .submit(spec(
                service,
                "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'",
                Algorithm::MaTarw { interval: None },
                left + 1,
                10,
            ))
            .expect_err("the remaining quota cannot cover it");
        assert!(matches!(err, ServiceError::Rejected { .. }), "{err}");
    });
    let _ = std::fs::remove_dir_all(&dir);
    outputs
}

fn outage() -> Outputs {
    let config = ServiceConfig {
        global_quota: Some(20_000),
        fault_plan: Some(FaultPlan::outage(7)),
        retry: RetryPolicy::resilient().with_max_attempts(2),
        ..ServiceConfig::default()
    };
    run(config, |service| {
        let outcome = service
            .submit(spec(
                service,
                "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'",
                Algorithm::MaTarw { interval: None },
                12_000,
                3,
            ))
            .expect("admitted")
            .join();
        assert!(
            matches!(outcome, JobOutcome::Failed { .. }),
            "a total outage fails the job: {outcome:?}"
        );
    })
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/telemetry_golden")
        .join(name)
}

/// Compares `observed` with the fixture `name`, or rewrites the fixture
/// when `TELEMETRY_GOLDEN_WRITE` is set. A mismatch names the first
/// differing line.
fn check(name: &str, observed: &str) {
    let path = fixture(name);
    if std::env::var_os("TELEMETRY_GOLDEN_WRITE").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, observed).expect("fixture writes");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if expected == observed {
        return;
    }
    let mut exp = expected.lines();
    let mut obs = observed.lines();
    for line in 1.. {
        match (exp.next(), obs.next()) {
            (Some(e), Some(o)) if e == o => {}
            (e, o) => panic!(
                "{name} differs from its golden at line {line}:\n  expected: {}\n  observed: {}",
                e.unwrap_or("<end of file>"),
                o.unwrap_or("<end of file>"),
            ),
        }
    }
}

fn check_all(case: &str, outputs: &Outputs) {
    assert!(outputs.stream.contains("\"name\":\"window\""));
    check(&format!("{case}.stream.jsonl"), &outputs.stream);
    check(&format!("{case}.snapshot.json"), &outputs.snapshot);
    check(&format!("{case}.metrics.txt"), &outputs.metrics);
}

#[test]
fn journal_quota_run_matches_its_golden_telemetry() {
    check_all("journal_quota", &journal_quota());
}

#[test]
fn outage_run_matches_its_golden_telemetry() {
    check_all("outage", &outage());
}
