//! Cross-version golden traces: the structured event streams of five
//! fixed single-worker jobs on the logical clock, pinned as files
//! written by an earlier commit. Each fixture holds the FNV-1a hash of
//! the stream's JSONL bytes and its event count per (kind, category,
//! name), so a refactor of the tracing API that moves any byte of any
//! stream fails here, and the counts say which names moved.
//!
//! * `tarw_day` — `trace_demo`'s windowed MA-TARW job at T = 1 day.
//! * `tarw_pilot` — MA-TARW with pilot interval selection.
//! * `srw_pipeline` — MA-SRW, four interleaved chains, the fetch
//!   pipeline on.
//! * `mhrw` — MHRW over the one-day level view with a journal at a
//!   1,000-step checkpoint cadence.
//! * `transient` — MA-TARW under `FaultPlan::transient` with retries.
//!
//! All run on Tiny/2014. MA-SRW runs under a 5,000-step cap per chain.
//! MHRW has no step cap short of 200,000, so its recorder keeps one walk
//! and one cache event in 15 (the recorder's sampling is a counter, not
//! an RNG; an odd rate keeps both of a step's two walk events). Both
//! keep the streams to tens of thousands of events. The fixtures live in
//! `tests/fixtures/trace_golden/` and were written by
//! `TRACE_GOLDEN_WRITE=1 cargo test -p microblog-service --test
//! trace_golden`. Regenerate them only when a trace is meant to change,
//! and say which names changed.

use microblog_analyzer::query::parse::parse_query;
use microblog_analyzer::{Algorithm, ViewKind};
use microblog_api::{ApiProfile, InflightPolicy, RetryPolicy};
use microblog_obs::{
    render_jsonl, Category, RecorderConfig, RingRecorder, TelemetryClock, TelemetryMode, Tracer,
};
use microblog_platform::scenario::{twitter_2013, Scale};
use microblog_platform::{Duration, FaultPlan};
use microblog_service::{JobSpec, Service, ServiceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

const WINDOWED: &str = "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy' \
                        AND TIME BETWEEN DAY 0 AND DAY 303";
const AVG: &str = "SELECT AVG(FOLLOWERS) FROM USERS WHERE KEYWORD = 'privacy'";

/// Walker step cap of the MA-SRW job.
const STEP_CAP: usize = 5_000;

/// Runs one job through a single-worker logical-clock service built on
/// `config`, recording into a recorder built on `recorder`, and returns
/// the JSONL stream.
fn record(
    config: ServiceConfig,
    recorder: RecorderConfig,
    sql: &str,
    algorithm: Algorithm,
    budget: u64,
    seed: u64,
) -> String {
    let platform = Arc::new(twitter_2013(Scale::Tiny, 2014).platform);
    let recorder = Arc::new(RingRecorder::new(recorder));
    let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
    let config = ServiceConfig {
        workers: 1,
        telemetry: TelemetryMode::Logical,
        tracer: Tracer::new(recorder.clone(), clock),
        ..config
    };
    let query = parse_query(sql, platform.keywords()).expect("query parses");
    let service = Service::new(platform, ApiProfile::twitter(), config);
    let outcome = service
        .submit(JobSpec::new(query, algorithm, budget, seed))
        .expect("admitted")
        .join();
    assert!(outcome.output().is_some(), "{outcome:?}");
    assert!(service.shutdown().clean);
    let dropped: u64 = recorder.stats().dropped.iter().sum();
    assert_eq!(dropped, 0, "the recorder evicted events");
    render_jsonl(&recorder.drain())
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Reads `"<key>":"<value>"` from one JSONL line.
fn string_field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":\"");
    let start = line
        .find(&tag)
        .map(|i| i + tag.len())
        .expect("field present");
    let len = line[start..].find('"').expect("field closes");
    &line[start..start + len]
}

/// The fixture text of one stream: its hash, then one `kind category
/// name count` line per distinct triple, sorted.
fn digest(jsonl: &str) -> String {
    let mut counts: BTreeMap<(&str, &str, &str), u64> = BTreeMap::new();
    for line in jsonl.lines() {
        let key = (
            string_field(line, "kind"),
            string_field(line, "cat"),
            string_field(line, "name"),
        );
        *counts.entry(key).or_default() += 1;
    }
    let mut out = format!("fnv1a64 {:016x}\n", fnv1a(jsonl.as_bytes()));
    for ((kind, cat, name), n) in counts {
        out.push_str(&format!("{kind} {cat} {name} {n}\n"));
    }
    out
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace_golden")
}

/// Compares the stream's digest with the fixture `case`, or rewrites
/// the fixture when `TRACE_GOLDEN_WRITE` is set. A mismatch names the
/// first differing line.
fn check(case: &str, jsonl: &str) {
    let observed = digest(jsonl);
    let path = fixture_dir().join(format!("{case}.txt"));
    if std::env::var_os("TRACE_GOLDEN_WRITE").is_some() {
        std::fs::create_dir_all(fixture_dir()).expect("mkdir");
        std::fs::write(&path, &observed).expect("fixture writes");
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
                "{case} differs from its golden trace at line {line}:\n  expected: {}\n  observed: {}",
                e.unwrap_or("<end of file>"),
                o.unwrap_or("<end of file>"),
            ),
        }
    }
}

#[test]
fn tarw_day_trace_matches_its_golden() {
    let algorithm = Algorithm::MaTarw {
        interval: Some(Duration::DAY),
    };
    let jsonl = record(
        ServiceConfig::default(),
        RecorderConfig::default(),
        WINDOWED,
        algorithm,
        5_000,
        7,
    );
    check("tarw_day", &jsonl);
}

#[test]
fn tarw_pilot_trace_matches_its_golden() {
    let algorithm = Algorithm::MaTarw { interval: None };
    let jsonl = record(
        ServiceConfig::default(),
        RecorderConfig::default(),
        WINDOWED,
        algorithm,
        5_000,
        7,
    );
    check("tarw_pilot", &jsonl);
}

#[test]
fn srw_pipeline_trace_matches_its_golden() {
    let config = ServiceConfig {
        pipeline: true,
        chains: 4,
        inflight: InflightPolicy::default(),
        step_cap: Some(STEP_CAP),
        ..ServiceConfig::default()
    };
    let algorithm = Algorithm::MaSrw { interval: None };
    let jsonl = record(config, RecorderConfig::default(), AVG, algorithm, 4_000, 7);
    check("srw_pipeline", &jsonl);
}

#[test]
fn mhrw_trace_matches_its_golden() {
    let algorithm = Algorithm::Mhrw {
        view: ViewKind::level(Duration::DAY),
    };
    let dir = std::env::temp_dir().join(format!("ma-trace-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        journal: Some(dir.clone()),
        checkpoint_every: 1_000,
        ..ServiceConfig::default()
    };
    let recorder = RecorderConfig::default()
        .with_sampling(Category::Walk, 15)
        .with_sampling(Category::Cache, 15);
    let jsonl = record(config, recorder, AVG, algorithm, 3_000, 9);
    let _ = std::fs::remove_dir_all(&dir);
    check("mhrw", &jsonl);
}

#[test]
fn transient_fault_trace_matches_its_golden() {
    let config = ServiceConfig {
        fault_plan: Some(FaultPlan::transient(11, 0.05)),
        retry: RetryPolicy::resilient(),
        ..ServiceConfig::default()
    };
    let algorithm = Algorithm::MaTarw {
        interval: Some(Duration::DAY),
    };
    let jsonl = record(
        config,
        RecorderConfig::default(),
        WINDOWED,
        algorithm,
        3_000,
        3,
    );
    check("transient", &jsonl);
}

/// The five fixtures together cover most of the vocabulary: at least 20
/// of the 38 point-event names and every span name. The coalescer and
/// recovery names have no deterministic single-worker emitter.
#[test]
fn golden_traces_cover_the_vocabulary() {
    let mut events = BTreeSet::new();
    let mut spans = BTreeSet::new();
    for case in [
        "tarw_day",
        "tarw_pilot",
        "srw_pipeline",
        "mhrw",
        "transient",
    ] {
        let path = fixture_dir().join(format!("{case}.txt"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for line in text.lines().skip(1) {
            let parts: Vec<&str> = line.split(' ').collect();
            let key = (parts[1].to_string(), parts[2].to_string());
            match parts[0] {
                "event" => events.insert(key),
                _ => spans.insert(key),
            };
        }
    }
    assert!(
        events.len() >= 20,
        "{} event names: {events:?}",
        events.len()
    );
    assert_eq!(spans.len(), 4, "{spans:?}");
}
