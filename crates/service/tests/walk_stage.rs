//! Live telemetry's walk stage covers every sampler: each job's sampler
//! run emits one `walk` span — the sampler driver's — and the stats hub
//! correlates it into the walk stage.

use microblog_analyzer::query::parse::parse_query;
use microblog_analyzer::walker::snowball::CrawlOrder;
use microblog_analyzer::{Algorithm, ViewKind};
use microblog_api::ApiProfile;
use microblog_obs::{TelemetryClock, TelemetryMode, Tracer};
use microblog_platform::scenario::{twitter_2013, Scale};
use microblog_platform::Duration;
use microblog_service::{
    GaugeReading, JobSpec, Service, ServiceConfig, StatsConfig, StatsHub, StatsSink,
};
use std::sync::Arc;

/// Observations the walk stage has recorded, read off the hub snapshot.
fn walk_observations(hub: &StatsHub) -> u64 {
    let snapshot = hub.snapshot_json(&GaugeReading::default());
    let key = "\"walk\":{\"count\":";
    let at = snapshot.find(key).expect("snapshot has a walk stage") + key.len();
    let digits: String = snapshot[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("walk count is an integer")
}

/// Runs one `algorithm` job through a fresh single-worker service with
/// live stats and returns the walk-stage observations it left. (The
/// stage histograms are windowed on the logical clock, so each sampler
/// gets its own hub rather than a shared, rotating one.)
fn walk_observations_of(algorithm: Algorithm) -> u64 {
    let scenario = twitter_2013(Scale::Tiny, 2014);
    let platform = Arc::new(scenario.platform);
    let hub = Arc::new(StatsHub::new(StatsConfig::default()));
    let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
    let cfg = ServiceConfig {
        workers: 1,
        telemetry: TelemetryMode::Logical,
        tracer: Tracer::new(Arc::new(StatsSink::new(Arc::clone(&hub))), clock),
        stats: Some(Arc::clone(&hub)),
        ..ServiceConfig::default()
    };
    let service =
        Service::start(platform.clone(), ApiProfile::twitter(), cfg).expect("service starts");
    let query = parse_query(
        "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'",
        platform.keywords(),
    )
    .expect("query parses");
    service
        .submit(JobSpec::new(query, algorithm, 4_000, 7))
        .expect("admitted")
        .join()
        .into_result()
        .expect("job completes");
    let observed = walk_observations(&hub);
    service.shutdown();
    observed
}

#[test]
fn every_sampler_records_a_walk_stage_observation() {
    let day = ViewKind::level(Duration::DAY);
    for algorithm in [
        Algorithm::MaSrw { interval: None },
        Algorithm::Mhrw { view: day },
        Algorithm::Snowball {
            view: day,
            order: CrawlOrder::Bfs,
        },
        Algorithm::MaTarw { interval: None },
    ] {
        assert_eq!(
            walk_observations_of(algorithm),
            1,
            "{} must record exactly one walk-stage observation",
            algorithm.name()
        );
    }
}
