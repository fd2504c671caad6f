//! Concurrency tests: the global quota under simultaneous submitters.
//!
//! Many threads hammer one [`Service`] at once. The invariants:
//!
//! - **No over-admission**: the quota never promises more calls than its
//!   limit — admitted budgets plus consumed calls stay within the cap at
//!   every instant, so the final consumed total is within the cap too.
//! - **No lost updates**: what the quota reports as consumed equals the
//!   sum, over finished jobs, of what each job settled (the calls it
//!   actually charged — unused reservation is refunded, success or not).
//! - **Termination**: every handle joins; nothing deadlocks or is
//!   dropped on the floor.

use microblog_analyzer::query::parse::parse_query;
use microblog_analyzer::Algorithm;
use microblog_api::ApiProfile;
use microblog_platform::scenario::{twitter_2013, Scale};
use microblog_service::{JobSpec, Service, ServiceConfig, ServiceError, SharedCacheConfig};
use std::sync::Arc;

fn service(global_quota: Option<u64>, workers: usize) -> Service {
    let scenario = twitter_2013(Scale::Tiny, 2014);
    Service::new(
        Arc::new(scenario.platform),
        ApiProfile::twitter(),
        ServiceConfig {
            workers,
            global_quota,
            cache: SharedCacheConfig {
                capacity: 65_536,
                shards: 8,
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
fn eight_submitters_respect_the_quota_exactly() {
    const SUBMITTERS: u64 = 8;
    const JOBS_PER_SUBMITTER: u64 = 6;
    const BUDGET: u64 = 1_500;
    // Roughly half the demand fits, so admissions and rejections race.
    const LIMIT: u64 = SUBMITTERS * JOBS_PER_SUBMITTER * BUDGET / 2;

    let service = Arc::new(service(Some(LIMIT), 4));
    let outcomes: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut settled = 0u64; // what this thread's jobs consumed
                let mut handles = Vec::new();
                let mut rejected = 0u64;
                // Submit everything before joining anything: the demand
                // is all in flight at once, so the half-sized pool is
                // oversubscribed by construction rather than only when
                // settled charges happen to approach it.
                for j in 0..JOBS_PER_SUBMITTER {
                    let spec = spec(&service, BUDGET, t * 1_000 + j);
                    match service.submit(spec) {
                        Ok(handle) => handles.push(handle),
                        Err(ServiceError::Rejected {
                            requested,
                            available,
                        }) => {
                            rejected += 1;
                            assert_eq!(requested, BUDGET);
                            assert!(
                                available < BUDGET,
                                "rejection implies the pool could not cover the budget"
                            );
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
                let admitted = handles.len() as u64;
                for handle in handles {
                    // Whatever the ending, the job settled exactly what
                    // it charged; the rest was refunded.
                    settled += handle.join().charged();
                }
                (settled, admitted, rejected)
            })
        })
        .collect();

    let mut settled_total = 0u64;
    let mut admitted_total = 0u64;
    let mut rejected_total = 0u64;
    for t in outcomes {
        let (settled, admitted, rejected) = t.join().expect("submitter terminates");
        settled_total += settled;
        admitted_total += admitted;
        rejected_total += rejected;
    }

    // No lost updates: the quota agrees call-for-call with the jobs.
    assert_eq!(service.quota().consumed(), settled_total);
    assert_eq!(service.quota().reserved(), 0, "everything settled");
    // No over-admission: consumption stays within the cap.
    assert!(service.quota().consumed() <= LIMIT);
    assert!(
        rejected_total > 0,
        "a half-sized pool under full demand must reject someone"
    );
    assert!(admitted_total > 0, "and admit someone");
    let snap = service.metrics_snapshot();
    assert_eq!(snap.jobs_submitted, admitted_total);
    assert_eq!(snap.jobs_rejected, rejected_total);
    assert_eq!(snap.jobs_succeeded + snap.jobs_failed, admitted_total);
}

#[test]
fn unlimited_quota_admits_everyone_and_everything_terminates() {
    let service = Arc::new(service(None, 8));
    let handles: Vec<_> = (0..16)
        .map(|i| {
            service
                .submit(spec(&service, 1_200, i))
                .expect("unlimited admits")
        })
        .collect();
    let mut finished = 0;
    for handle in &handles {
        // Success or estimator failure both count — termination is the
        // invariant here.
        let _ = handle.join();
        finished += 1;
    }
    assert_eq!(finished, 16);
    assert_eq!(service.quota().reserved(), 0);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.jobs_submitted, 16);
    assert_eq!(snap.jobs_succeeded + snap.jobs_failed, 16);
}

#[test]
fn shutdown_waits_for_in_flight_jobs() {
    let service = service(None, 2);
    let handles: Vec<_> = (0..4)
        .map(|i| service.submit(spec(&service, 1_000, i)).unwrap())
        .collect();
    // Shutdown drains the queue before joining the workers...
    service.shutdown();
    // ...so every handle already has an outcome.
    for handle in handles {
        assert!(
            handle.try_outcome().is_some(),
            "job finished before shutdown returned"
        );
    }
}
