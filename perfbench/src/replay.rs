//! Fetch-stack replay: one query's recorded boundary keys, fetched again
//! through successively longer stacks built from the crates' public
//! constructors. Each layer's cost is the difference between the stack
//! with it and the stack without it.

use crate::boundary::Key;
use crate::stats::median;
use microblog_api::cache::{CacheLayer, CoalescingLayer};
use microblog_api::{
    ApiProfile, CachingClient, FetchScheduler, MicroblogClient, QueryBudget, ResilientClient,
    RetryPolicy, SchedCounters,
};
use microblog_platform::{ApiBackend, FaultPlan, FaultyPlatform, Platform};
use microblog_service::{SharedApiCache, SharedCacheConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Layers in stack order; `memo` is a second pass answered by the
/// per-query memo.
pub const LAYERS: [&str; 7] = [
    "platform",
    "faulty",
    "client",
    "resilient",
    "sched",
    "shared",
    "memo",
];

/// Nanoseconds per fetch of each layer, in [`LAYERS`] order: medians of
/// `reps` passes per stack prefix, after one discarded warm-up round.
/// Each round rotates the order the prefixes run in, so no layer always
/// runs on the allocator and caches its predecessor left behind.
pub fn layer_costs(platform: &Arc<Platform>, keys: &[Key], reps: usize) -> [f64; 7] {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); 7];
    for round in 0..=reps {
        for k in 0..6 {
            for (layer, ns) in prefix_pass(platform, keys, (k + round) % 6) {
                if round > 0 {
                    samples[layer].push(ns);
                }
            }
        }
    }
    let n = keys.len().max(1) as f64;
    let prefix: Vec<f64> = samples.iter().map(|s| median(s) / n).collect();
    let mut costs = [0.0; 7];
    costs[0] = prefix[0];
    for i in 1..6 {
        costs[i] = prefix[i] - prefix[i - 1];
    }
    costs[6] = prefix[6];
    costs
}

/// One timed pass over `keys` through the stack ending at layer
/// `prefix` (0-5), in nanoseconds; the `shared` prefix also times the
/// memo-hit second pass. Every pass gets fresh layers, so each starts
/// as cold as a new job's.
fn prefix_pass(platform: &Arc<Platform>, keys: &[Key], prefix: usize) -> Vec<(usize, f64)> {
    let faulty = FaultyPlatform::new(Arc::clone(platform), FaultPlan::none());
    match prefix {
        0 => vec![(0, timed(|| backend_pass(&**platform, keys)))],
        1 => vec![(1, timed(|| backend_pass(&faulty, keys)))],
        2 => {
            let mut c = client(&faulty);
            vec![(
                2,
                timed(|| {
                    for key in keys {
                        match *key {
                            Key::Search(kw, _) => drop(black_box(c.search(kw))),
                            Key::Timeline(u) => drop(black_box(c.user_timeline(u))),
                            Key::Connections(u) => drop(black_box(c.connections(u))),
                        }
                    }
                }),
            )]
        }
        3 => {
            let mut r = resilient(&faulty);
            vec![(3, timed(|| resilient_pass(&mut r, keys)))]
        }
        4 => {
            let sched = FetchScheduler::new(&faulty, Arc::new(SchedCounters::default()));
            let mut r = resilient(&sched);
            vec![(4, timed(|| resilient_pass(&mut r, keys)))]
        }
        _ => {
            let sched = FetchScheduler::new(&faulty, Arc::new(SchedCounters::default()));
            let shared: Arc<dyn CacheLayer> = Arc::new(CoalescingLayer::new(Arc::new(
                SharedApiCache::new(SharedCacheConfig::default()),
            )));
            let mut caching = CachingClient::resilient(resilient(&sched), Some(shared));
            vec![
                (5, timed(|| caching_pass(&mut caching, keys))),
                (6, timed(|| caching_pass(&mut caching, keys))),
            ]
        }
    }
}

fn client(backend: &dyn ApiBackend) -> MicroblogClient<'_> {
    MicroblogClient::from_backend(backend, ApiProfile::twitter(), QueryBudget::unlimited())
}

fn resilient(backend: &dyn ApiBackend) -> ResilientClient<'_> {
    ResilientClient::new(client(backend), RetryPolicy::resilient())
}

fn timed(pass: impl FnOnce()) -> f64 {
    let started = Instant::now();
    pass();
    started.elapsed().as_nanos() as f64
}

fn backend_pass(backend: &dyn ApiBackend, keys: &[Key]) {
    for key in keys {
        match *key {
            Key::Search(kw, window) => drop(black_box(backend.fetch_search(kw, window))),
            Key::Timeline(u) => drop(black_box(backend.fetch_timeline(u))),
            Key::Connections(u) => drop(black_box(backend.fetch_connections(u))),
        }
    }
}

fn resilient_pass(client: &mut ResilientClient<'_>, keys: &[Key]) {
    for key in keys {
        match *key {
            Key::Search(kw, _) => drop(black_box(client.search(kw))),
            Key::Timeline(u) => drop(black_box(client.user_timeline(u))),
            Key::Connections(u) => drop(black_box(client.connections(u))),
        }
    }
}

fn caching_pass(client: &mut CachingClient<'_>, keys: &[Key]) {
    for key in keys {
        match *key {
            Key::Search(kw, _) => drop(black_box(client.search(kw))),
            Key::Timeline(u) => drop(black_box(client.user_timeline(u))),
            Key::Connections(u) => drop(black_box(client.connections(u))),
        }
    }
}
