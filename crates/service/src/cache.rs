//! The shared cross-query API cache.
//!
//! [`SharedApiCache`] implements `microblog_api`'s [`CacheLayer`] for the
//! whole service: every worker's [`CachingClient`] misses fall through to
//! this store, so a user whose timeline one query already fetched is free
//! (in *actual* platform calls — budgets are still charged logically, see
//! `microblog_api::cache`) for every later query.
//!
//! The store is sharded: a key is hashed to one of N shards, each an
//! independently mutex-guarded trio of LRU maps (one per endpoint), so
//! concurrent workers rarely contend on the same lock. Counters are
//! relaxed atomics — they feed monitoring, not control flow.
//!
//! [`CachingClient`]: microblog_api::CachingClient

use crate::lru::LruCache;
use microblog_api::cache::{
    CacheLayer, CachedConnections, CachedSearch, CachedTimeline, CoalescingLayer,
};
use microblog_api::FetchKey;
use microblog_obs::{EventName, FieldValue, Tracer};
use microblog_platform::{KeywordId, UserId};
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The service's production cache stack: a singleflight
/// [`CoalescingLayer`] over the shared sharded store, so N concurrent
/// misses on one key cost one platform fetch (every requester is still
/// charged logically — see `microblog_api::cache`).
pub type CoalescingSharedCache = CoalescingLayer<Arc<SharedApiCache>>;

/// Sizing and layout of the shared cache.
#[derive(Clone, Copy, Debug)]
pub struct SharedCacheConfig {
    /// Total entries per endpoint across all shards.
    pub capacity: usize,
    /// Number of independently locked shards (rounded up to at least 1).
    pub shards: usize,
}

impl Default for SharedCacheConfig {
    fn default() -> Self {
        SharedCacheConfig {
            capacity: 100_000,
            shards: 16,
        }
    }
}

struct Shard {
    searches: LruCache<KeywordId, CachedSearch>,
    timelines: LruCache<UserId, CachedTimeline>,
    connections: LruCache<UserId, CachedConnections>,
}

/// Relaxed monitoring counters for one endpoint.
#[derive(Default)]
struct EndpointCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl EndpointCounters {
    fn snapshot(&self) -> EndpointSnapshot {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        EndpointSnapshot {
            hits,
            misses,
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        }
    }
}

/// Point-in-time counters for one endpoint of the shared cache.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct EndpointSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the platform.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// hits / (hits + misses), 0 when idle.
    pub hit_rate: f64,
}

/// Point-in-time view of the whole shared cache.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SharedCacheSnapshot {
    /// Live entries across all endpoints and shards.
    pub entries: usize,
    /// SEARCH counters.
    pub search: EndpointSnapshot,
    /// USER TIMELINE counters.
    pub timeline: EndpointSnapshot,
    /// USER CONNECTIONS counters.
    pub connections: EndpointSnapshot,
}

impl SharedCacheSnapshot {
    /// Total hits across endpoints.
    pub fn hits(&self) -> u64 {
        self.search.hits + self.timeline.hits + self.connections.hits
    }

    /// Total misses across endpoints.
    pub fn misses(&self) -> u64 {
        self.search.misses + self.timeline.misses + self.connections.misses
    }

    /// Overall hit rate, 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m > 0 {
            h as f64 / (h + m) as f64
        } else {
            0.0
        }
    }
}

/// The service-wide response cache. See the module docs.
pub struct SharedApiCache {
    shards: Vec<Mutex<Shard>>,
    search_stats: EndpointCounters,
    timeline_stats: EndpointCounters,
    connections_stats: EndpointCounters,
    tracer: Tracer,
}

impl SharedApiCache {
    /// A cache with the given layout.
    pub fn new(config: SharedCacheConfig) -> Self {
        let shards = config.shards.max(1);
        // Spread the per-endpoint capacity across shards, rounding up so
        // the configured total is a floor, not a ceiling.
        let per_shard = config.capacity.div_ceil(shards);
        SharedApiCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        searches: LruCache::new(per_shard),
                        timelines: LruCache::new(per_shard),
                        connections: LruCache::new(per_shard),
                    })
                })
                .collect(),
            search_stats: EndpointCounters::default(),
            timeline_stats: EndpointCounters::default(),
            connections_stats: EndpointCounters::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer; evictions then surface as `shared_evict`
    /// events. (Hit/miss events come from the per-query
    /// `CachingClient` layer above, which sees every lookup.)
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    fn trace_evict(&self, endpoint: &'static str) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.emit(
            EventName::SHARED_EVICT,
            &[("endpoint", FieldValue::from(endpoint))],
        );
    }

    fn shard_for(&self, key: u64) -> &Mutex<Shard> {
        // Fibonacci hashing spreads sequential user ids across shards.
        let mixed = key.wrapping_mul(0x9E3779B97F4A7C15);
        &self.shards[(mixed >> 32) as usize % self.shards.len()] // ma-lint: allow(panic-safety) reason="shard index reduced modulo shards.len()"
    }

    /// Live entries across all endpoints and shards.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.searches.len() + s.timelines.len() + s.connections.len()
            })
            .sum()
    }

    /// A point-in-time counter snapshot.
    pub fn snapshot(&self) -> SharedCacheSnapshot {
        SharedCacheSnapshot {
            entries: self.entries(),
            search: self.search_stats.snapshot(),
            timeline: self.timeline_stats.snapshot(),
            connections: self.connections_stats.snapshot(),
        }
    }
}

impl CacheLayer for SharedApiCache {
    fn get_search(&self, kw: KeywordId) -> Option<CachedSearch> {
        let found = self
            .shard_for(kw.0 as u64)
            .lock()
            .searches
            .get(&kw)
            .cloned();
        count_lookup(&self.search_stats, found.is_some());
        found
    }

    fn put_search(&self, kw: KeywordId, entry: CachedSearch) {
        let evicted = self
            .shard_for(kw.0 as u64)
            .lock()
            .searches
            .insert(kw, entry);
        count_insert(&self.search_stats, evicted);
        if evicted {
            self.trace_evict("search");
        }
    }

    fn get_timeline(&self, u: UserId) -> Option<CachedTimeline> {
        let found = self.shard_for(u.0 as u64).lock().timelines.get(&u).cloned();
        count_lookup(&self.timeline_stats, found.is_some());
        found
    }

    fn put_timeline(&self, u: UserId, entry: CachedTimeline) {
        let evicted = self.shard_for(u.0 as u64).lock().timelines.insert(u, entry);
        count_insert(&self.timeline_stats, evicted);
        if evicted {
            self.trace_evict("timeline");
        }
    }

    fn get_connections(&self, u: UserId) -> Option<CachedConnections> {
        let found = self
            .shard_for(u.0 as u64)
            .lock()
            .connections
            .get(&u)
            .cloned();
        count_lookup(&self.connections_stats, found.is_some());
        found
    }

    fn put_connections(&self, u: UserId, entry: CachedConnections) {
        let evicted = self
            .shard_for(u.0 as u64)
            .lock()
            .connections
            .insert(u, entry);
        count_insert(&self.connections_stats, evicted);
        if evicted {
            self.trace_evict("connections");
        }
    }

    /// Peeks the key's shard: no hit or miss is counted and the entry's
    /// LRU position is unchanged.
    fn holds(&self, key: FetchKey) -> bool {
        match key {
            FetchKey::Timeline(u) => self.shard_for(u.0 as u64).lock().timelines.contains(&u),
            FetchKey::Connections(u) => self.shard_for(u.0 as u64).lock().connections.contains(&u),
        }
    }
}

fn count_lookup(counters: &EndpointCounters, hit: bool) {
    if hit {
        counters.hits.fetch_add(1, Ordering::Relaxed);
    } else {
        counters.misses.fetch_add(1, Ordering::Relaxed);
    }
}

fn count_insert(counters: &EndpointCounters, evicted: bool) {
    counters.insertions.fetch_add(1, Ordering::Relaxed);
    if evicted {
        counters.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_api::cache::Cached;
    use std::sync::Arc;

    fn connections_entry(calls: u64) -> CachedConnections {
        Cached {
            data: Arc::new(vec![UserId(1), UserId(2)]),
            calls,
        }
    }

    #[test]
    fn hits_after_put_and_counters_track() {
        let cache = SharedApiCache::new(SharedCacheConfig {
            capacity: 64,
            shards: 4,
        });
        assert!(cache.get_connections(UserId(7)).is_none());
        cache.put_connections(UserId(7), connections_entry(3));
        let entry = cache.get_connections(UserId(7)).expect("cached");
        assert_eq!(entry.calls, 3);
        assert_eq!(entry.data.len(), 2);

        let snap = cache.snapshot();
        assert_eq!(snap.connections.hits, 1);
        assert_eq!(snap.connections.misses, 1);
        assert_eq!(snap.connections.insertions, 1);
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.hit_rate(), 0.5);
    }

    #[test]
    fn holds_counts_nothing_and_refreshes_nothing() {
        let cache = SharedApiCache::new(SharedCacheConfig {
            capacity: 2,
            shards: 1,
        });
        cache.put_connections(UserId(1), connections_entry(1));
        cache.put_connections(UserId(2), connections_entry(1));
        let before = cache.snapshot();
        assert!(cache.holds(FetchKey::Connections(UserId(1))));
        assert!(!cache.holds(FetchKey::Connections(UserId(3))));
        assert!(!cache.holds(FetchKey::Timeline(UserId(1))));
        let after = cache.snapshot();
        assert_eq!(
            (after.hits(), after.misses()),
            (before.hits(), before.misses())
        );
        // The probe left user 1 least recently used: the next insert into
        // the full shard evicts it.
        cache.put_connections(UserId(3), connections_entry(1));
        assert!(!cache.holds(FetchKey::Connections(UserId(1))));
        assert!(cache.holds(FetchKey::Connections(UserId(2))));
        assert_eq!(cache.snapshot().connections.evictions, 1);
    }

    #[test]
    fn capacity_bounds_hold_under_churn() {
        let config = SharedCacheConfig {
            capacity: 16,
            shards: 4,
        };
        let cache = SharedApiCache::new(config);
        for i in 0..1000u32 {
            cache.put_timeline(
                UserId(i),
                Cached {
                    data: Arc::new(make_view(UserId(i))),
                    calls: 1,
                },
            );
        }
        // Per-shard bound is ceil(16/4) = 4 → at most 16 total.
        assert!(cache.entries() <= 16, "entries = {}", cache.entries());
        assert!(cache.snapshot().timeline.evictions >= 1000 - 16);
    }

    #[test]
    fn concurrent_access_is_safe_and_lossless() {
        let cache = Arc::new(SharedApiCache::new(SharedCacheConfig {
            capacity: 10_000,
            shards: 8,
        }));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let u = UserId(t * 10_000 + i);
                        cache.put_connections(u, connections_entry(2));
                        assert!(cache.get_connections(u).is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = cache.snapshot();
        assert_eq!(snap.connections.insertions, 4000);
        assert_eq!(snap.connections.hits, 4000);
    }

    #[test]
    fn stampede_on_one_key_costs_one_insertion() {
        use microblog_api::cache::Flight;
        let layer = Arc::new(CoalescingSharedCache::new(Arc::new(SharedApiCache::new(
            SharedCacheConfig {
                capacity: 64,
                shards: 4,
            },
        ))));
        let u = UserId(42);
        // Main thread is the leader; the stampede parks behind it.
        assert!(matches!(layer.join_connections(u), Flight::Lead));
        const STAMPEDE: u64 = 6;
        let waiters: Vec<_> = (0..STAMPEDE)
            .map(|_| {
                let layer = Arc::clone(&layer);
                std::thread::spawn(move || match layer.join_connections(u) {
                    Flight::Ready(entry) => entry.calls,
                    Flight::Lead => panic!("stampede must coalesce behind the leader"),
                })
            })
            .collect();
        while layer.stats().waits < STAMPEDE {
            std::thread::yield_now();
        }
        layer.put_connections(u, connections_entry(5));
        for w in waiters {
            assert_eq!(w.join().expect("waiter"), 5);
        }
        let stats = layer.stats();
        assert_eq!(stats.leads, 1);
        assert_eq!(stats.waits, STAMPEDE);
        assert_eq!(stats.peak_inflight, STAMPEDE + 1);
        // One actual insertion reached the store: the whole stampede
        // resolved from a single fetch.
        let snap = layer.inner().snapshot();
        assert_eq!(snap.connections.insertions, 1);
        assert_eq!(snap.entries, 1);
    }

    fn make_view(u: UserId) -> microblog_api::UserView {
        use microblog_platform::user::UserProfile;
        use microblog_platform::{Gender, Timestamp};
        microblog_api::UserView {
            user: u,
            profile: UserProfile {
                display_name: "t".into(),
                gender: Gender::Female,
                region: 0,
                age: None,
                joined: Timestamp(0),
            },
            follower_count: 0,
            followee_count: 0,
            posts: vec![],
            truncated: false,
        }
    }
}
