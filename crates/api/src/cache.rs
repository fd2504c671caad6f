//! Cross-query response caching.
//!
//! [`CacheLayer`] is the interface a *shared* cache implements so that
//! many concurrent queries against the same platform + [`ApiProfile`] can
//! reuse each other's SEARCH / USER TIMELINE / USER CONNECTIONS
//! responses. The service crate provides the production implementation (a
//! sharded, bounded, LRU-evicting store); this crate only defines the
//! contract and the accounting types.
//!
//! ## Logical charging
//!
//! The walkers terminate when the per-query budget runs out, so a cache
//! hit that cost *nothing* would lengthen the walk and change the
//! estimate — queries would stop being reproducible. Instead every cache
//! entry remembers how many API calls the original fetch cost
//! ([`Cached::calls`]), and a shared-cache hit charges the querying
//! client's budget and meter exactly that amount. The walk trajectory,
//! the reported [`CostMeter`] totals and the final estimate are therefore
//! *bit-identical* to an isolated run; only the count of **actual**
//! platform fetches drops. [`CacheStats`] tracks both sides.
//!
//! [`ApiProfile`]: crate::profile::ApiProfile
//! [`CostMeter`]: crate::meter::CostMeter

use crate::client::{SearchHit, UserView};
use crate::meter::CostMeter;
use microblog_obs::{EventName, FieldValue, Tracer};
use microblog_platform::{ApiEndpoint, KeywordId, UserId};
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cached response plus the API-call cost of the fetch that produced
/// it, so hits can re-charge the same amount (see module docs).
#[derive(Clone, Debug)]
pub struct Cached<T: ?Sized> {
    /// The shared response payload.
    pub data: Arc<T>,
    /// API calls the original fetch charged.
    pub calls: u64,
}

/// A cached SEARCH response.
pub type CachedSearch = Cached<Vec<SearchHit>>;
/// A cached USER TIMELINE response.
pub type CachedTimeline = Cached<UserView>;
/// A cached USER CONNECTIONS response.
pub type CachedConnections = Cached<Vec<UserId>>;

/// A thread-safe response cache shared by many queries.
///
/// Implementations must be safe to call from concurrent worker threads;
/// all methods take `&self`. A layer instance is only meaningful for one
/// (platform, API profile) pair — mixing pollutes responses and costs.
pub trait CacheLayer: Send + Sync {
    /// Looks up a SEARCH response.
    fn get_search(&self, kw: KeywordId) -> Option<CachedSearch>;
    /// Stores a SEARCH response. On coalescing layers this doubles as
    /// flight completion: parked waiters for `kw` wake with the entry.
    fn put_search(&self, kw: KeywordId, entry: CachedSearch);
    /// Looks up a USER TIMELINE response.
    fn get_timeline(&self, u: UserId) -> Option<CachedTimeline>;
    /// Stores a USER TIMELINE response (and completes any flight).
    fn put_timeline(&self, u: UserId, entry: CachedTimeline);
    /// Looks up a USER CONNECTIONS response.
    fn get_connections(&self, u: UserId) -> Option<CachedConnections>;
    /// Stores a USER CONNECTIONS response (and completes any flight).
    fn put_connections(&self, u: UserId, entry: CachedConnections);

    /// Coalescing-aware SEARCH lookup: either returns an entry (possibly
    /// after parking on a concurrent in-flight fetch of the same key) or
    /// elects the caller leader. A leader **must** follow up with
    /// [`CacheLayer::put_search`] on success or
    /// [`CacheLayer::abort_search`] on failure, or waiters stall until
    /// their liveness timeout. The default is the plain uncoalesced
    /// lookup, so existing layers behave exactly as before.
    fn join_search(&self, kw: KeywordId) -> Flight<CachedSearch> {
        match self.get_search(kw) {
            Some(entry) => Flight::Ready(entry),
            None => Flight::Lead,
        }
    }
    /// Releases a SEARCH flight whose fetch failed; waiters re-elect.
    fn abort_search(&self, _kw: KeywordId) {}

    /// Coalescing-aware USER TIMELINE lookup (see [`CacheLayer::join_search`]).
    fn join_timeline(&self, u: UserId) -> Flight<CachedTimeline> {
        match self.get_timeline(u) {
            Some(entry) => Flight::Ready(entry),
            None => Flight::Lead,
        }
    }
    /// Releases a USER TIMELINE flight whose fetch failed.
    fn abort_timeline(&self, _u: UserId) {}

    /// Coalescing-aware USER CONNECTIONS lookup (see [`CacheLayer::join_search`]).
    fn join_connections(&self, u: UserId) -> Flight<CachedConnections> {
        match self.get_connections(u) {
            Some(entry) => Flight::Ready(entry),
            None => Flight::Lead,
        }
    }
    /// Releases a USER CONNECTIONS flight whose fetch failed.
    fn abort_connections(&self, _u: UserId) {}
}

// Allows wrapping combinators over `Arc`-shared layers (the service keeps
// its store behind an `Arc` so workers and the coalescer share it).
impl<L: CacheLayer + ?Sized> CacheLayer for Arc<L> {
    fn get_search(&self, kw: KeywordId) -> Option<CachedSearch> {
        (**self).get_search(kw)
    }
    fn put_search(&self, kw: KeywordId, entry: CachedSearch) {
        (**self).put_search(kw, entry);
    }
    fn get_timeline(&self, u: UserId) -> Option<CachedTimeline> {
        (**self).get_timeline(u)
    }
    fn put_timeline(&self, u: UserId, entry: CachedTimeline) {
        (**self).put_timeline(u, entry);
    }
    fn get_connections(&self, u: UserId) -> Option<CachedConnections> {
        (**self).get_connections(u)
    }
    fn put_connections(&self, u: UserId, entry: CachedConnections) {
        (**self).put_connections(u, entry);
    }
    fn join_search(&self, kw: KeywordId) -> Flight<CachedSearch> {
        (**self).join_search(kw)
    }
    fn abort_search(&self, kw: KeywordId) {
        (**self).abort_search(kw);
    }
    fn join_timeline(&self, u: UserId) -> Flight<CachedTimeline> {
        (**self).join_timeline(u)
    }
    fn abort_timeline(&self, u: UserId) {
        (**self).abort_timeline(u);
    }
    fn join_connections(&self, u: UserId) -> Flight<CachedConnections> {
        (**self).join_connections(u)
    }
    fn abort_connections(&self, u: UserId) {
        (**self).abort_connections(u);
    }
}

/// Outcome of a coalescing-aware lookup.
#[must_use = "a Lead flight must be completed with put_* or released with abort_*"]
#[derive(Clone, Debug)]
pub enum Flight<T> {
    /// An entry is available — from the cache, or handed over by a
    /// concurrent leader whose fetch just completed.
    Ready(T),
    /// The caller was elected leader for this key and owes the layer a
    /// `put_*` (success) or `abort_*` (failure).
    Lead,
}

/// Per-client cache accounting, kept by
/// [`CachingClient`](crate::client::CachingClient).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests served from this query's own memo at zero cost.
    pub local_hits: u64,
    /// Requests served from the shared cross-query layer (charged
    /// logically, but no platform fetch happened).
    pub shared_hits: u64,
    /// Requests that reached the platform.
    pub misses: u64,
    /// API calls actually issued against the platform (misses only).
    pub actual_calls: u64,
    /// API calls charged for shared hits without touching the platform —
    /// the cross-query saving.
    pub saved_calls: u64,
}

impl CacheStats {
    /// Total requests that went through the cache stack.
    pub fn requests(&self) -> u64 {
        self.local_hits + self.shared_hits + self.misses
    }

    /// Shared-layer hit rate over the requests that missed the local
    /// memo; `None` when no request got that far.
    pub fn shared_hit_rate(&self) -> Option<f64> {
        let reached = self.shared_hits + self.misses;
        (reached > 0).then(|| self.shared_hits as f64 / reached as f64)
    }

    /// Accumulates another client's counters (for service-wide totals).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.local_hits += other.local_hits;
        self.shared_hits += other.shared_hits;
        self.misses += other.misses;
        self.actual_calls += other.actual_calls;
        self.saved_calls += other.saved_calls;
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits ({} local, {} shared), {} misses; {} calls issued, {} saved",
            self.local_hits + self.shared_hits,
            self.local_hits,
            self.shared_hits,
            self.misses,
            self.actual_calls,
            self.saved_calls
        )
    }
}

/// A client's combined charge/cache report: what was charged (the
/// paper's cost metric, including logical charges for shared hits) and
/// how the cache stack behaved.
#[derive(Clone, Debug, Serialize)]
pub struct CostReport {
    /// Per-endpoint charged calls.
    pub meter: CostMeter,
    /// Hit/miss accounting.
    pub cache: CacheStats,
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}; cache: {}", self.meter, self.cache)
    }
}

/// How long a parked waiter sleeps before re-checking liveness. Purely a
/// crash backstop: a leader that vanished without `put_*`/`abort_*` (a
/// panicked job) leaves its slot behind, and the first waiter to time out
/// steals leadership. Completion and abort wake waiters immediately, so
/// this never sits on the happy path, and it is wall time a logical-clock
/// run never observes. Generous on purpose — stealing from a merely slow
/// leader costs a duplicate fetch.
const FLIGHT_LIVENESS_CHECK: Duration = Duration::from_millis(200);

/// Snapshot of a [`CoalescingLayer`]'s dedup counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CoalesceStats {
    /// Flights led: misses that performed the backend fetch.
    pub leads: u64,
    /// Requests that parked on a concurrent in-flight fetch instead of
    /// issuing their own — the calls coalescing deduplicated.
    pub waits: u64,
    /// Flights released by `abort_*` after a failed fetch.
    pub aborts: u64,
    /// Most requesters ever coalesced onto one flight (leader + waiters).
    pub peak_inflight: u64,
}

impl CoalesceStats {
    /// Fraction of shared-cache misses that were absorbed by an already
    /// in-flight fetch; `None` before any miss.
    pub fn coalesced_miss_ratio(&self) -> Option<f64> {
        let misses = self.leads + self.waits;
        (misses > 0).then(|| self.waits as f64 / misses as f64)
    }
}

#[derive(Debug, Default)]
struct CoalesceCounters {
    leads: AtomicU64,
    waits: AtomicU64,
    aborts: AtomicU64,
    peak_inflight: AtomicU64,
}

impl CoalesceCounters {
    fn snapshot(&self) -> CoalesceStats {
        CoalesceStats {
            leads: self.leads.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            peak_inflight: self.peak_inflight.load(Ordering::Relaxed),
        }
    }
}

/// Per-endpoint in-flight slots: key → number of currently parked
/// waiters. A slot exists exactly while a leader owes a completion.
#[derive(Debug)]
struct FlightTable<K> {
    slots: Mutex<HashMap<K, u64>>,
    cond: Condvar,
}

impl<K: Copy + Eq + Hash> FlightTable<K> {
    fn new() -> Self {
        FlightTable {
            slots: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
        }
    }

    /// The join protocol: re-check the cache, then either claim the slot
    /// (leader) or park until the slot resolves. `lookup` reads the
    /// layer underneath — a lock-ordering note: it acquires the inner
    /// cache's shard lock *under* the slot lock, and nothing ever
    /// acquires them in the opposite order. The backend fetch itself
    /// always happens with no lock held (the leader returns first).
    fn join<T>(
        &self,
        key: K,
        counters: &CoalesceCounters,
        lookup: impl Fn() -> Option<T>,
    ) -> (Flight<T>, bool) {
        let mut slots = self.slots.lock();
        let mut parked = false;
        loop {
            if let Some(entry) = lookup() {
                return (Flight::Ready(entry), parked);
            }
            if let Some(waiters) = slots.get_mut(&key) {
                *waiters += 1;
                if !parked {
                    parked = true;
                    counters.waits.fetch_add(1, Ordering::Relaxed);
                }
                counters
                    .peak_inflight
                    .fetch_max(*waiters + 1, Ordering::Relaxed);
                let timed_out = self
                    .cond
                    .wait_for(&mut slots, FLIGHT_LIVENESS_CHECK)
                    .timed_out();
                if let Some(waiters) = slots.get_mut(&key) {
                    *waiters = waiters.saturating_sub(1);
                }
                if timed_out && slots.contains_key(&key) && lookup().is_none() {
                    // The leader died without completing or aborting;
                    // drop the stale slot so the next pass re-elects.
                    slots.remove(&key);
                }
            } else {
                counters.leads.fetch_add(1, Ordering::Relaxed);
                counters.peak_inflight.fetch_max(1, Ordering::Relaxed);
                slots.insert(key, 0);
                return (Flight::Lead, parked);
            }
        }
    }

    /// Resolves the slot (entry published or flight aborted) and wakes
    /// every parked waiter to re-run the join loop.
    fn resolve(&self, key: K) -> bool {
        let existed = self.slots.lock().remove(&key).is_some();
        if existed {
            self.cond.notify_all();
        }
        existed
    }
}

/// Singleflight combinator over any [`CacheLayer`]: the first requester
/// to miss a key performs the platform fetch while concurrent requesters
/// for the same key park on a per-key in-flight slot and receive the
/// filled entry when the leader publishes it.
///
/// Charging is untouched — a parked waiter is handed a [`Cached`] entry
/// and charges its own budget and meter exactly like a shared-cache hit,
/// so estimates, charged totals and quota settlements are bit-identical
/// to an uncoalesced run. Only the count of *actual* backend calls drops.
#[derive(Debug)]
pub struct CoalescingLayer<L> {
    inner: L,
    searches: FlightTable<KeywordId>,
    timelines: FlightTable<UserId>,
    connections: FlightTable<UserId>,
    counters: CoalesceCounters,
    tracer: Tracer,
}

impl<L: CacheLayer> CoalescingLayer<L> {
    /// Wraps a layer; coalescing is purely additive.
    pub fn new(inner: L) -> Self {
        CoalescingLayer {
            inner,
            searches: FlightTable::new(),
            timelines: FlightTable::new(),
            connections: FlightTable::new(),
            counters: CoalesceCounters::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer; lead/join/abort events flow into it.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Dedup counters so far.
    pub fn stats(&self) -> CoalesceStats {
        self.counters.snapshot()
    }

    fn trace(&self, name: EventName, endpoint: ApiEndpoint) {
        if self.tracer.is_enabled() {
            self.tracer.emit(
                name,
                &[(
                    "endpoint",
                    FieldValue::from(crate::client::endpoint_name(endpoint)),
                )],
            );
        }
    }

    fn trace_flight<T>(&self, outcome: &(Flight<T>, bool), endpoint: ApiEndpoint) {
        let (flight, parked) = outcome;
        if *parked {
            self.trace(EventName::JOIN, endpoint);
        }
        if matches!(flight, Flight::Lead) {
            self.trace(EventName::LEAD, endpoint);
        }
    }
}

impl<L: CacheLayer> CacheLayer for CoalescingLayer<L> {
    fn get_search(&self, kw: KeywordId) -> Option<CachedSearch> {
        self.inner.get_search(kw)
    }
    fn put_search(&self, kw: KeywordId, entry: CachedSearch) {
        self.inner.put_search(kw, entry);
        self.searches.resolve(kw);
    }
    fn get_timeline(&self, u: UserId) -> Option<CachedTimeline> {
        self.inner.get_timeline(u)
    }
    fn put_timeline(&self, u: UserId, entry: CachedTimeline) {
        self.inner.put_timeline(u, entry);
        self.timelines.resolve(u);
    }
    fn get_connections(&self, u: UserId) -> Option<CachedConnections> {
        self.inner.get_connections(u)
    }
    fn put_connections(&self, u: UserId, entry: CachedConnections) {
        self.inner.put_connections(u, entry);
        self.connections.resolve(u);
    }

    fn join_search(&self, kw: KeywordId) -> Flight<CachedSearch> {
        let outcome = self
            .searches
            .join(kw, &self.counters, || self.inner.get_search(kw));
        self.trace_flight(&outcome, ApiEndpoint::Search);
        outcome.0
    }
    fn abort_search(&self, kw: KeywordId) {
        if self.searches.resolve(kw) {
            self.counters.aborts.fetch_add(1, Ordering::Relaxed);
            self.trace(EventName::ABORT, ApiEndpoint::Search);
        }
    }
    fn join_timeline(&self, u: UserId) -> Flight<CachedTimeline> {
        let outcome = self
            .timelines
            .join(u, &self.counters, || self.inner.get_timeline(u));
        self.trace_flight(&outcome, ApiEndpoint::Timeline);
        outcome.0
    }
    fn abort_timeline(&self, u: UserId) {
        if self.timelines.resolve(u) {
            self.counters.aborts.fetch_add(1, Ordering::Relaxed);
            self.trace(EventName::ABORT, ApiEndpoint::Timeline);
        }
    }
    fn join_connections(&self, u: UserId) -> Flight<CachedConnections> {
        let outcome = self
            .connections
            .join(u, &self.counters, || self.inner.get_connections(u));
        self.trace_flight(&outcome, ApiEndpoint::Connections);
        outcome.0
    }
    fn abort_connections(&self, u: UserId) {
        if self.connections.resolve(u) {
            self.counters.aborts.fetch_add(1, Ordering::Relaxed);
            self.trace(EventName::ABORT, ApiEndpoint::Connections);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_totals() {
        let mut s = CacheStats {
            local_hits: 5,
            shared_hits: 3,
            misses: 1,
            actual_calls: 4,
            saved_calls: 9,
        };
        assert_eq!(s.requests(), 9);
        assert_eq!(s.shared_hit_rate(), Some(0.75));
        s.absorb(&s.clone());
        assert_eq!(s.misses, 2);
        assert_eq!(s.saved_calls, 18);
        assert_eq!(CacheStats::default().shared_hit_rate(), None);
    }

    #[test]
    fn display_is_informative() {
        let s = CacheStats {
            local_hits: 2,
            shared_hits: 1,
            misses: 3,
            actual_calls: 7,
            saved_calls: 2,
        };
        let text = s.to_string();
        assert!(text.contains("3 hits"));
        assert!(text.contains("3 misses"));
        assert!(text.contains("7 calls issued"));
    }

    /// Minimal in-memory layer for exercising the combinator.
    #[derive(Default)]
    struct MapLayer {
        searches: Mutex<HashMap<KeywordId, CachedSearch>>,
        timelines: Mutex<HashMap<UserId, CachedTimeline>>,
        connections: Mutex<HashMap<UserId, CachedConnections>>,
    }

    impl CacheLayer for MapLayer {
        fn get_search(&self, kw: KeywordId) -> Option<CachedSearch> {
            self.searches.lock().get(&kw).cloned()
        }
        fn put_search(&self, kw: KeywordId, entry: CachedSearch) {
            self.searches.lock().insert(kw, entry);
        }
        fn get_timeline(&self, u: UserId) -> Option<CachedTimeline> {
            self.timelines.lock().get(&u).cloned()
        }
        fn put_timeline(&self, u: UserId, entry: CachedTimeline) {
            self.timelines.lock().insert(u, entry);
        }
        fn get_connections(&self, u: UserId) -> Option<CachedConnections> {
            self.connections.lock().get(&u).cloned()
        }
        fn put_connections(&self, u: UserId, entry: CachedConnections) {
            self.connections.lock().insert(u, entry);
        }
    }

    #[test]
    fn default_join_is_the_plain_lookup() {
        let layer = MapLayer::default();
        let kw = KeywordId(3);
        assert!(matches!(layer.join_search(kw), Flight::Lead));
        layer.put_search(
            kw,
            Cached {
                data: Arc::new(Vec::new()),
                calls: 2,
            },
        );
        match layer.join_search(kw) {
            Flight::Ready(entry) => assert_eq!(entry.calls, 2),
            Flight::Lead => panic!("filled key must not elect a leader"),
        }
        // abort on a plain layer is a no-op.
        layer.abort_search(kw);
    }

    #[test]
    fn coalescing_parks_waiters_and_hands_over_the_entry() {
        let layer = Arc::new(CoalescingLayer::new(MapLayer::default()));
        let u = UserId(7);
        assert!(matches!(layer.join_connections(u), Flight::Lead));
        const WAITERS: u64 = 4;
        let handles: Vec<_> = (0..WAITERS)
            .map(|_| {
                let layer = Arc::clone(&layer);
                std::thread::spawn(move || match layer.join_connections(u) {
                    Flight::Ready(entry) => entry.calls,
                    Flight::Lead => panic!("waiter elected while a leader is in flight"),
                })
            })
            .collect();
        // All four threads must be parked on the slot before the leader
        // publishes, so the dedup counters are exact.
        while layer.stats().waits < WAITERS {
            std::thread::yield_now();
        }
        layer.put_connections(
            u,
            Cached {
                data: Arc::new(vec![UserId(1)]),
                calls: 3,
            },
        );
        for h in handles {
            assert_eq!(h.join().expect("waiter thread"), 3);
        }
        let stats = layer.stats();
        assert_eq!(stats.leads, 1);
        assert_eq!(stats.waits, WAITERS);
        assert_eq!(stats.aborts, 0);
        assert_eq!(stats.peak_inflight, WAITERS + 1);
        assert_eq!(stats.coalesced_miss_ratio(), Some(0.8));
    }

    #[test]
    fn abort_re_elects_a_parked_waiter() {
        let layer = Arc::new(CoalescingLayer::new(MapLayer::default()));
        let kw = KeywordId(11);
        assert!(matches!(layer.join_search(kw), Flight::Lead));
        let waiter = {
            let layer = Arc::clone(&layer);
            std::thread::spawn(move || match layer.join_search(kw) {
                // The re-elected waiter owes a completion like any leader.
                Flight::Lead => {
                    layer.put_search(
                        kw,
                        Cached {
                            data: Arc::new(Vec::new()),
                            calls: 1,
                        },
                    );
                    true
                }
                Flight::Ready(_) => false,
            })
        };
        while layer.stats().waits < 1 {
            std::thread::yield_now();
        }
        layer.abort_search(kw);
        assert!(
            waiter.join().expect("waiter thread"),
            "abort must hand leadership to a parked waiter"
        );
        let stats = layer.stats();
        assert_eq!(stats.leads, 2);
        assert_eq!(stats.aborts, 1);
        assert!(layer.get_search(kw).is_some());
    }
}
