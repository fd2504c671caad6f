//! The central fetch scheduler — "walk, not wait".
//!
//! The paper's experiments pay 50–100 ms of network RTT per API call, and
//! a random walk is a *serial* consumer: step `t+1` cannot be chosen until
//! the fetch for step `t` returns. Run naively, a walk leaves the whole
//! rate-limit window idle — one call in flight, everything else waiting.
//! This module turns the wait into overlap without changing a single bit
//! of what the walk computes:
//!
//! * Logical walker chains **announce** fetches they are *about to* need
//!   ([`PrefetchSink::announce`]) — e.g. the timelines of every candidate
//!   neighbor the level filter is going to inspect, or the next step of
//!   each of N interleaved chains.
//! * A pool of prefetcher threads ([`FetchScheduler::run_prefetcher`])
//!   drains the announce queue, keeping up to [`InflightPolicy::depth`]
//!   real backend calls outstanding at once.
//! * The walker then *consumes* responses through the ordinary
//!   [`ApiBackend`] interface — the scheduler impl returns the buffered
//!   result if the prefetch completed, waits for it if it is in flight,
//!   or claims the key and fetches inline if no prefetcher got to it yet.
//!
//! # Determinism invariant
//!
//! For every call a walk consumes, and so is charged for, the scheduler
//! changes **when** it happens, never **whether** or **how many**. Each
//! announced key is fetched at most once, by exactly one thread
//! (prefetcher or consumer — the queue and slot maps are guarded by one
//! lock, so the transfer of responsibility is atomic), and a consumed
//! result leaves the slot map, so a retry after a buffered fault goes
//! straight through to the backend as the next attempt — exactly the
//! sequence a sequential run would produce against a deterministic
//! [`microblog_platform::FaultyPlatform`]. A key announced but never
//! consumed (a walk that errors out mid-expansion, or a job that ends
//! first) is either dropped from the queue unfetched or, if a
//! prefetcher already fetched it, returned by [`PrefetchSink::reset`]
//! so the caller can roll its speculative attempt back out of the fault
//! schedule.
//!
//! Scheduler *threads* never emit trace events — they feed the
//! [`SchedCounters`] atomics only. The deterministic `announce`/`drain`
//! events of [`microblog_obs::Category::Sched`] are emitted by the
//! logical walker thread (see [`crate::client::CachingClient`]), so
//! traces stay byte-identical run over run.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use microblog_platform::{
    ApiBackend, ApiEndpoint, Fault, KeywordId, Platform, PostId, TimeWindow, UserId,
};

/// One prefetchable request. SEARCH is deliberately absent: seed queries
/// happen once per job on the critical path, so there is nothing to
/// overlap them with — they always pass straight through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FetchKey {
    /// `USER TIMELINE(u)`.
    Timeline(UserId),
    /// `USER CONNECTIONS(u)`.
    Connections(UserId),
}

impl FetchKey {
    /// The endpoint this key fetches.
    pub fn endpoint(self) -> ApiEndpoint {
        match self {
            FetchKey::Timeline(_) => ApiEndpoint::Timeline,
            FetchKey::Connections(_) => ApiEndpoint::Connections,
        }
    }

    /// The per-endpoint fault-schedule key this request draws against —
    /// must match what [`microblog_platform::FaultyPlatform`] derives
    /// internally, so speculative attempts can be rolled back precisely.
    pub fn fault_key(self) -> u64 {
        match self {
            FetchKey::Timeline(u) | FetchKey::Connections(u) => u64::from(u.0),
        }
    }
}

/// How deep the scheduler keeps the backend pipeline.
///
/// The depth is the number of prefetcher threads the owner spawns (each
/// keeps at most one call in flight), so it bounds concurrent backend
/// load exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InflightPolicy {
    /// One outstanding prefetch — overlaps fetch latency with the walker's
    /// own compute, nothing more.
    Serial,
    /// A fixed number of outstanding calls.
    Fixed(usize),
    /// Fill the platform's rate-limit window: as many outstanding calls as
    /// the window has unspent quota, capped to keep thread counts sane.
    Window {
        /// Calls permitted per rate-limit window.
        per_window: u64,
        /// Upper bound regardless of quota.
        cap: usize,
    },
}

impl InflightPolicy {
    /// The concrete pipeline depth (≥ 1).
    pub fn depth(self) -> usize {
        match self {
            InflightPolicy::Serial => 1,
            InflightPolicy::Fixed(n) => n.max(1),
            InflightPolicy::Window { per_window, cap } => usize::try_from(per_window)
                .unwrap_or(usize::MAX)
                .min(cap)
                .max(1),
        }
    }
}

impl Default for InflightPolicy {
    /// Sixteen outstanding calls — deep enough to cover a level filter's
    /// candidate batch, shallow enough for a thread per slot.
    fn default() -> Self {
        InflightPolicy::Fixed(16)
    }
}

/// Shared atomic telemetry of one or more schedulers (the service gives
/// every worker's scheduler the same handle). Owned by an `Arc` so the
/// service can keep reading gauges after a job's scheduler is gone. The
/// counts are sums over the schedulers; `peak_inflight` is a maximum.
#[derive(Debug, Default)]
pub struct SchedCounters {
    /// Keys accepted into the prefetch queue.
    pub announced: AtomicU64,
    /// Backend calls issued by prefetcher threads.
    pub prefetched: AtomicU64,
    /// Consumer requests served from a completed prefetch.
    pub hits: AtomicU64,
    /// Consumer requests that waited on an in-flight prefetch.
    pub waits: AtomicU64,
    /// Queued keys the consumer claimed and fetched inline.
    pub claimed: AtomicU64,
    /// Keys a prefetcher fetched but no consumer took before reset
    /// (their attempts are rolled back). Keys reset drops from the queue
    /// were never fetched and are not counted.
    pub stranded: AtomicU64,
    /// The deepest any one scheduler's prefetch calls went: each
    /// scheduler keeps its own in-flight gauge and `fetch_max`es it in,
    /// so schedulers sharing these counters do not add up.
    pub peak_inflight: AtomicU64,
}

impl SchedCounters {
    /// A plain-value snapshot of the counters.
    pub fn snapshot(&self) -> SchedStats {
        SchedStats {
            announced: self.announced.load(Ordering::Relaxed),
            prefetched: self.prefetched.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            claimed: self.claimed.load(Ordering::Relaxed),
            stranded: self.stranded.load(Ordering::Relaxed),
            peak_inflight: self.peak_inflight.load(Ordering::Relaxed),
        }
    }
}

/// A copyable snapshot of [`SchedCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Keys accepted into the prefetch queue.
    pub announced: u64,
    /// Backend calls issued by prefetcher threads.
    pub prefetched: u64,
    /// Consumer requests served from a completed prefetch.
    pub hits: u64,
    /// Consumer requests that waited on an in-flight prefetch.
    pub waits: u64,
    /// Queued keys the consumer claimed and fetched inline.
    pub claimed: u64,
    /// Fetched-but-unconsumed keys returned by reset.
    pub stranded: u64,
    /// The deepest any one scheduler's prefetch calls went.
    pub peak_inflight: u64,
}

/// The sink half of the scheduler: what a [`crate::client::CachingClient`]
/// needs in order to announce upcoming fetches without knowing the
/// scheduler's lifetime structure.
pub trait PrefetchSink: Sync {
    /// Queues keys for background fetching; keys already queued, in
    /// flight or buffered are skipped. Returns how many were newly
    /// queued (a deterministic function of the logical fetch history).
    fn announce(&self, keys: &[FetchKey]) -> usize;

    /// Blocks until nothing is queued or in flight (completed-but-
    /// unconsumed buffers may remain). Returns the number of buffered
    /// results still outstanding. Checkpoint safe points call this so a
    /// captured client state never races a half-done prefetch.
    fn drain(&self) -> usize;

    /// Drops every queued key unfetched, waits for calls in flight, then
    /// discards the buffered results, returning the keys whose backend
    /// fetch actually happened but was never consumed — sorted, so
    /// callers can roll the speculative attempts back out of a
    /// deterministic fault schedule.
    fn reset(&self) -> Vec<FetchKey>;
}

/// What a slot holds between fetch completion and consumption. The
/// buffered payloads are the backend's own `'p`-lived borrows (`Copy`, so
/// handing one out is free and leaves no owner behind).
#[derive(Clone, Copy, Debug)]
enum SlotState<'p> {
    /// A prefetcher has taken the key and its call is outstanding.
    InFlight,
    /// A completed `USER TIMELINE` fetch.
    Timeline(Result<&'p [PostId], Fault>),
    /// A completed `USER CONNECTIONS` fetch.
    Connections(Result<(&'p [u32], &'p [u32]), Fault>),
}

#[derive(Debug, Default)]
struct Inner<'p> {
    /// Announced keys awaiting a prefetcher, FIFO.
    queue: VecDeque<FetchKey>,
    /// Membership index of `queue`.
    queued: HashSet<FetchKey>,
    /// In-flight markers and completed-but-unconsumed results.
    slots: HashMap<FetchKey, SlotState<'p>>,
    /// Set once; a prefetcher then exits instead of taking another key.
    closed: bool,
}

impl Inner<'_> {
    fn inflight(&self) -> usize {
        self.slots
            .values()
            .filter(|s| matches!(s, SlotState::InFlight))
            .count()
    }
}

/// The scheduler: wraps any [`ApiBackend`] and *is* an [`ApiBackend`], so
/// the entire client stack (resilience, caching, metering) runs over it
/// unchanged. Spawn [`InflightPolicy::depth`] threads running
/// [`FetchScheduler::run_prefetcher`], announce keys through the
/// [`PrefetchSink`] face, and call [`FetchScheduler::close`] (or rely on
/// a drop guard) before joining the threads.
pub struct FetchScheduler<'p> {
    inner: &'p dyn ApiBackend,
    state: Mutex<Inner<'p>>,
    /// Signals prefetchers: queue non-empty or closed.
    work: Condvar,
    /// Signals consumers and drainers: a slot completed or emptied.
    done: Condvar,
    counters: Arc<SchedCounters>,
    inflight_gauge: AtomicU64,
}

impl std::fmt::Debug for FetchScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchScheduler")
            .field("stats", &self.counters.snapshot())
            .finish_non_exhaustive()
    }
}

impl<'p> FetchScheduler<'p> {
    /// A scheduler over `inner`, reporting into `counters`.
    pub fn new(inner: &'p dyn ApiBackend, counters: Arc<SchedCounters>) -> Self {
        FetchScheduler {
            inner,
            state: Mutex::new(Inner::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            counters,
            inflight_gauge: AtomicU64::new(0),
        }
    }

    /// The shared counters handle.
    pub fn counters(&self) -> &Arc<SchedCounters> {
        &self.counters
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<'p>> {
        // Poison can only mean a consumer panicked between state
        // transitions it had not begun; the maps are still coherent.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Marks the scheduler closed and wakes every parked thread.
    /// Prefetchers finish the call they are on, then exit; keys still
    /// queued are never fetched (a consumer that asks for one fetches it
    /// inline).
    pub fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
        self.done.notify_all();
    }

    /// Body of one prefetcher thread: pop a key, fetch it, buffer the
    /// result, repeat until closed. Run this on [`InflightPolicy::depth`]
    /// threads.
    pub fn run_prefetcher(&self) {
        loop {
            let key = {
                let mut inner = self.lock();
                loop {
                    if inner.closed {
                        return;
                    }
                    if let Some(key) = inner.queue.pop_front() {
                        inner.queued.remove(&key);
                        inner.slots.insert(key, SlotState::InFlight);
                        break key;
                    }
                    inner = self.work.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.counters.prefetched.fetch_add(1, Ordering::Relaxed);
            let depth = self.inflight_gauge.fetch_add(1, Ordering::Relaxed) + 1;
            self.counters
                .peak_inflight
                .fetch_max(depth, Ordering::Relaxed);
            let result = match key {
                FetchKey::Timeline(u) => SlotState::Timeline(self.inner.fetch_timeline(u)),
                FetchKey::Connections(u) => SlotState::Connections(self.inner.fetch_connections(u)),
            };
            self.inflight_gauge.fetch_sub(1, Ordering::Relaxed);
            let mut inner = self.lock();
            inner.slots.insert(key, result);
            drop(inner);
            self.done.notify_all();
        }
    }

    /// Resolves one consumer request: buffered → hand out and clear the
    /// slot; in flight → wait for it; queued → claim it back and fetch
    /// inline; unknown → fetch inline. Exactly one backend call happens
    /// per resolution path, so the fault schedule sees the same attempt
    /// sequence a sequential run would produce.
    fn resolve(&self, key: FetchKey) -> Option<SlotState<'p>> {
        let mut inner = self.lock();
        let mut waited = false;
        loop {
            match inner.slots.get(&key) {
                Some(SlotState::InFlight) => {
                    waited = true;
                    inner = self.done.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
                Some(_) => {
                    let slot = inner.slots.remove(&key);
                    drop(inner);
                    self.done.notify_all();
                    let counter = if waited {
                        &self.counters.waits
                    } else {
                        &self.counters.hits
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    return slot;
                }
                None => {
                    if inner.queued.remove(&key) {
                        // Claim: the consumer got here before any
                        // prefetcher; take the key off the queue and
                        // fetch it inline like an unannounced request.
                        inner.queue.retain(|k| *k != key);
                        self.counters.claimed.fetch_add(1, Ordering::Relaxed);
                    }
                    return None;
                }
            }
        }
    }
}

impl PrefetchSink for FetchScheduler<'_> {
    fn announce(&self, keys: &[FetchKey]) -> usize {
        let mut inner = self.lock();
        if inner.closed {
            return 0;
        }
        let mut added = 0usize;
        for &key in keys {
            if inner.queued.contains(&key) || inner.slots.contains_key(&key) {
                continue;
            }
            inner.queue.push_back(key);
            inner.queued.insert(key);
            added += 1;
        }
        drop(inner);
        if added > 0 {
            self.counters
                .announced
                .fetch_add(added as u64, Ordering::Relaxed);
            // One parked prefetcher per new key; a busy one pops what is
            // left when its call lands.
            for _ in 0..added {
                self.work.notify_one();
            }
        }
        added
    }

    fn drain(&self) -> usize {
        let mut inner = self.lock();
        while !inner.closed && (!inner.queue.is_empty() || inner.inflight() > 0) {
            inner = self.done.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        inner.slots.len() - inner.inflight()
    }

    fn reset(&self) -> Vec<FetchKey> {
        // A queued key never reached the backend, so there is nothing to
        // roll back: drop the queue first, so no prefetcher takes a new
        // key while the calls in flight land. Those must land before the
        // buffers are read, so every speculative backend attempt is
        // visible (and therefore reversible) at reset time.
        let mut inner = self.lock();
        inner.queue.clear();
        inner.queued.clear();
        while inner.inflight() > 0 {
            inner = self.done.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        let mut stranded: Vec<FetchKey> = inner.slots.drain().map(|(k, _)| k).collect();
        drop(inner);
        stranded.sort_unstable();
        self.counters
            .stranded
            .fetch_add(stranded.len() as u64, Ordering::Relaxed);
        stranded
    }
}

impl ApiBackend for FetchScheduler<'_> {
    fn store(&self) -> &Platform {
        self.inner.store()
    }

    fn fetch_search(&self, kw: KeywordId, window: TimeWindow) -> Result<Vec<PostId>, Fault> {
        self.inner.fetch_search(kw, window)
    }

    fn fetch_timeline(&self, u: UserId) -> Result<&[PostId], Fault> {
        match self.resolve(FetchKey::Timeline(u)) {
            Some(SlotState::Timeline(result)) => result,
            _ => self.inner.fetch_timeline(u),
        }
    }

    fn fetch_connections(&self, u: UserId) -> Result<(&[u32], &[u32]), Fault> {
        match self.resolve(FetchKey::Connections(u)) {
            Some(SlotState::Connections(result)) => result,
            _ => self.inner.fetch_connections(u),
        }
    }
}

/// Closes a scheduler on drop, so prefetcher threads always get their
/// shutdown signal — even when a panic (e.g. an injected crash) unwinds
/// the owning scope before the normal close.
#[derive(Debug)]
pub struct SchedCloseGuard<'s, 'p>(pub &'s FetchScheduler<'p>);

impl Drop for SchedCloseGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_platform::scenario::{twitter_2013, Scale};
    use microblog_platform::{FaultPlan, FaultyPlatform, SlowBackend};

    fn with_sched<R>(
        backend: &dyn ApiBackend,
        depth: usize,
        body: impl FnOnce(&FetchScheduler<'_>) -> R,
    ) -> R {
        let sched = FetchScheduler::new(backend, Arc::new(SchedCounters::default()));
        std::thread::scope(|scope| {
            let _guard = SchedCloseGuard(&sched);
            for _ in 0..depth {
                scope.spawn(|| sched.run_prefetcher());
            }
            body(&sched)
        })
    }

    /// A backend whose every timeline or connections call records its
    /// key, then blocks until the test opens the gate.
    #[derive(Debug)]
    struct Gated {
        platform: Platform,
        /// The keys called so far, and whether the gate is open.
        state: Mutex<(Vec<FetchKey>, bool)>,
        changed: Condvar,
    }

    impl Gated {
        fn new(platform: Platform) -> Self {
            Gated {
                platform,
                state: Mutex::new((Vec::new(), false)),
                changed: Condvar::new(),
            }
        }

        fn pass(&self, key: FetchKey) {
            let mut state = self.state.lock().unwrap();
            state.0.push(key);
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }

        fn calls(&self) -> Vec<FetchKey> {
            self.state.lock().unwrap().0.clone()
        }

        /// Waits until `ready` holds, re-checking at least every 10 ms
        /// for about 5 s; returns whether it held.
        fn wait_for(&self, ready: impl Fn(&[FetchKey]) -> bool) -> bool {
            let mut state = self.state.lock().unwrap();
            for _ in 0..500 {
                if ready(&state.0) {
                    return true;
                }
                let tick = std::time::Duration::from_millis(10);
                state = self.changed.wait_timeout(state, tick).unwrap().0;
            }
            ready(&state.0)
        }
    }

    impl ApiBackend for Gated {
        fn store(&self) -> &Platform {
            &self.platform
        }
        fn fetch_search(&self, kw: KeywordId, window: TimeWindow) -> Result<Vec<PostId>, Fault> {
            self.platform.fetch_search(kw, window)
        }
        fn fetch_timeline(&self, u: UserId) -> Result<&[PostId], Fault> {
            self.pass(FetchKey::Timeline(u));
            self.platform.fetch_timeline(u)
        }
        fn fetch_connections(&self, u: UserId) -> Result<(&[u32], &[u32]), Fault> {
            self.pass(FetchKey::Connections(u));
            self.platform.fetch_connections(u)
        }
    }

    fn three_timelines() -> Vec<FetchKey> {
        (0..3).map(|i| FetchKey::Timeline(UserId(i))).collect()
    }

    #[test]
    fn reset_drops_queued_keys_without_fetching_them() {
        let gated = Gated::new(twitter_2013(Scale::Tiny, 9).platform);
        let keys = three_timelines();
        let (emptied, stranded) = with_sched(&gated, 1, |sched| {
            assert_eq!(sched.announce(&keys), 3);
            // The one prefetcher holds the first key at the gate.
            assert!(gated.wait_for(|calls| calls.len() == 1));
            std::thread::scope(|scope| {
                let reset = scope.spawn(|| sched.reset());
                let emptied = gated.wait_for(|_| sched.lock().queue.is_empty());
                gated.open();
                (emptied, reset.join().expect("reset thread"))
            })
        });
        assert!(emptied, "reset left the queued keys to the prefetcher");
        assert_eq!(stranded, vec![keys[0]], "only the fetched key strands");
        assert_eq!(gated.calls(), vec![keys[0]]);
    }

    #[test]
    fn closed_prefetchers_fetch_nothing_more() {
        let gated = Gated::new(twitter_2013(Scale::Tiny, 9).platform);
        let keys = three_timelines();
        with_sched(&gated, 1, |sched| {
            sched.announce(&keys);
            assert!(gated.wait_for(|calls| calls.len() == 1));
            sched.close();
            gated.open();
        });
        // The scope joined the prefetcher: it finished its call and left
        // the other two keys queued.
        assert_eq!(gated.calls(), vec![keys[0]]);
    }

    #[test]
    fn prefetched_results_match_direct_fetches() {
        let s = twitter_2013(Scale::Tiny, 3);
        let platform = s.platform;
        with_sched(&platform, 4, |sched| {
            let keys: Vec<FetchKey> = (0..10)
                .map(|i| FetchKey::Timeline(UserId(i)))
                .chain((0..10).map(|i| FetchKey::Connections(UserId(i))))
                .collect();
            assert_eq!(sched.announce(&keys), 20);
            assert_eq!(sched.announce(&keys), 0, "re-announce is a no-op");
            for i in 0..10u32 {
                let u = UserId(i);
                assert_eq!(sched.fetch_timeline(u).unwrap(), platform.timeline(u));
                let (fols, fees) = sched.fetch_connections(u).unwrap();
                assert_eq!(fols, platform.followers(u));
                assert_eq!(fees, platform.followees(u));
            }
            let stats = sched.counters().snapshot();
            assert_eq!(stats.announced, 20);
            assert_eq!(stats.hits + stats.waits + stats.claimed, 20);
            assert!(sched.reset().is_empty());
        });
    }

    #[test]
    fn unannounced_fetches_pass_through() {
        let s = twitter_2013(Scale::Tiny, 4);
        let platform = s.platform;
        with_sched(&platform, 2, |sched| {
            let u = UserId(5);
            assert_eq!(sched.fetch_timeline(u).unwrap(), platform.timeline(u));
            let stats = sched.counters().snapshot();
            assert_eq!(stats.hits + stats.waits + stats.claimed, 0);
            assert_eq!(stats.prefetched, 0);
        });
    }

    #[test]
    fn overlap_runs_the_full_depth() {
        let s = twitter_2013(Scale::Tiny, 5);
        let slow = SlowBackend::new(Arc::new(s.platform), 15);
        with_sched(&slow, 8, |sched| {
            let keys: Vec<FetchKey> = (0..8).map(|i| FetchKey::Timeline(UserId(i))).collect();
            sched.announce(&keys);
            for i in 0..8u32 {
                sched.fetch_timeline(UserId(i)).unwrap();
            }
        });
        assert!(
            slow.peak_inflight() >= 4,
            "8 announced keys over 8 prefetchers should overlap, peak={}",
            slow.peak_inflight()
        );
    }

    #[test]
    fn reset_reports_stranded_keys_sorted_and_rollback_restores_schedule() {
        let s = twitter_2013(Scale::Tiny, 6);
        let platform = Arc::new(s.platform);
        let plan = FaultPlan::transient(11, 0.5);
        // Reference: the fault outcome of the *first* attempt per key.
        let reference: Vec<bool> = {
            let faulty = FaultyPlatform::new(Arc::clone(&platform), plan);
            (0..6u32)
                .map(|i| faulty.fetch_timeline(UserId(i)).is_err())
                .collect()
        };
        let faulty = FaultyPlatform::new(Arc::clone(&platform), plan);
        let stranded = with_sched(&faulty, 3, |sched| {
            let keys: Vec<FetchKey> = (5..=5)
                .chain(0..3)
                .map(|i| FetchKey::Timeline(UserId(i)))
                .collect();
            sched.announce(&keys);
            sched.drain();
            sched.reset()
        });
        assert_eq!(
            stranded,
            vec![
                FetchKey::Timeline(UserId(0)),
                FetchKey::Timeline(UserId(1)),
                FetchKey::Timeline(UserId(2)),
                FetchKey::Timeline(UserId(5)),
            ]
        );
        for key in &stranded {
            faulty.forget_attempt(key.endpoint(), key.fault_key());
        }
        // With the speculative attempts rolled back, each key's next
        // fetch replays its first-attempt fault outcome exactly.
        for (i, &first_faulted) in reference.iter().enumerate().take(6) {
            let got = faulty.fetch_timeline(UserId(i as u32)).is_err();
            assert_eq!(got, first_faulted, "user {i} fault schedule shifted");
        }
    }

    #[test]
    fn buffered_faults_are_handed_out_once_then_retries_pass_through() {
        let s = twitter_2013(Scale::Tiny, 7);
        let platform = Arc::new(s.platform);
        // Fault every first attempt; the cap forces attempt 2 to succeed.
        let plan = FaultPlan::transient(1, 1.0).with_max_consecutive(1);
        let faulty = FaultyPlatform::new(platform, plan);
        with_sched(&faulty, 2, |sched| {
            let u = UserId(2);
            sched.announce(&[FetchKey::Timeline(u)]);
            sched.drain();
            assert!(sched.fetch_timeline(u).is_err(), "buffered fault");
            assert!(sched.fetch_timeline(u).is_ok(), "retry passes through");
        });
    }

    #[test]
    fn drain_waits_out_the_queue() {
        let s = twitter_2013(Scale::Tiny, 8);
        let slow = SlowBackend::new(Arc::new(s.platform), 5);
        with_sched(&slow, 2, |sched| {
            let keys: Vec<FetchKey> = (0..6).map(|i| FetchKey::Connections(UserId(i))).collect();
            sched.announce(&keys);
            assert_eq!(sched.drain(), 6, "all buffered, none consumed");
            assert_eq!(slow.calls(), 6);
        });
    }

    #[test]
    fn inflight_policy_depths() {
        assert_eq!(InflightPolicy::Serial.depth(), 1);
        assert_eq!(InflightPolicy::Fixed(0).depth(), 1);
        assert_eq!(InflightPolicy::Fixed(7).depth(), 7);
        assert_eq!(
            InflightPolicy::Window {
                per_window: 180,
                cap: 32
            }
            .depth(),
            32
        );
        assert_eq!(
            InflightPolicy::Window {
                per_window: 4,
                cap: 32
            }
            .depth(),
            4
        );
        assert_eq!(InflightPolicy::default().depth(), 16);
    }
}
