//! The platform boundary: the `ApiBackend` the benchmark hands the
//! service. Every call the program makes to the platform crosses it —
//! retries and speculative prefetches included — so its counts are the
//! real API traffic, whatever the program's own counters say.

use microblog_api::ApiProfile;
use microblog_platform::{ApiBackend, Fault, KeywordId, Platform, PostId, TimeWindow, UserId};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One fetch request, as recorded for the fetch-stack replay.
#[derive(Clone, Copy, Debug)]
pub enum Key {
    Search(KeywordId, TimeWindow),
    Timeline(UserId),
    Connections(UserId),
}

/// One traced boundary call, in nanoseconds since the boundary's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    /// Time the platform store spent serving the call (the simulated
    /// RTT excluded).
    pub store: u64,
}

/// Call totals, in API calls as the paper prices them: a fetch costs one
/// call per result page, a faulted fetch one call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub search: u64,
    pub timeline: u64,
    pub connections: u64,
    pub faults: u64,
    pub peak_inflight: u64,
}

impl Counts {
    pub fn calls(&self) -> u64 {
        self.search + self.timeline + self.connections
    }

    pub fn absorb(&mut self, other: Counts) {
        self.search += other.search;
        self.timeline += other.timeline;
        self.connections += other.connections;
        self.faults += other.faults;
        self.peak_inflight = self.peak_inflight.max(other.peak_inflight);
    }
}

pub struct Boundary {
    inner: Arc<dyn ApiBackend>,
    api: ApiProfile,
    /// The inner backend stalls every call by a simulated RTT, so the
    /// store time is measured separately from the span.
    rtt: bool,
    search: AtomicU64,
    timeline: AtomicU64,
    connections: AtomicU64,
    faults: AtomicU64,
    inflight: AtomicU64,
    peak: AtomicU64,
    busy: AtomicU64,
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
    keys: Option<Mutex<Vec<Key>>>,
}

impl std::fmt::Debug for Boundary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Boundary")
            .field("counts", &self.counts())
            .finish_non_exhaustive()
    }
}

impl Boundary {
    /// A counting boundary over `inner`; `rtt` marks an inner backend
    /// that stalls each call.
    pub fn new(inner: Arc<dyn ApiBackend>, rtt: bool) -> Boundary {
        Boundary {
            inner,
            api: ApiProfile::twitter(),
            rtt,
            search: AtomicU64::new(0),
            timeline: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            epoch: Instant::now(),
            spans: None,
            keys: None,
        }
    }

    /// Also records a span per call.
    pub fn traced(mut self) -> Boundary {
        self.spans = Some(Mutex::new(Vec::new()));
        self
    }

    /// Also records every call's key.
    pub fn recording(mut self) -> Boundary {
        self.keys = Some(Mutex::new(Vec::new()));
        self
    }

    pub fn counts(&self) -> Counts {
        Counts {
            search: self.search.load(Relaxed),
            timeline: self.timeline.load(Relaxed),
            connections: self.connections.load(Relaxed),
            faults: self.faults.load(Relaxed),
            peak_inflight: self.peak.load(Relaxed),
        }
    }

    /// Calls open right now.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Relaxed)
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The spans recorded so far (empty unless traced).
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span log lock").clone())
            .unwrap_or_default()
    }

    /// Summed span time so far, in nanoseconds (0 unless traced).
    pub fn busy_ns(&self) -> u64 {
        self.busy.load(Relaxed)
    }

    /// The recorded keys (empty unless recording).
    pub fn keys(&self) -> Vec<Key> {
        self.keys
            .as_ref()
            .map(|k| k.lock().expect("key log lock").clone())
            .unwrap_or_default()
    }

    fn record_key(&self, key: Key) {
        if let Some(keys) = &self.keys {
            keys.lock().expect("key log lock").push(key);
        }
    }

    /// Brackets one fetch: in-flight gauge, span, fault count, and the
    /// call's price (`price` maps a successful result to API calls).
    fn call<T>(
        &self,
        counter: &AtomicU64,
        fetch: impl FnOnce() -> Result<T, Fault>,
        price: impl FnOnce(&T) -> u64,
        store: impl FnOnce(),
    ) -> Result<T, Fault> {
        let depth = self.inflight.fetch_add(1, Relaxed) + 1;
        self.peak.fetch_max(depth, Relaxed);
        let start = self.spans.as_ref().map(|_| Instant::now());
        let result = fetch();
        self.inflight.fetch_sub(1, Relaxed);
        match &result {
            Ok(data) => counter.fetch_add(price(data), Relaxed),
            Err(_) => {
                self.faults.fetch_add(1, Relaxed);
                counter.fetch_add(1, Relaxed)
            }
        };
        if let (Some(spans), Some(start)) = (&self.spans, start) {
            let end = Instant::now();
            let store_ns = if self.rtt {
                // The store part of an RTT-stalled call cannot be split
                // off its span, so serve the same request again untimed
                // by the stall.
                let t = Instant::now();
                store();
                t.elapsed().as_nanos() as u64
            } else {
                end.duration_since(start).as_nanos() as u64
            };
            let span = Span {
                start: self.now_ns(start),
                end: self.now_ns(end),
                store: store_ns,
            };
            self.busy.fetch_add(span.end - span.start, Relaxed);
            spans.lock().expect("span log lock").push(span);
        }
        result
    }
}

impl ApiBackend for Boundary {
    fn store(&self) -> &Platform {
        self.inner.store()
    }

    fn fetch_search(&self, kw: KeywordId, window: TimeWindow) -> Result<Vec<PostId>, Fault> {
        self.record_key(Key::Search(kw, window));
        let api = &self.api;
        self.call(
            &self.search,
            || self.inner.fetch_search(kw, window),
            |ids| {
                let served = api.search_cap.map_or(ids.len(), |cap| ids.len().min(cap));
                ApiProfile::calls_for(served, api.search_page)
            },
            || {
                black_box(self.inner.store().search_posts(kw, window));
            },
        )
    }

    fn fetch_timeline(&self, u: UserId) -> Result<&[PostId], Fault> {
        self.record_key(Key::Timeline(u));
        let api = &self.api;
        self.call(
            &self.timeline,
            || self.inner.fetch_timeline(u),
            |posts| {
                let served = api
                    .timeline_cap
                    .map_or(posts.len(), |cap| posts.len().min(cap));
                ApiProfile::calls_for(served, api.timeline_page)
            },
            || {
                black_box(self.inner.store().timeline(u));
            },
        )
    }

    fn fetch_connections(&self, u: UserId) -> Result<(&[u32], &[u32]), Fault> {
        self.record_key(Key::Connections(u));
        let api = &self.api;
        self.call(
            &self.connections,
            || self.inner.fetch_connections(u),
            |(followers, followees)| {
                if api.asymmetric {
                    ApiProfile::calls_for(followers.len(), api.connections_page)
                        + ApiProfile::calls_for(followees.len(), api.connections_page)
                } else {
                    ApiProfile::calls_for(followers.len() + followees.len(), api.connections_page)
                }
            },
            || {
                let store = self.inner.store();
                black_box((store.followers(u), store.followees(u)));
            },
        )
    }
}

/// Merges spans into disjoint busy intervals, sorted by start.
pub fn union(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    sorted.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (start, end) in sorted {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Nanoseconds of `[from, to)` covered by the merged `intervals`.
pub fn covered(intervals: &[(u64, u64)], from: u64, to: u64) -> u64 {
    let first = intervals.partition_point(|&(_, end)| end <= from);
    intervals[first..]
        .iter()
        .take_while(|&&(start, _)| start < to)
        .map(|&(start, end)| end.min(to).saturating_sub(start.max(from)))
        .sum()
}
