//! The three-query microblog client, plus a memoizing wrapper.
//!
//! [`MicroblogClient`] is the *only* window the analyzer has onto a
//! [`Platform`]: SEARCH, USER CONNECTIONS and USER TIMELINE, exactly as in
//! §2 of the paper. Every request is charged to the cost meter and the
//! shared budget *before* being served, with pagination translated into
//! call counts per the platform's [`ApiProfile`].
//!
//! [`CachingClient`] memoizes responses so that revisiting a node during a
//! random walk does not re-issue (and re-pay for) the same API calls —
//! the standard practice in the crawling literature the paper builds on.

use crate::budget::QueryBudget;
use crate::cache::{CacheLayer, CacheStats, Cached, CostReport, Flight};
use crate::error::ApiError;
use crate::meter::CostMeter;
use crate::profile::ApiProfile;
use crate::resilient::{ResilienceStats, ResilientClient};
use crate::sched::{FetchKey, PrefetchSink};
use microblog_obs::{EventName, FieldValue, Tracer};
use microblog_platform::metric::MetricInputs;
use microblog_platform::{
    ApiBackend, ApiEndpoint, Fault, KeywordId, Platform, Post, PostId, TimeWindow, Timestamp,
    UserId, UserProfile,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The serializable cache/accounting state of a [`CachingClient`],
/// captured into walker checkpoints and rebuilt on crash recovery.
///
/// Memoized *responses* are not stored — only the keys. Restore
/// re-fetches each key from the pristine platform at zero charge (the
/// data is deterministic) and then overwrites the accounting so the
/// restored client reports exactly what the checkpointed one did.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientState {
    /// Keywords with a memoized SEARCH response, sorted.
    pub searches: Vec<KeywordId>,
    /// Users with a memoized TIMELINE response, sorted.
    pub timelines: Vec<UserId>,
    /// Users with a memoized CONNECTIONS response, sorted.
    pub connections: Vec<UserId>,
    /// Cache hit/miss accounting at capture time.
    pub stats: CacheStats,
    /// Per-endpoint charged calls at capture time.
    pub meter: CostMeter,
    /// Budget spend at capture time.
    pub charged: u64,
}

/// Trace-field spelling of an endpoint; shared by charge, cache and
/// resilience events so summaries group on one vocabulary.
pub(crate) fn endpoint_name(endpoint: ApiEndpoint) -> &'static str {
    match endpoint {
        ApiEndpoint::Search => "search",
        ApiEndpoint::Timeline => "timeline",
        ApiEndpoint::Connections => "connections",
    }
}

/// One SEARCH result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchHit {
    /// Matching post id.
    pub post_id: PostId,
    /// Its author — the "seed user" source for the walks.
    pub author: UserId,
    /// Publication time.
    pub time: Timestamp,
}

/// Everything a USER TIMELINE query reveals about a user.
#[derive(Clone, Debug)]
pub struct UserView {
    /// The user.
    pub user: UserId,
    /// Profile (returned together with the timeline, per §2).
    pub profile: UserProfile,
    /// Follower count as displayed on the profile.
    pub follower_count: usize,
    /// Followee count as displayed on the profile.
    pub followee_count: usize,
    /// Visible posts, most recent first; truncated at the platform's
    /// timeline cap.
    pub posts: Vec<Post>,
    /// Whether the cap hid older posts (the paper's 3 200-tweet caveat).
    pub truncated: bool,
}

impl UserView {
    /// Metric-evaluation inputs backed by this view.
    pub fn metric_inputs(&self) -> MetricInputs<'_> {
        MetricInputs {
            profile: &self.profile,
            follower_count: self.follower_count,
            followee_count: self.followee_count,
            posts: &self.posts,
        }
    }

    /// Time of the first visible post mentioning `kw` inside `window` —
    /// the quantity that assigns the user to a level (§4.2.1).
    pub fn first_mention(&self, kw: KeywordId, window: TimeWindow) -> Option<Timestamp> {
        self.posts
            .iter()
            .rev() // oldest visible first
            .find(|p| p.mentions(kw) && window.contains(p.time))
            .map(|p| p.time)
    }
}

/// The rate-limited client.
///
/// Fetches go through an [`ApiBackend`] — the pristine [`Platform`] or a
/// fault-injecting wrapper — so the same client code runs against both.
#[derive(Clone, Debug)]
pub struct MicroblogClient<'a> {
    backend: &'a dyn ApiBackend,
    profile: ApiProfile,
    pub(crate) meter: CostMeter,
    pub(crate) budget: QueryBudget,
    pub(crate) tracer: Tracer,
}

impl<'a> MicroblogClient<'a> {
    /// A client with an unlimited budget.
    pub fn new(platform: &'a Platform, profile: ApiProfile) -> Self {
        Self::with_budget(platform, profile, QueryBudget::unlimited())
    }

    /// A client charging the given (possibly shared) budget.
    pub fn with_budget(platform: &'a Platform, profile: ApiProfile, budget: QueryBudget) -> Self {
        Self::from_backend(platform, profile, budget)
    }

    /// A client over an arbitrary backend (e.g. a
    /// [`microblog_platform::FaultyPlatform`]).
    pub fn from_backend(
        backend: &'a dyn ApiBackend,
        profile: ApiProfile,
        budget: QueryBudget,
    ) -> Self {
        MicroblogClient {
            backend,
            profile,
            meter: CostMeter::new(),
            budget,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer; charge events flow into it from here on.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer charge events are recorded on (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records a budget charge as a trace event, attributed to the
    /// ambient walk phase. `source` is `"fresh"` for real platform
    /// fetches and `"shared"` for logically-charged shared-cache hits.
    pub(crate) fn trace_charge(&self, endpoint: ApiEndpoint, calls: u64, source: &'static str) {
        if self.tracer.is_enabled() {
            self.tracer.emit(
                EventName::CHARGE,
                &[
                    ("endpoint", FieldValue::from(endpoint_name(endpoint))),
                    ("calls", FieldValue::U64(calls)),
                    ("source", FieldValue::from(source)),
                ],
            );
        }
    }

    /// The API profile in force.
    pub fn api_profile(&self) -> &ApiProfile {
        &self.profile
    }

    /// Per-endpoint call counts so far.
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// The shared budget handle.
    pub fn budget(&self) -> &QueryBudget {
        &self.budget
    }

    /// The platform clock (public knowledge: "today").
    pub fn now(&self) -> Timestamp {
        self.backend.store().now()
    }

    /// Maps an injected backend fault to its API-level error, pricing the
    /// calls a truncated fetch burned before failing.
    fn fault_error(&self, endpoint: ApiEndpoint, fault: Fault, page: usize) -> ApiError {
        match fault {
            Fault::Transient => ApiError::Transient { endpoint },
            Fault::RateLimited { retry_after } => ApiError::RateLimited {
                endpoint,
                retry_after,
            },
            Fault::Timeout { latency } => ApiError::Timeout { endpoint, latency },
            Fault::Truncated { served } => ApiError::TruncatedPage {
                endpoint,
                served_calls: ApiProfile::calls_for(served, page),
            },
        }
    }

    /// SEARCH: posts mentioning `kw` within the trailing search window,
    /// most recent first, truncated at the platform's search cap.
    ///
    /// A faulted fetch fails *before* charging the budget or meter: spend
    /// that bought no data is waste, accounted by the resilience layer.
    pub fn search(&mut self, kw: KeywordId) -> Result<Vec<SearchHit>, ApiError> {
        let store = self.backend.store();
        let window = TimeWindow::trailing(store.now(), self.profile.search_window);
        let mut ids = self
            .backend
            .fetch_search(kw, window)
            .map_err(|f| self.fault_error(ApiEndpoint::Search, f, self.profile.search_page))?;
        if let Some(cap) = self.profile.search_cap {
            ids.truncate(cap);
        }
        let calls = ApiProfile::calls_for(ids.len(), self.profile.search_page);
        self.budget.charge(calls)?;
        self.meter.search += calls;
        self.trace_charge(ApiEndpoint::Search, calls, "fresh");
        Ok(ids
            .into_iter()
            .map(|pid| {
                let p = store.post(pid);
                SearchHit {
                    post_id: pid,
                    author: p.author,
                    time: p.time,
                }
            })
            .collect())
    }

    /// USER TIMELINE: profile plus visible posts (most recent first, capped).
    pub fn user_timeline(&mut self, u: UserId) -> Result<UserView, ApiError> {
        self.check_user(u)?;
        let all = self
            .backend
            .fetch_timeline(u)
            .map_err(|f| self.fault_error(ApiEndpoint::Timeline, f, self.profile.timeline_page))?;
        let store = self.backend.store();
        let visible = match self.profile.timeline_cap {
            Some(cap) => &all[..all.len().min(cap)], // ma-lint: allow(panic-safety) reason="slice end is len().min(cap), never past the end"
            None => all,
        };
        let calls = ApiProfile::calls_for(visible.len(), self.profile.timeline_page);
        self.budget.charge(calls)?;
        self.meter.timeline += calls;
        self.trace_charge(ApiEndpoint::Timeline, calls, "fresh");
        Ok(UserView {
            user: u,
            profile: store.profile(u).clone(),
            follower_count: store.followers(u).len(),
            followee_count: store.followees(u).len(),
            posts: visible.iter().map(|&pid| store.post(pid).clone()).collect(),
            truncated: visible.len() < all.len(),
        })
    }

    /// USER CONNECTIONS: the undirected social-graph neighbors of `u`
    /// (union of both directions on asymmetric platforms, which costs two
    /// paginated fetch sequences — §3.2).
    pub fn connections(&mut self, u: UserId) -> Result<Vec<UserId>, ApiError> {
        self.check_user(u)?;
        let (followers, followees) = self.backend.fetch_connections(u).map_err(|f| {
            self.fault_error(ApiEndpoint::Connections, f, self.profile.connections_page)
        })?;
        let calls = if self.profile.asymmetric {
            ApiProfile::calls_for(followers.len(), self.profile.connections_page)
                + ApiProfile::calls_for(followees.len(), self.profile.connections_page)
        } else {
            ApiProfile::calls_for(
                followers.len() + followees.len(),
                self.profile.connections_page,
            )
        };
        self.budget.charge(calls)?;
        self.meter.connections += calls;
        self.trace_charge(ApiEndpoint::Connections, calls, "fresh");
        // Merge the two sorted lists into the undirected neighbor set.
        let mut merged = Vec::with_capacity(followers.len() + followees.len());
        let (mut i, mut j) = (0, 0);
        while i < followers.len() || j < followees.len() {
            let next = match (followers.get(i), followees.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                    a
                }
                (Some(&a), Some(&b)) if a < b => {
                    i += 1;
                    a
                }
                (Some(_), Some(&b)) => {
                    j += 1;
                    b
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => unreachable!("loop condition"), // ma-lint: allow(panic-safety) reason="loop guard ensures at least one side still has items"
            };
            merged.push(UserId(next));
        }
        Ok(merged)
    }

    fn check_user(&self, u: UserId) -> Result<(), ApiError> {
        if u.index() < self.backend.store().user_count() {
            Ok(())
        } else {
            Err(ApiError::UnknownUser(u))
        }
    }
}

/// A memoizing wrapper: repeated requests for the same user or keyword are
/// served from the query's own memo at zero cost. Optionally layered over
/// a shared cross-query [`CacheLayer`]; shared hits skip the platform
/// fetch but still charge the budget and meter what the fetch would have
/// cost, so runs stay reproducible (see [`crate::cache`] for why).
///
/// The stack under the memo is a [`ResilientClient`], so misses are
/// retried per the client's [`crate::resilient::RetryPolicy`] before a
/// failure surfaces here. **Only successful responses are memoized or
/// published to the shared layer** — a failed fetch can never poison a
/// cache.
#[derive(Clone)]
pub struct CachingClient<'a> {
    inner: ResilientClient<'a>,
    timelines: HashMap<UserId, Arc<UserView>>,
    connections: HashMap<UserId, Arc<Vec<UserId>>>,
    searches: HashMap<KeywordId, Arc<Vec<SearchHit>>>,
    shared: Option<Arc<dyn CacheLayer>>,
    prefetch: Option<&'a dyn PrefetchSink>,
    stats: CacheStats,
    /// The last [`CachingClient::checkpoint_state`] capture; the next
    /// capture reuses its sorted key list for every memo that did not
    /// grow.
    captured: ClientState,
}

impl std::fmt::Debug for CachingClient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingClient")
            .field("inner", &self.inner)
            .field("shared", &self.shared.is_some())
            .field("prefetch", &self.prefetch.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'a> CachingClient<'a> {
    /// Wraps a client with no shared layer and no retries (a retryable
    /// failure on the first attempt surfaces immediately).
    pub fn new(inner: MicroblogClient<'a>) -> Self {
        Self::resilient(ResilientClient::passthrough(inner), None)
    }

    /// Wraps a client over a shared cross-query cache. The layer must be
    /// dedicated to this client's platform and API profile.
    pub fn with_shared(inner: MicroblogClient<'a>, shared: Arc<dyn CacheLayer>) -> Self {
        Self::resilient(ResilientClient::passthrough(inner), Some(shared))
    }

    /// Wraps a retrying client, optionally over a shared cache — the full
    /// production stack: memo → shared cache → retries → API.
    pub fn resilient(inner: ResilientClient<'a>, shared: Option<Arc<dyn CacheLayer>>) -> Self {
        CachingClient {
            inner,
            timelines: HashMap::new(),
            connections: HashMap::new(),
            searches: HashMap::new(),
            shared,
            prefetch: None,
            stats: CacheStats::default(),
            captured: ClientState::default(),
        }
    }

    /// Attaches a prefetch sink: [`CachingClient::announce_timelines`] /
    /// [`CachingClient::announce_connections`] forward upcoming fetch
    /// keys to it so a [`crate::sched::FetchScheduler`] can overlap the
    /// backend calls. Announcing changes *when* fetches happen, never
    /// whether — results still flow through the ordinary fetch path.
    pub fn with_prefetch(mut self, sink: &'a dyn PrefetchSink) -> Self {
        self.prefetch = Some(sink);
        self
    }

    /// The wrapped client (for meters/budget/profile access).
    pub fn client(&self) -> &MicroblogClient<'a> {
        self.inner.client()
    }

    /// The tracer attached to the underlying client; walkers publish
    /// their phase/level context through this handle.
    pub fn tracer(&self) -> &Tracer {
        self.inner.client().tracer()
    }

    /// Records a memo/shared-cache outcome as a trace event.
    fn trace_cache(&self, name: EventName, endpoint: ApiEndpoint) {
        let tracer = self.inner.client().tracer();
        if tracer.is_enabled() {
            tracer.emit(
                name,
                &[("endpoint", FieldValue::from(endpoint_name(endpoint)))],
            );
        }
    }

    /// Retry/backoff/breaker accounting of the resilient layer.
    pub fn resilience(&self) -> &ResilienceStats {
        self.inner.stats()
    }

    /// Total API calls charged so far.
    pub fn cost(&self) -> u64 {
        self.inner.client().meter().total()
    }

    /// Cache hit/miss accounting for this client.
    pub fn cache_stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Combined meter + cache report for this client.
    pub fn report(&self) -> CostReport {
        CostReport {
            meter: *self.inner.client().meter(),
            cache: self.stats,
        }
    }

    /// The platform clock.
    pub fn now(&self) -> Timestamp {
        self.inner.now()
    }

    /// Cached SEARCH.
    pub fn search(&mut self, kw: KeywordId) -> Result<Arc<Vec<SearchHit>>, ApiError> {
        if let Some(hit) = self.searches.get(&kw) {
            self.trace_cache(EventName::LOCAL_HIT, ApiEndpoint::Search);
            self.stats.local_hits += 1;
            return Ok(Arc::clone(hit));
        }
        let flight = match &self.shared {
            Some(layer) => layer.join_search(kw),
            None => Flight::Lead,
        };
        if let Flight::Ready(entry) = flight {
            self.trace_cache(EventName::SHARED_HIT, ApiEndpoint::Search);
            self.inner
                .absorb_shared_hit(ApiEndpoint::Search, entry.calls)?;
            self.stats.shared_hits += 1;
            self.stats.saved_calls += entry.calls;
            self.searches.insert(kw, Arc::clone(&entry.data));
            return Ok(entry.data);
        }
        self.trace_cache(EventName::MISS, ApiEndpoint::Search);
        let before = self.inner.client().meter().search;
        let fresh = match self.inner.search(kw) {
            Ok(hits) => Arc::new(hits),
            Err(e) => {
                // Release the flight so parked waiters re-elect a leader
                // instead of stalling on a fetch that will never publish.
                if let Some(layer) = &self.shared {
                    layer.abort_search(kw);
                }
                return Err(e);
            }
        };
        let calls = self.inner.client().meter().search - before;
        self.stats.misses += 1;
        self.stats.actual_calls += calls;
        if let Some(layer) = &self.shared {
            layer.put_search(
                kw,
                Cached {
                    data: Arc::clone(&fresh),
                    calls,
                },
            );
        }
        self.searches.insert(kw, Arc::clone(&fresh));
        Ok(fresh)
    }

    /// Cached USER TIMELINE.
    pub fn user_timeline(&mut self, u: UserId) -> Result<Arc<UserView>, ApiError> {
        if let Some(hit) = self.timelines.get(&u) {
            self.trace_cache(EventName::LOCAL_HIT, ApiEndpoint::Timeline);
            self.stats.local_hits += 1;
            return Ok(Arc::clone(hit));
        }
        let flight = match &self.shared {
            Some(layer) => layer.join_timeline(u),
            None => Flight::Lead,
        };
        if let Flight::Ready(entry) = flight {
            self.trace_cache(EventName::SHARED_HIT, ApiEndpoint::Timeline);
            self.inner
                .absorb_shared_hit(ApiEndpoint::Timeline, entry.calls)?;
            self.stats.shared_hits += 1;
            self.stats.saved_calls += entry.calls;
            self.timelines.insert(u, Arc::clone(&entry.data));
            return Ok(entry.data);
        }
        self.trace_cache(EventName::MISS, ApiEndpoint::Timeline);
        let before = self.inner.client().meter().timeline;
        let fresh = match self.inner.user_timeline(u) {
            Ok(view) => Arc::new(view),
            Err(e) => {
                if let Some(layer) = &self.shared {
                    layer.abort_timeline(u);
                }
                return Err(e);
            }
        };
        let calls = self.inner.client().meter().timeline - before;
        self.stats.misses += 1;
        self.stats.actual_calls += calls;
        if let Some(layer) = &self.shared {
            layer.put_timeline(
                u,
                Cached {
                    data: Arc::clone(&fresh),
                    calls,
                },
            );
        }
        self.timelines.insert(u, Arc::clone(&fresh));
        Ok(fresh)
    }

    /// Cached USER CONNECTIONS.
    pub fn connections(&mut self, u: UserId) -> Result<Arc<Vec<UserId>>, ApiError> {
        if let Some(hit) = self.connections.get(&u) {
            self.trace_cache(EventName::LOCAL_HIT, ApiEndpoint::Connections);
            self.stats.local_hits += 1;
            return Ok(Arc::clone(hit));
        }
        let flight = match &self.shared {
            Some(layer) => layer.join_connections(u),
            None => Flight::Lead,
        };
        if let Flight::Ready(entry) = flight {
            self.trace_cache(EventName::SHARED_HIT, ApiEndpoint::Connections);
            self.inner
                .absorb_shared_hit(ApiEndpoint::Connections, entry.calls)?;
            self.stats.shared_hits += 1;
            self.stats.saved_calls += entry.calls;
            self.connections.insert(u, Arc::clone(&entry.data));
            return Ok(entry.data);
        }
        self.trace_cache(EventName::MISS, ApiEndpoint::Connections);
        let before = self.inner.client().meter().connections;
        let fresh = match self.inner.connections(u) {
            Ok(merged) => Arc::new(merged),
            Err(e) => {
                if let Some(layer) = &self.shared {
                    layer.abort_connections(u);
                }
                return Err(e);
            }
        };
        let calls = self.inner.client().meter().connections - before;
        self.stats.misses += 1;
        self.stats.actual_calls += calls;
        if let Some(layer) = &self.shared {
            layer.put_connections(
                u,
                Cached {
                    data: Arc::clone(&fresh),
                    calls,
                },
            );
        }
        self.connections.insert(u, Arc::clone(&fresh));
        Ok(fresh)
    }

    /// Number of distinct users whose timeline was fetched.
    pub fn distinct_timelines(&self) -> usize {
        self.timelines.len()
    }

    /// Emits one deterministic `sched` event. The count fields are pure
    /// functions of the logical fetch history (memo-filtered key counts,
    /// buffered-result counts), never of scheduler thread timing, so
    /// traces stay byte-identical across runs and pipeline depths.
    fn trace_sched(&self, name: EventName, endpoint: Option<ApiEndpoint>, count: usize) {
        let tracer = self.inner.client().tracer();
        if tracer.is_enabled() {
            match endpoint {
                Some(e) => tracer.emit(
                    name,
                    &[
                        ("endpoint", FieldValue::from(endpoint_name(e))),
                        ("count", FieldValue::from(count)),
                    ],
                ),
                None => tracer.emit(name, &[("count", FieldValue::from(count))]),
            }
        }
    }

    /// Announces that the timelines of `users` are about to be needed.
    /// Users already memoized are skipped; with no sink attached this is
    /// a no-op, so callers can announce unconditionally.
    pub fn announce_timelines(&mut self, users: &[UserId]) {
        let Some(sink) = self.prefetch else { return };
        let keys: Vec<FetchKey> = users
            .iter()
            .filter(|u| !self.timelines.contains_key(u))
            .map(|&u| FetchKey::Timeline(u))
            .collect();
        if keys.is_empty() {
            return;
        }
        self.trace_sched(EventName::ANNOUNCE, Some(ApiEndpoint::Timeline), keys.len());
        sink.announce(&keys);
    }

    /// Announces that the connections of `users` are about to be needed.
    /// See [`CachingClient::announce_timelines`].
    pub fn announce_connections(&mut self, users: &[UserId]) {
        let Some(sink) = self.prefetch else { return };
        let keys: Vec<FetchKey> = users
            .iter()
            .filter(|u| !self.connections.contains_key(u))
            .map(|&u| FetchKey::Connections(u))
            .collect();
        if keys.is_empty() {
            return;
        }
        self.trace_sched(
            EventName::ANNOUNCE,
            Some(ApiEndpoint::Connections),
            keys.len(),
        );
        sink.announce(&keys);
    }

    /// Waits until no announced fetch is queued or in flight — the quiet
    /// point checkpoint capture requires, so a snapshot never races a
    /// half-done prefetch. Returns the number of completed-but-unconsumed
    /// buffered results. No-op (returning 0) without a sink.
    pub fn drain_prefetch(&mut self) -> usize {
        let Some(sink) = self.prefetch else { return 0 };
        let outstanding = sink.drain();
        self.trace_sched(EventName::DRAIN, None, outstanding);
        outstanding
    }

    /// Captures the memo keys and accounting for a walker checkpoint.
    ///
    /// A key list is collected and sorted again only when its memo grew
    /// since the previous capture: memos never shrink, so an unchanged
    /// length means an unchanged key set.
    pub fn checkpoint_state(&mut self) -> ClientState {
        let state = &mut self.captured;
        refresh_sorted(&mut state.searches, &self.searches);
        refresh_sorted(&mut state.timelines, &self.timelines);
        refresh_sorted(&mut state.connections, &self.connections);
        state.stats = self.stats;
        state.meter = *self.inner.client().meter();
        state.charged = self.inner.client().budget().spent();
        state.clone()
    }

    /// Installs a memoized SEARCH response without charging or touching
    /// the shared layer (checkpoint restore only).
    pub fn install_search(&mut self, kw: KeywordId, data: Arc<Vec<SearchHit>>) {
        self.searches.insert(kw, data);
    }

    /// Installs a memoized TIMELINE response without charging (restore).
    pub fn install_timeline(&mut self, u: UserId, data: Arc<UserView>) {
        self.timelines.insert(u, data);
    }

    /// Installs a memoized CONNECTIONS response without charging (restore).
    pub fn install_connections(&mut self, u: UserId, data: Arc<Vec<UserId>>) {
        self.connections.insert(u, data);
    }

    /// Overwrites the cache stats and cost meter so a restored client
    /// reports exactly the checkpointed accounting (the restore-time
    /// fetches that repopulated the memo were free and unmetered).
    pub fn restore_accounting(&mut self, stats: CacheStats, meter: CostMeter) {
        self.stats = stats;
        self.inner.client_mut().meter = meter;
    }
}

/// Replaces `sorted` with `memo`'s sorted keys when the lengths differ.
fn refresh_sorted<K: Copy + Ord, V>(sorted: &mut Vec<K>, memo: &HashMap<K, V>) {
    if sorted.len() != memo.len() {
        sorted.clear();
        sorted.extend(memo.keys().copied());
        sorted.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_platform::scenario::{twitter_2013, Scale};

    /// A fresh collect-and-sort capture: what `checkpoint_state` must
    /// equal whether or not it reused its sorted lists.
    fn collected(client: &CachingClient<'_>) -> ClientState {
        fn sorted<K: Copy + Ord, V>(memo: &HashMap<K, V>) -> Vec<K> {
            let mut keys: Vec<K> = memo.keys().copied().collect();
            keys.sort_unstable();
            keys
        }
        ClientState {
            searches: sorted(&client.searches),
            timelines: sorted(&client.timelines),
            connections: sorted(&client.connections),
            stats: client.stats,
            meter: *client.inner.client().meter(),
            charged: client.inner.client().budget().spent(),
        }
    }

    fn keys(state: &ClientState) -> (&[KeywordId], &[UserId], &[UserId]) {
        (&state.searches, &state.timelines, &state.connections)
    }

    #[test]
    fn checkpoint_state_equals_a_fresh_collect_and_sort() {
        let s = twitter_2013(Scale::Tiny, 3);
        let kw = s.keyword("privacy").expect("world has 'privacy'");
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let empty = client.checkpoint_state();
        assert_eq!(empty, collected(&client));

        // The memo grows between two captures, in descending id order so
        // the lists need sorting.
        client.search(kw).unwrap();
        for u in (0..12).rev().map(UserId) {
            client.user_timeline(u).unwrap();
            client.connections(u).unwrap();
        }
        let grown = client.checkpoint_state();
        assert_eq!(grown, collected(&client));
        assert_eq!(grown.timelines.len(), 12);

        // Memo hits change the accounting but not the key set: the lists
        // equal a fresh capture's and the previous capture's.
        client.user_timeline(UserId(3)).unwrap();
        client.connections(UserId(5)).unwrap();
        let unchanged = client.checkpoint_state();
        assert_eq!(unchanged, collected(&client));
        assert_eq!(keys(&unchanged), keys(&grown));
        assert_ne!(unchanged.stats, grown.stats, "the hits were counted");

        // One more key in one memo only.
        client.user_timeline(UserId(40)).unwrap();
        let regrown = client.checkpoint_state();
        assert_eq!(regrown, collected(&client));
        assert_eq!(regrown.timelines.len(), 13);
        assert_eq!(regrown.connections, grown.connections);

        // Restore: a client whose memo is rebuilt through `install_*`
        // after one capture captures the installed keys.
        let mut restored =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        assert_eq!(restored.checkpoint_state(), ClientState::default());
        for (&k, data) in &client.searches {
            restored.install_search(k, Arc::clone(data));
        }
        for (&u, data) in &client.timelines {
            restored.install_timeline(u, Arc::clone(data));
        }
        for (&u, data) in &client.connections {
            restored.install_connections(u, Arc::clone(data));
        }
        let installed = restored.checkpoint_state();
        assert_eq!(installed, collected(&restored));
        assert_eq!(keys(&installed), keys(&regrown));
    }
}
