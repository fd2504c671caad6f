//! GRAPH-BUILDER: lazily-materialized subgraph views (§4).
//!
//! The analyzer never downloads the social graph. Instead a [`QueryGraph`]
//! answers neighbor queries *on the fly* from USER CONNECTIONS and USER
//! TIMELINE responses, filtered according to the chosen [`ViewKind`]:
//!
//! * [`ViewKind::FullGraph`] — the raw undirected social graph (the
//!   baseline of Figures 2–3);
//! * [`ViewKind::TermInduced`] — only neighbors whose timeline matches the
//!   keyword predicate (§4.1);
//! * [`ViewKind::LevelByLevel`] — the term-induced subgraph minus
//!   intra-level edges (§4.2). `keep_intra` retains a deterministic random
//!   fraction of intra-level edges for the Figure 4 ablation (1.0 = keep
//!   all = term-induced behaviour; 0.0 = the pure level-by-level graph).

use crate::level::LevelAssigner;
use crate::query::AggregateQuery;
use microblog_api::{ApiError, CachingClient, FetchKey};
use microblog_platform::{Duration, IdMap, TimeWindow, UserId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;

/// Which subgraph the walker sees.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ViewKind {
    /// The whole undirected social graph.
    FullGraph,
    /// Users matching the keyword predicate only.
    TermInduced,
    /// Term-induced minus intra-level edges.
    LevelByLevel {
        /// Bucket width `T`.
        interval: Duration,
        /// Fraction of intra-level edges to *keep* (Fig. 4 ablation;
        /// 0.0 for the paper's level-by-level graph).
        keep_intra: f64,
    },
}

impl ViewKind {
    /// The standard level-by-level view with bucket width `interval`.
    pub fn level(interval: Duration) -> Self {
        ViewKind::LevelByLevel {
            interval,
            keep_intra: 0.0,
        }
    }
}

/// A node's level-split neighbor lists: `(above, below)`. Shared via
/// `Arc` so repeat visits to a hot node hand out the memoized split
/// without cloning both vectors.
pub type LevelSplit = Arc<(Vec<UserId>, Vec<UserId>)>;

/// A sampled node's `(matches, numerator, denominator)` under the view's
/// query (see [`QueryGraph::sample`]).
pub(crate) type SampleValues = (bool, f64, f64);

/// A lazily-materialized, API-backed graph view scoped to one query.
///
/// Every memo is keyed by platform-assigned user ids, so they use the
/// keyless [`IdMap`]; nothing iterates them.
pub struct QueryGraph<'c, 'p> {
    client: &'c mut CachingClient<'p>,
    kind: ViewKind,
    /// The query the view was built (or last [`Self::set_view`]) for.
    query: AggregateQuery,
    window: TimeWindow,
    assigner: Option<LevelAssigner>,
    /// Salt for the deterministic intra-edge coin (Fig. 4 ablation).
    salt: u64,
    /// Memoized member levels (`first_mention` scans a whole timeline, so
    /// recomputing it per neighbor probe would dominate CPU time; the API
    /// cost is already paid once through the caching client).
    level_memo: IdMap<UserId, Option<i64>>,
    /// Memoized `(above, below)` splits for the level walks.
    split_memo: IdMap<UserId, LevelSplit>,
    /// Memoized keyword-scoped neighbor lists, in connection order.
    nbr_memo: IdMap<UserId, Arc<Vec<UserId>>>,
    /// Memoized per-sample values of sampled nodes.
    sample_memo: IdMap<UserId, SampleValues>,
}

impl<'c, 'p> QueryGraph<'c, 'p> {
    /// Builds the view for `query` over `client`.
    pub fn new(client: &'c mut CachingClient<'p>, query: &AggregateQuery, kind: ViewKind) -> Self {
        let window = query.effective_window(client.now());
        let mut graph = QueryGraph {
            client,
            kind,
            query: query.clone(),
            window,
            assigner: None,
            salt: 0x5EED,
            level_memo: IdMap::default(),
            split_memo: IdMap::default(),
            nbr_memo: IdMap::default(),
            sample_memo: IdMap::default(),
        };
        graph.set_view(query, kind);
        graph
    }

    /// Points the view at `kind` over the same client, as a fresh
    /// [`QueryGraph::new`] would: the old view's memos are dropped, the
    /// client's memoized responses are kept. MA-TARW walks its pilots and
    /// then its chosen level view this way.
    pub(crate) fn set_view(&mut self, query: &AggregateQuery, kind: ViewKind) {
        self.kind = kind;
        self.query.clone_from(query);
        self.window = query.effective_window(self.client.now());
        self.assigner = match kind {
            ViewKind::LevelByLevel { interval, .. } => {
                Some(LevelAssigner::new(query.keyword, self.window, interval))
            }
            _ => None,
        };
        self.level_memo.clear();
        self.split_memo.clear();
        self.nbr_memo.clear();
        self.sample_memo.clear();
    }

    /// Overrides the ablation salt (so repeated runs drop *different*
    /// random subsets of intra-level edges).
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self.nbr_memo.clear();
        self
    }

    /// The view kind.
    pub fn kind(&self) -> ViewKind {
        self.kind
    }

    /// The level assigner (present only for level-by-level views).
    pub fn assigner(&self) -> Option<&LevelAssigner> {
        self.assigner.as_ref()
    }

    /// API calls spent so far (through the shared client).
    pub fn cost(&self) -> u64 {
        self.client.cost()
    }

    /// `u`'s `(matches, numerator, denominator)` under the view's query —
    /// how every sampler evaluates a node.
    ///
    /// Memoized until [`Self::set_view`]: the values depend only on `u`,
    /// the query and the platform clock, which is constant, and computing
    /// them scans `u`'s timeline once or twice. A hit counts the timeline
    /// hit the fetch would have made; a failed fetch memoizes nothing.
    pub(crate) fn sample(&mut self, u: UserId) -> Result<SampleValues, ApiError> {
        if let Some(&hit) = self.sample_memo.get(&u) {
            self.client.count_local_hit(FetchKey::Timeline(u));
            return Ok(hit);
        }
        let view = self.client.user_timeline(u)?;
        let values = self.query.sample_values(&view, self.client.now());
        self.sample_memo.insert(u, values);
        Ok(values)
    }

    /// Mutable access to the underlying client (seed search etc.).
    pub fn client_mut(&mut self) -> &mut CachingClient<'p> {
        self.client
    }

    /// Shared access to the underlying client (checkpoint capture).
    pub fn client(&self) -> &CachingClient<'p> {
        self.client
    }

    /// Whether `u` belongs to this view's node set.
    pub fn is_member(&mut self, u: UserId) -> Result<bool, ApiError> {
        match self.kind {
            ViewKind::FullGraph => Ok(true),
            _ => Ok(self.member_level(u)?.is_some()),
        }
    }

    /// `u`'s level when it is a member (meaningful for all keyword-scoped
    /// views; `FullGraph` members have no level). Memoized.
    pub fn member_level(&mut self, u: UserId) -> Result<Option<i64>, ApiError> {
        if let Some(&cached) = self.level_memo.get(&u) {
            return Ok(cached);
        }
        let view = self.client.user_timeline(u)?;
        let first = view.first_mention(self.query.keyword, self.window);
        let level = match (first, &self.assigner) {
            (Some(t), Some(a)) => Some(a.level_of_time(t)),
            (Some(t), None) => Some(t.0), // membership marker; level unused
            (None, _) => None,
        };
        self.level_memo.insert(u, level);
        Ok(level)
    }

    /// Neighbors of `u` under the view, in connection order.
    ///
    /// For keyword-scoped views, every candidate neighbor's timeline is
    /// fetched (and charged, once) to test membership — this is the real
    /// cost structure the paper pays during its walks. The filtered list is
    /// memoized until [`Self::set_view`], and only once every probe has
    /// succeeded; `FullGraph` hands out the client's own memoized list. A
    /// memo hit counts the client's connections hit a re-filtering step
    /// would have made, without probing the client's memo: a list is
    /// memoized here only after the client fetched `u`'s connections, and
    /// the client's memo never shrinks.
    pub fn neighbors(&mut self, u: UserId) -> Result<Arc<Vec<UserId>>, ApiError> {
        if let Some(hit) = self.nbr_memo.get(&u) {
            self.client.count_local_hit(FetchKey::Connections(u));
            return Ok(Arc::clone(hit));
        }
        let conns = self.client.connections(u)?;
        let mut out = Vec::new();
        match self.kind {
            ViewKind::FullGraph => return Ok(conns),
            ViewKind::TermInduced => {
                // Announce the whole candidate batch before the serial
                // membership probes: a fetch scheduler can then overlap
                // the (1 + k) round trips of a step into ~2.
                self.client.announce_timelines(&conns);
                for &v in conns.iter() {
                    if self.member_level(v)?.is_some() {
                        out.push(v);
                    }
                }
            }
            ViewKind::LevelByLevel { keep_intra, .. } => {
                // Resolve `u`'s own level first: a non-member expands to
                // nothing, and announcing candidates for it would strand
                // their prefetches.
                if let Some(lu) = self.member_level(u)? {
                    self.client.announce_timelines(&conns);
                    for &v in conns.iter() {
                        if let Some(lv) = self.member_level(v)? {
                            if lv != lu || self.keep_intra_edge(u, v, keep_intra) {
                                out.push(v);
                            }
                        }
                    }
                }
            }
        }
        let out = Arc::new(out);
        self.nbr_memo.insert(u, Arc::clone(&out));
        Ok(out)
    }

    /// Warm path for interleaved executors: resolves `u`'s connections
    /// now (consuming any prefetch announced for them) and announces the
    /// candidate membership probes [`Self::neighbors`] will issue,
    /// without running the probes. Calling this for every live chain
    /// before any chain steps puts *all* of a round's timeline batches in
    /// flight at once, instead of one chain's batch at a time — the
    /// difference between ~N serial RTT walls per round and ~one. A node
    /// whose list is memoized stops after counting the connections hit, as
    /// [`Self::neighbors`] does: building its list fetched every candidate,
    /// so nothing is left to announce.
    ///
    /// Errors are deliberately swallowed: nothing is memoized on failure,
    /// so the step's own fetch re-issues the call and settles walk-ending
    /// conditions exactly as it would have without the warm call. The
    /// fetch sequence is identical with or without a sink attached (the
    /// announces are no-ops without one), which keeps pipelined and
    /// sequential execution — and therefore charging — on one sequence.
    pub fn prefetch_step(&mut self, u: UserId) {
        if self.nbr_memo.contains_key(&u) {
            self.client.count_local_hit(FetchKey::Connections(u));
            return;
        }
        let Ok(conns) = self.client.connections(u) else {
            return;
        };
        match self.kind {
            ViewKind::FullGraph => {}
            ViewKind::TermInduced => self.client.announce_timelines(&conns),
            ViewKind::LevelByLevel { .. } => {
                // Mirror `neighbors`: a non-member's candidates are
                // never probed, so announcing them would strand their
                // prefetches.
                if matches!(self.member_level(u), Ok(Some(_))) {
                    self.client.announce_timelines(&conns);
                }
            }
        }
    }

    /// Partition of `u`'s view-neighbors into `(above, below)` levels:
    /// `above` = strictly earlier levels (the paper's `∇(u)`), `below` =
    /// strictly later (`∆(u)`). Retained intra-level neighbors are
    /// excluded from both.
    ///
    /// # Panics
    /// Panics if called on a non-level view.
    pub fn level_split(&mut self, u: UserId) -> Result<LevelSplit, ApiError> {
        assert!(
            self.assigner.is_some(),
            "level_split requires a level-by-level view"
        );
        if let Some(cached) = self.split_memo.get(&u) {
            return Ok(Arc::clone(cached));
        }
        let lu = match self.member_level(u)? {
            Some(l) => l,
            None => {
                let empty = Arc::new((Vec::new(), Vec::new()));
                self.split_memo.insert(u, Arc::clone(&empty));
                return Ok(empty);
            }
        };
        let conns = self.client.connections(u)?;
        self.client.announce_timelines(&conns);
        let mut above = Vec::new();
        let mut below = Vec::new();
        for &v in conns.iter() {
            if let Some(lv) = self.member_level(v)? {
                if lv < lu {
                    above.push(v);
                } else if lv > lu {
                    below.push(v);
                }
            }
        }
        let split = Arc::new((above, below));
        self.split_memo.insert(u, Arc::clone(&split));
        Ok(split)
    }

    /// Deterministic coin for the Fig. 4 ablation: whether the intra-level
    /// edge `(u, v)` survives when keeping a `keep` fraction.
    fn keep_intra_edge(&self, u: UserId, v: UserId, keep: f64) -> bool {
        if keep >= 1.0 {
            return true;
        }
        if keep <= 0.0 {
            return false;
        }
        let (a, b) = if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) };
        let h = splitmix64(((a as u64) << 32 | b as u64) ^ self.salt);
        (h as f64 / u64::MAX as f64) < keep
    }
}

/// SplitMix64 — cheap deterministic hashing for the edge coin and the
/// interleaved chains' per-chain seed stream.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Adapter letting the generic random walks of `microblog-graph` run over
/// a [`QueryGraph`] (node ids are raw `u32` user ids).
impl microblog_graph::walk::NeighborSource for QueryGraph<'_, '_> {
    type Error = ApiError;

    fn neighbors(&mut self, u: u32) -> Result<Cow<'_, [u32]>, ApiError> {
        let nbrs = QueryGraph::neighbors(self, UserId(u))?;
        Ok(Cow::Owned(nbrs.iter().map(|v| v.0).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_api::{ApiProfile, CacheStats, MicroblogClient, QueryBudget};
    use microblog_obs::{
        FieldValue, RecorderConfig, RingRecorder, TelemetryClock, TelemetryMode, Tracer,
    };
    use microblog_platform::scenario::{twitter_2013, Scale};
    use microblog_platform::{FaultPlan, FaultyPlatform, UserMetric};

    fn setup() -> (microblog_platform::scenario::Scenario, AggregateQuery) {
        let s = twitter_2013(Scale::Tiny, 21);
        let kw = s.keyword("privacy").unwrap();
        let q = AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(s.window);
        (s, q)
    }

    /// The walk's neighborhood in the Tiny world for a keyword with a
    /// multi-level graph: the search seeds and their term-induced
    /// neighbors.
    fn walk_nodes() -> (
        microblog_platform::scenario::Scenario,
        AggregateQuery,
        Vec<UserId>,
    ) {
        let s = twitter_2013(Scale::Tiny, 21);
        let q = AggregateQuery::count(s.keyword("tahrir").unwrap()).in_window(s.window);
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let seeds: Vec<UserId> = client
            .search(q.keyword)
            .unwrap()
            .iter()
            .map(|h| h.author)
            .collect();
        let mut nodes = seeds.clone();
        for list in fresh_lists(&mut client, &q, ViewKind::TermInduced, &seeds) {
            nodes.extend(list.iter());
        }
        nodes.sort_unstable_by_key(|u| u.0);
        nodes.dedup();
        (s, q, nodes)
    }

    /// Each node's neighbor list under `kind`, from a fresh view over `client`.
    fn fresh_lists(
        client: &mut CachingClient,
        q: &AggregateQuery,
        kind: ViewKind,
        nodes: &[UserId],
    ) -> Vec<Arc<Vec<UserId>>> {
        let mut g = QueryGraph::new(client, q, kind);
        nodes.iter().map(|&u| g.neighbors(u).unwrap()).collect()
    }

    #[test]
    fn memoized_neighbors_match_a_fresh_view() {
        let (s, q, nodes) = walk_nodes();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let kinds = [
            ViewKind::TermInduced,
            ViewKind::level(Duration::DAY),
            ViewKind::LevelByLevel {
                interval: Duration::DAY,
                keep_intra: 0.5,
            },
        ];
        for kind in kinds {
            let mut g = QueryGraph::new(&mut client, &q, kind);
            let repeated: Vec<Arc<Vec<UserId>>> = nodes
                .iter()
                .map(|&u| {
                    let first = g.neighbors(u).unwrap();
                    let again = g.neighbors(u).unwrap();
                    assert!(Arc::ptr_eq(&first, &again), "{kind:?} node {}", u.0);
                    again
                })
                .collect();
            let fresh = fresh_lists(&mut client, &q, kind, &nodes);
            for ((u, again), want) in nodes.iter().zip(&repeated).zip(&fresh) {
                assert_eq!(again, want, "{kind:?} node {}", u.0);
                // Connection order: the list is a subsequence of the
                // node's connections.
                let conns = client.connections(*u).unwrap();
                let mut rest = conns.iter();
                assert!(again.iter().all(|v| rest.any(|c| c == v)));
            }
        }
    }

    #[test]
    fn memo_hit_counts_one_client_hit_and_charges_nothing() {
        let (s, q, nodes) = walk_nodes();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let mut g = QueryGraph::new(&mut client, &q, ViewKind::level(Duration::DAY));
        for u in nodes {
            let first = g.neighbors(u).unwrap();
            let (before, cost) = (*g.client().cache_stats(), g.cost());
            let again = g.neighbors(u).unwrap();
            assert!(Arc::ptr_eq(&first, &again));
            let after = *g.client().cache_stats();
            assert_eq!(
                after,
                CacheStats {
                    local_hits: before.local_hits + 1,
                    ..before
                }
            );
            assert_eq!(g.cost(), cost);
        }
    }

    #[test]
    fn set_view_drops_the_neighbor_memo() {
        let (s, q, nodes) = walk_nodes();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let (day, hour) = (
            ViewKind::level(Duration::DAY),
            ViewKind::level(Duration::HOUR),
        );
        let by_day = fresh_lists(&mut client, &q, day, &nodes);
        let by_hour = fresh_lists(&mut client, &q, hour, &nodes);
        let i = (0..nodes.len())
            .find(|&i| by_day[i] != by_hour[i])
            .expect("a node whose lists differ between the intervals");
        let mut g = QueryGraph::new(&mut client, &q, day);
        assert_eq!(g.neighbors(nodes[i]).unwrap(), by_day[i]);
        g.set_view(&q, hour);
        assert_eq!(g.neighbors(nodes[i]).unwrap(), by_hour[i]);
    }

    #[test]
    fn failed_probe_memoizes_nothing() {
        let (s, q, nodes) = walk_nodes();
        let mut clean =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let kind = ViewKind::level(Duration::DAY);
        let want = fresh_lists(&mut clean, &q, kind, &nodes);
        let faulty =
            FaultyPlatform::new(Arc::new(s.platform.clone()), FaultPlan::transient(11, 0.3));
        let mut client = CachingClient::new(MicroblogClient::from_backend(
            &faulty,
            ApiProfile::twitter(),
            QueryBudget::unlimited(),
        ));
        let mut g = QueryGraph::new(&mut client, &q, kind);
        let mut failures = 0;
        for (&u, want) in nodes.iter().zip(&want) {
            let got = loop {
                match g.neighbors(u) {
                    Ok(list) => break list,
                    Err(_) => failures += 1,
                }
            };
            assert_eq!(&got, want, "node {}", u.0);
        }
        assert!(failures > 0, "the fault plan never fired");
    }

    /// Sample values with the floats as bits, so equality is exact.
    fn bits((matches, num, den): SampleValues) -> (bool, u64, u64) {
        (matches, num.to_bits(), den.to_bits())
    }

    /// `walk_nodes()`'s world and nodes with its COUNT query and the AVG
    /// query over the same keyword and window.
    fn count_and_avg() -> (
        microblog_platform::scenario::Scenario,
        [AggregateQuery; 2],
        Vec<UserId>,
    ) {
        let (s, count, nodes) = walk_nodes();
        let avg = AggregateQuery::avg(UserMetric::FollowerCount, count.keyword).in_window(s.window);
        (s, [count, avg], nodes)
    }

    #[test]
    fn memoized_sample_matches_sample_values_and_counts_one_timeline_hit() {
        let (s, queries, nodes) = count_and_avg();
        for q in queries {
            let mut fresh =
                CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
            let recorder = Arc::new(RingRecorder::new(RecorderConfig::default()));
            let tracer = Tracer::new(
                recorder.clone(),
                Arc::new(TelemetryClock::new(TelemetryMode::Logical)),
            );
            let mut client = CachingClient::new(
                MicroblogClient::new(&s.platform, ApiProfile::twitter()).with_tracer(tracer),
            );
            let mut g = QueryGraph::new(&mut client, &q, ViewKind::level(Duration::DAY));
            for &u in &nodes {
                let want = q.sample_values(&fresh.user_timeline(u).unwrap(), fresh.now());
                let first = g.sample(u).unwrap();
                assert_eq!(bits(first), bits(want), "{:?} node {}", q.aggregate, u.0);
                let (before, cost) = (*g.client().cache_stats(), g.cost());
                recorder.drain();
                let again = g.sample(u).unwrap();
                assert_eq!(bits(again), bits(want), "{:?} node {}", q.aggregate, u.0);
                assert_eq!(
                    *g.client().cache_stats(),
                    CacheStats {
                        local_hits: before.local_hits + 1,
                        ..before
                    }
                );
                assert_eq!(g.cost(), cost);
                let events = recorder.drain();
                assert_eq!(events.len(), 1, "{events:?}");
                assert_eq!(events[0].name, "local_hit");
                assert_eq!(
                    events[0].field("endpoint"),
                    Some(&FieldValue::from("timeline"))
                );
            }
        }
    }

    #[test]
    fn failed_timeline_fetch_memoizes_no_sample() {
        let (s, queries, nodes) = count_and_avg();
        let faulty =
            FaultyPlatform::new(Arc::new(s.platform.clone()), FaultPlan::transient(11, 0.3));
        for q in queries {
            let mut clean =
                CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
            let mut client = CachingClient::new(MicroblogClient::from_backend(
                &faulty,
                ApiProfile::twitter(),
                QueryBudget::unlimited(),
            ));
            let mut g = QueryGraph::new(&mut client, &q, ViewKind::level(Duration::DAY));
            let mut failures = 0;
            for &u in &nodes {
                let want = q.sample_values(&clean.user_timeline(u).unwrap(), clean.now());
                let got = loop {
                    match g.sample(u) {
                        Ok(values) => break values,
                        Err(_) => {
                            assert!(!g.sample_memo.contains_key(&u), "node {}", u.0);
                            failures += 1;
                        }
                    }
                };
                assert_eq!(bits(got), bits(want), "{:?} node {}", q.aggregate, u.0);
            }
            assert!(failures > 0, "the fault plan never fired");
        }
    }

    #[test]
    fn set_view_drops_the_sample_memo_and_takes_the_new_query() {
        let (s, [count, avg], nodes) = count_and_avg();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let kind = ViewKind::level(Duration::DAY);
        let mut g = QueryGraph::new(&mut client, &count, kind);
        for &u in &nodes {
            g.sample(u).unwrap();
        }
        assert_eq!(g.sample_memo.len(), nodes.len());
        g.set_view(&avg, kind);
        assert!(g.sample_memo.is_empty());
        let now = g.client().now();
        for &u in &nodes {
            let view = g.client_mut().user_timeline(u).unwrap();
            let want = avg.sample_values(&view, now);
            assert_eq!(bits(g.sample(u).unwrap()), bits(want), "node {}", u.0);
        }
    }

    #[test]
    fn term_induced_filters_non_members() {
        let (s, q) = setup();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let seeds = client.search(q.keyword).unwrap();
        let seed = seeds[0].author;
        let mut full = QueryGraph::new(&mut client, &q, ViewKind::FullGraph);
        let all = full.neighbors(seed).unwrap();
        let mut term = QueryGraph::new(&mut client, &q, ViewKind::TermInduced);
        let members = term.neighbors(seed).unwrap();
        assert!(members.len() <= all.len());
        // Every term-induced neighbor is a full-graph neighbor and a member.
        for v in members.iter() {
            assert!(all.contains(v));
            assert!(term.is_member(*v).unwrap());
        }
        // Every excluded neighbor is a non-member.
        for v in all.iter() {
            if !members.contains(v) {
                assert!(!term.is_member(*v).unwrap());
            }
        }
    }

    #[test]
    fn level_view_drops_exactly_intra_edges() {
        let (s, q) = setup();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let seeds = client.search(q.keyword).unwrap();
        let seed = seeds[0].author;
        let interval = Duration::DAY;

        let mut term = QueryGraph::new(&mut client, &q, ViewKind::TermInduced);
        let term_nbrs = term.neighbors(seed).unwrap();
        let mut level = QueryGraph::new(&mut client, &q, ViewKind::level(interval));
        let level_nbrs = level.neighbors(seed).unwrap();
        let lu = level.member_level(seed).unwrap().unwrap();
        for v in term_nbrs.iter() {
            let lv = level.member_level(*v).unwrap().unwrap();
            assert_eq!(
                level_nbrs.contains(v),
                lv != lu,
                "edge to level {lv} vs own {lu}"
            );
        }
        // keep_intra = 1.0 restores the term-induced neighbor set.
        let mut keep_all = QueryGraph::new(
            &mut client,
            &q,
            ViewKind::LevelByLevel {
                interval,
                keep_intra: 1.0,
            },
        );
        assert_eq!(keep_all.neighbors(seed).unwrap(), term_nbrs);
    }

    #[test]
    fn keep_intra_fraction_is_monotone_and_deterministic() {
        let (s, q) = setup();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let seeds = client.search(q.keyword).unwrap();
        let interval = Duration::DAY;
        let count_with = |client: &mut CachingClient, keep: f64| -> usize {
            let mut g = QueryGraph::new(
                client,
                &q,
                ViewKind::LevelByLevel {
                    interval,
                    keep_intra: keep,
                },
            );
            seeds
                .iter()
                .take(5)
                .map(|h| g.neighbors(h.author).unwrap().len())
                .sum()
        };
        let none = count_with(&mut client, 0.0);
        let half = count_with(&mut client, 0.5);
        let all = count_with(&mut client, 1.0);
        assert!(none <= half && half <= all, "{none} {half} {all}");
        // Deterministic: same salt, same result.
        assert_eq!(half, count_with(&mut client, 0.5));
    }

    #[test]
    fn level_split_partitions_neighbors() {
        let (s, q) = setup();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let seeds = client.search(q.keyword).unwrap();
        let mut g = QueryGraph::new(&mut client, &q, ViewKind::level(Duration::DAY));
        let u = seeds[0].author;
        let lu = g.member_level(u).unwrap().unwrap();
        let split = g.level_split(u).unwrap();
        let (above, below) = (split.0.clone(), split.1.clone());
        let merged = g.neighbors(u).unwrap();
        assert_eq!(above.len() + below.len(), merged.len());
        // Repeat lookups hand out the same memoized split, not a copy.
        assert!(Arc::ptr_eq(&split, &g.level_split(u).unwrap()));
        for v in &above {
            assert!(g.member_level(*v).unwrap().unwrap() < lu);
        }
        for v in &below {
            assert!(g.member_level(*v).unwrap().unwrap() > lu);
        }
    }

    #[test]
    fn full_graph_neighbors_match_connections() {
        let (s, q) = setup();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let expected: Vec<UserId> = client.connections(UserId(0)).unwrap().to_vec();
        let mut g = QueryGraph::new(&mut client, &q, ViewKind::FullGraph);
        assert_eq!(*g.neighbors(UserId(0)).unwrap(), expected);
        assert!(g.is_member(UserId(0)).unwrap());
    }
}
