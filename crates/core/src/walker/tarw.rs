//! MA-TARW: the topology-aware, level-by-level random walk (§5).
//!
//! Each *instance* starts at a uniformly random seed (a search-returned
//! user on the recent levels), climbs the level-by-level subgraph one
//! strictly-earlier level at a time until it reaches a root (no earlier
//! neighbors), then descends to strictly-later levels until it reaches a
//! sink — at most `2(h−1)` transitions, with **no burn-in**.
//!
//! For every visited node `u`, `ESTIMATE-p` (Algorithm 2) produces an
//! unbiased estimate of the probability the phase visits `u`:
//!
//! * up phase:   `p̄(u) = [u∈seeds]/s + Σ_{v∈∆(u)} p̄(v)/|∇(v)|`
//! * down phase: `p̂(u) = p̄(u)` at roots, else `Σ_{v∈∇(u)} p̂(v)/|∆(v)|`
//!
//! (`∇`/`∆` are the neighbors on earlier/later levels.) The seed-mass term
//! `[u∈seeds]/s` generalizes the paper's bottom-level base case to seeds
//! that are not literal sinks, which real search results need.
//!
//! SUM/COUNT estimates are Hansen–Hurwitz sums `Σ f(u)/p(u)` per phase;
//! each phase sum is unbiased for the population total, and the instance
//! estimate is the mean of the two (see the crate-level fidelity note on
//! Algorithm 3's printed normalization). AVG is the ratio of the SUM and
//! COUNT totals across instances. Root probabilities can be cached and
//! reused across instances (§5.2's "single cache" optimization).

use super::{drive, mismatch, Flow, Sampler};
use crate::checkpoint::{CheckpointCtl, CheckpointRng, InstanceState, SamplerState, TarwState};
use crate::error::EstimateError;
use crate::estimate::{Estimate, RunningStats};
use crate::interval::{selected, Pilots, CANDIDATES};
use crate::query::{Aggregate, AggregateQuery};
use crate::seeds::fetch_seeds;
use crate::view::{QueryGraph, ViewKind};
use microblog_api::{ApiError, CachingClient};
use microblog_obs::{EventName, FieldValue, Tracer, WalkPhase};
use microblog_platform::{Duration, IdMap, IdSet, UserId};
use rand::Rng;

/// How MA-TARW obtains the visit probabilities `p(u)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PMode {
    /// Evaluate the Eq. (6) recursion *exactly* with memoization: instead
    /// of sampling one random below-neighbor per step (Algorithm 2), sum
    /// over all of them, caching each node's value. The client-side cache
    /// makes this affordable (each node's neighborhood is fetched once,
    /// like the paper's own §5.2 root cache but for every node), and it
    /// eliminates the heavy-tailed `1/p̂` noise of sampled estimates —
    /// which is fatal when the search API yields only a handful of seeds.
    Exact,
    /// The paper's Algorithm 2: one random descent per draw, `draws`
    /// independent draws averaged per node (optionally accumulated in a
    /// per-node cache across instances).
    Sampled {
        /// Draws averaged per node.
        draws: usize,
        /// Accumulate draws across instances in a per-node cache.
        cache: bool,
    },
}

/// Configuration of MA-TARW.
#[derive(Clone, Copy, Debug)]
pub struct TarwConfig {
    /// Level interval `T`; `None` selects one with pilot walks (§4.2.3).
    pub interval: Option<Duration>,
    /// Pilot-walk transitions per candidate interval when auto-selecting.
    pub pilot_steps: usize,
    /// Visit-probability estimation mode.
    pub p_mode: PMode,
    /// Hard cap on walk instances (the budget is the usual stopper; the
    /// cap guards unlimited-budget runs once every response is cached).
    pub max_instances: usize,
}

impl Default for TarwConfig {
    fn default() -> Self {
        TarwConfig {
            interval: None,
            pilot_steps: 12,
            p_mode: PMode::Exact,
            max_instances: 800,
        }
    }
}

/// Per-instance Hansen–Hurwitz sums.
#[derive(Clone, Copy, Debug, Default)]
struct InstanceSums {
    /// Σ f(u)/p(u) — the SUM-metric numerator.
    num: f64,
    /// Σ den(u)/p(u) — match indicators (AVG) or denominator metric.
    den: f64,
    /// Σ match(u)/p(u) — the COUNT estimate.
    count: f64,
    /// Nodes with a usable (positive) probability estimate.
    used: usize,
}

impl InstanceSums {
    fn snapshot(&self) -> InstanceState {
        InstanceState {
            num_bits: self.num.to_bits(),
            den_bits: self.den.to_bits(),
            count_bits: self.count.to_bits(),
            used: self.used as u64,
        }
    }

    fn restore(state: &InstanceState) -> Self {
        InstanceSums {
            num: f64::from_bits(state.num_bits),
            den: f64::from_bits(state.den_bits),
            count: f64::from_bits(state.count_bits),
            used: state.used as usize,
        }
    }
}

/// Runs MA-TARW until the budget is exhausted (or `max_instances`).
pub fn estimate<R: CheckpointRng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    config: &TarwConfig,
    rng: &mut R,
) -> Result<Estimate, EstimateError> {
    let sampler = Tarw::new(client, query, config, None)?;
    drive(sampler, rng, &mut CheckpointCtl::disabled())
}

/// MA-TARW as a sampler: with no configured interval, its first phase is
/// interval selection — one pilot walk per step, checkpointed as
/// [`SamplerState::Pilot`] — and then one walk instance per step,
/// checkpointed as [`SamplerState::Tarw`].
pub(crate) struct Tarw<'a, 'p> {
    graph: QueryGraph<'a, 'p>,
    query: &'a AggregateQuery,
    seeds: Vec<UserId>,
    tracer: Tracer,
    p_mode: PMode,
    pilot_steps: usize,
    max_instances: usize,
    /// The interval-selection sweep while it runs.
    pilots: Option<Pilots>,
    /// The level interval the walk runs on, once selected.
    interval: Duration,
    prob: ProbabilityEstimator,
    next_instance: usize,
    instances: Vec<InstanceSums>,
    /// Path buffers reused across instances, so a bottom-top-bottom pass
    /// allocates nothing once the walker has warmed up.
    up_path: Vec<UserId>,
    down_path: Vec<UserId>,
}

impl<'a, 'p> Tarw<'a, 'p> {
    /// The walk, fresh or resumed from a [`SamplerState::Pilot`] or
    /// [`SamplerState::Tarw`] checkpoint (client memo and RNG restored by
    /// the caller).
    pub(crate) fn new(
        client: &'a mut CachingClient<'p>,
        query: &'a AggregateQuery,
        config: &TarwConfig,
        resume: Option<&SamplerState>,
    ) -> Result<Self, EstimateError> {
        let (interval, pilot, tarw) = match resume {
            None => (config.interval, None, None),
            // Interval selection (if any) already happened before the
            // checkpoint; its RNG draws are baked into the restored RNG.
            Some(SamplerState::Tarw(state)) => {
                (Some(Duration(state.interval_secs)), None, Some(state))
            }
            Some(SamplerState::Pilot(state)) => (None, Some(state), None),
            Some(_) => return Err(mismatch()),
        };
        let tracer = client.tracer().clone();
        let seeds = fetch_seeds(client, query)?;
        let cache = matches!(config.p_mode, PMode::Sampled { cache: true, .. });
        let mut prob = ProbabilityEstimator::new(&seeds, cache);
        let mut instances = Vec::new();
        let mut next_instance = 0;
        if let Some(state) = tarw {
            instances = state.instances.iter().map(InstanceSums::restore).collect();
            next_instance = state.next_instance as usize;
            // Exact-mode memos are *not* checkpointed: they recompute free
            // from the restored client memo and consume no randomness. The
            // sampled-mode draw caches do consume RNG, so they round-trip.
            prob.restore_caches(&state.up_cache, &state.down_cache);
        }
        // While the pilots run, each re-points the view at its candidate;
        // the winner's level view replaces them.
        let pilots = interval
            .is_none()
            .then(|| Pilots::new(&tracer, CANDIDATES.len(), pilot));
        let view = interval.map_or(ViewKind::FullGraph, ViewKind::level);
        Ok(Tarw {
            graph: QueryGraph::new(client, query, view),
            query,
            seeds,
            tracer,
            p_mode: config.p_mode,
            pilot_steps: config.pilot_steps,
            max_instances: config.max_instances,
            pilots,
            interval: interval.unwrap_or(Duration(0)),
            prob,
            next_instance,
            instances,
            up_path: Vec::new(),
            down_path: Vec::new(),
        })
    }

    /// Continue while instances remain: the last one ends the walk
    /// without a further safe point.
    fn flow(&self) -> Flow {
        if self.next_instance < self.max_instances {
            Flow::Continue
        } else {
            Flow::Stop
        }
    }

    /// Runs the next candidate's pilot walk; after the last one (or when
    /// the budget runs out mid-sweep) selects the interval and points the
    /// view at it.
    fn pilot_step<R: Rng>(
        &mut self,
        mut pilots: Pilots,
        rng: &mut R,
    ) -> Result<Flow, EstimateError> {
        let interval = CANDIDATES[pilots.scored()]; // ma-lint: allow(panic-safety) reason="the sweep ends when every candidate is scored, so scored() < CANDIDATES.len() here"
        let scored = pilots.score(
            &mut self.graph,
            self.query,
            interval,
            &self.seeds,
            self.pilot_steps,
            rng,
        );
        match scored {
            Ok(()) if pilots.scored() < CANDIDATES.len() => {
                self.pilots = Some(pilots);
                return Ok(Flow::Continue);
            }
            Ok(()) => {}
            Err(e) if e.ends_walk() => {}
            Err(e) => {
                pilots.close();
                return Err(e.into());
            }
        }
        self.interval = selected(&self.tracer, &pilots.rank()?).interval;
        self.graph
            .set_view(self.query, ViewKind::level(self.interval));
        Ok(self.flow())
    }
}

impl<'p> Sampler<'p> for Tarw<'_, 'p> {
    fn client(&mut self) -> &mut CachingClient<'p> {
        self.graph.client_mut()
    }

    fn snapshot(&mut self) -> Option<(u64, SamplerState)> {
        Some(match &self.pilots {
            Some(pilots) => (pilots.scored() as u64, SamplerState::Pilot(pilots.state())),
            None => (
                self.next_instance as u64,
                SamplerState::Tarw(TarwState {
                    interval_secs: self.interval.0,
                    next_instance: self.next_instance as u64,
                    instances: self.instances.iter().map(InstanceSums::snapshot).collect(),
                    up_cache: self.prob.up_cache_state(),
                    down_cache: self.prob.down_cache_state(),
                }),
            ),
        })
    }

    /// One pilot walk while selecting the interval, then one instance.
    fn step<R: CheckpointRng>(&mut self, rng: &mut R) -> Result<Flow, EstimateError> {
        if let Some(pilots) = self.pilots.take() {
            return self.pilot_step(pilots, rng);
        }
        if self.next_instance >= self.max_instances {
            return Ok(Flow::Stop);
        }
        let outcome = self.run_instance(rng);
        self.next_instance += 1;
        // `None`: a degenerate instance (seed not a member).
        if let Some(sums) = outcome? {
            self.instances.push(sums);
        }
        Ok(self.flow())
    }

    fn finish(self) -> Result<Estimate, EstimateError> {
        finalize(self.query, &self.instances, self.graph.cost())
    }
}

fn finalize(
    query: &AggregateQuery,
    instances: &[InstanceSums],
    cost: u64,
) -> Result<Estimate, EstimateError> {
    let usable: Vec<&InstanceSums> = instances.iter().filter(|i| i.used > 0).collect();
    if usable.is_empty() {
        return Err(EstimateError::NoSamples);
    }
    let r = usable.len() as f64;
    let mean_num: f64 = usable.iter().map(|i| i.num).sum::<f64>() / r;
    let mean_den: f64 = usable.iter().map(|i| i.den).sum::<f64>() / r;
    let mean_count: f64 = usable.iter().map(|i| i.count).sum::<f64>() / r;

    let mut per_instance = RunningStats::new();
    let value = match query.aggregate {
        Aggregate::Count => {
            for i in &usable {
                per_instance.push(i.count);
            }
            mean_count
        }
        Aggregate::Sum(_) => {
            for i in &usable {
                per_instance.push(i.num);
            }
            mean_num
        }
        Aggregate::Avg(_) | Aggregate::RatioOfSums { .. } => {
            if mean_den <= 0.0 {
                return Err(EstimateError::NoSamples);
            }
            for i in &usable {
                if i.den > 0.0 {
                    per_instance.push(i.num / i.den);
                }
            }
            mean_num / mean_den
        }
    };
    Ok(Estimate {
        value,
        std_err: per_instance.std_err(),
        cost,
        samples: usable.iter().map(|i| i.used).sum(),
        instances: usable.len(),
    })
}

/// A running average of `ESTIMATE-p` draws for one node.
#[derive(Clone, Copy, Debug, Default)]
struct PAverage {
    sum: f64,
    n: u32,
}

impl PAverage {
    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// The `ESTIMATE-p` machinery of Algorithm 2, public so that validation
/// experiments can compare its draws against exactly computed visit
/// probabilities (see the `estimate_p_check` experiment binary).
///
/// With `cache = true` the estimator keeps a *running average of draws per
/// node* and serves the mean once enough draws have accumulated. This
/// extends the paper's §5.2 root-probability cache to every node; it is
/// essential in the realistic regime where the search API returns only a
/// few seeds, because a single Algorithm-2 draw is then zero unless its
/// random descent happens to end at a seed — averaged draws converge to
/// the true `p̄(u)` instead.
pub struct ProbabilityEstimator {
    seeds: Vec<UserId>,
    seed_set: IdSet<UserId>,
    up_cache: Option<IdMap<UserId, PAverage>>,
    down_cache: Option<IdMap<UserId, PAverage>>,
    exact_up: IdMap<UserId, f64>,
    exact_down: IdMap<UserId, f64>,
    /// Draws to accumulate per cached node before the mean is considered
    /// settled.
    target_draws: u32,
}

impl ProbabilityEstimator {
    /// Builds the estimator over the given seed set; `cache` enables the
    /// per-node draw-averaging cache (the generalization of §5.2's root
    /// cache).
    pub fn new(seeds: &[UserId], cache: bool) -> Self {
        ProbabilityEstimator {
            seeds: seeds.to_vec(),
            seed_set: seeds.iter().copied().collect(),
            up_cache: cache.then(IdMap::default),
            down_cache: cache.then(IdMap::default),
            exact_up: IdMap::default(),
            exact_down: IdMap::default(),
            target_draws: 12,
        }
    }

    /// Serializes the up-phase draw cache for a checkpoint (sorted by
    /// node; `None` when draw caching is off).
    pub(crate) fn up_cache_state(&self) -> Option<Vec<(UserId, u64, u32)>> {
        Self::cache_state(&self.up_cache)
    }

    /// Serializes the down-phase draw cache for a checkpoint.
    pub(crate) fn down_cache_state(&self) -> Option<Vec<(UserId, u64, u32)>> {
        Self::cache_state(&self.down_cache)
    }

    fn cache_state(cache: &Option<IdMap<UserId, PAverage>>) -> Option<Vec<(UserId, u64, u32)>> {
        cache.as_ref().map(|c| {
            let mut entries: Vec<(UserId, u64, u32)> = c
                .iter()
                .map(|(&u, avg)| (u, avg.sum.to_bits(), avg.n))
                .collect();
            entries.sort_unstable_by_key(|e| e.0 .0);
            entries
        })
    }

    /// Restores both draw caches from checkpointed state (the cached
    /// draws consumed RNG, so dropping them would desynchronize resume).
    pub(crate) fn restore_caches(
        &mut self,
        up: &Option<Vec<(UserId, u64, u32)>>,
        down: &Option<Vec<(UserId, u64, u32)>>,
    ) {
        if let Some(entries) = up {
            self.up_cache = Some(Self::cache_from(entries));
        }
        if let Some(entries) = down {
            self.down_cache = Some(Self::cache_from(entries));
        }
    }

    fn cache_from(entries: &[(UserId, u64, u32)]) -> IdMap<UserId, PAverage> {
        entries
            .iter()
            .map(|&(u, sum_bits, n)| {
                (
                    u,
                    PAverage {
                        sum: f64::from_bits(sum_bits),
                        n,
                    },
                )
            })
            .collect()
    }

    /// Exact up-phase visit probability `p̄(u)` via the memoized Eq. (6)
    /// recursion. Recursion depth is bounded by the number of levels
    /// (levels strictly increase downward).
    pub fn exact_p_up(
        &mut self,
        graph: &mut QueryGraph<'_, '_>,
        u: UserId,
    ) -> Result<f64, ApiError> {
        if let Some(&p) = self.exact_up.get(&u) {
            return Ok(p);
        }
        let s = self.seeds.len() as f64;
        let mut p = if self.seed_set.contains(&u) {
            1.0 / s
        } else {
            0.0
        };
        let split = graph.level_split(u)?;
        for &v in &split.1 {
            let pv = self.exact_p_up(graph, v)?;
            if pv > 0.0 {
                let v_above_len = graph.level_split(v)?.0.len();
                p += pv / v_above_len.max(1) as f64;
            }
        }
        self.exact_up.insert(u, p);
        Ok(p)
    }

    /// Exact down-phase visit probability `p̂(u)` (memoized).
    pub fn exact_p_down(
        &mut self,
        graph: &mut QueryGraph<'_, '_>,
        u: UserId,
    ) -> Result<f64, ApiError> {
        if let Some(&p) = self.exact_down.get(&u) {
            return Ok(p);
        }
        let split = graph.level_split(u)?;
        let p = if split.0.is_empty() {
            self.exact_p_up(graph, u)?
        } else {
            let mut p = 0.0;
            for &v in &split.0 {
                let pv = self.exact_p_down(graph, v)?;
                if pv > 0.0 {
                    let v_below_len = graph.level_split(v)?.1.len();
                    p += pv / v_below_len.max(1) as f64;
                }
            }
            p
        };
        self.exact_down.insert(u, p);
        Ok(p)
    }

    /// Cache-averaged up-phase probability estimate: keeps drawing until
    /// `target_draws` samples accumulate for `u`, then serves the mean.
    pub fn p_up<R: Rng>(
        &mut self,
        graph: &mut QueryGraph<'_, '_>,
        rng: &mut R,
        u: UserId,
    ) -> Result<f64, ApiError> {
        if self.up_cache.is_none() {
            return self.draw_up(graph, rng, u);
        }
        // Accumulate the full draw budget up front (draws are CPU-cheap —
        // every API response involved is already cached by the walk).
        loop {
            let pending = match self.up_cache.as_ref().and_then(|c| c.get(&u)) {
                Some(e) if e.n >= self.target_draws => return Ok(e.mean()),
                _ => true,
            };
            debug_assert!(pending);
            let draw = self.draw_up(graph, rng, u)?;
            let entry = self
                .up_cache
                .as_mut()
                .expect("cache enabled") // ma-lint: allow(panic-safety) reason="guarded by the is_none early return above"
                .entry(u)
                .or_default();
            entry.sum += draw;
            entry.n += 1;
        }
    }

    /// Cache-averaged down-phase probability estimate.
    pub fn p_down<R: Rng>(
        &mut self,
        graph: &mut QueryGraph<'_, '_>,
        rng: &mut R,
        u: UserId,
    ) -> Result<f64, ApiError> {
        if self.down_cache.is_none() {
            return self.draw_down(graph, rng, u);
        }
        loop {
            let pending = match self.down_cache.as_ref().and_then(|c| c.get(&u)) {
                Some(e) if e.n >= self.target_draws => return Ok(e.mean()),
                _ => true,
            };
            debug_assert!(pending);
            let draw = self.draw_down(graph, rng, u)?;
            let entry = self
                .down_cache
                .as_mut()
                .expect("cache enabled") // ma-lint: allow(panic-safety) reason="guarded by the is_none early return above"
                .entry(u)
                .or_default();
            entry.sum += draw;
            entry.n += 1;
        }
    }

    /// One unbiased draw of the up-phase visit probability `p̄(u)`
    /// (Algorithm 2): recurse through a random below-neighbor down to the
    /// graph bottom, adding the seed mass `[w ∈ seeds]/s` at every node on
    /// the way (the generalized base case for seeds that are not sinks).
    pub fn draw_up<R: Rng>(
        &mut self,
        graph: &mut QueryGraph<'_, '_>,
        rng: &mut R,
        u: UserId,
    ) -> Result<f64, ApiError> {
        let s = self.seeds.len() as f64;
        let seed_mass = if self.seed_set.contains(&u) {
            1.0 / s
        } else {
            0.0
        };
        let split = graph.level_split(u)?;
        let below = &split.1;
        if below.is_empty() {
            return Ok(seed_mass);
        }
        let v = below[rng.gen_range(0..below.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
        let below_len = below.len();
        let v_above_len = graph.level_split(v)?.0.len();
        debug_assert!(v_above_len > 0, "v has u above it");
        let pv = self.draw_up(graph, rng, v)?;
        Ok(seed_mass + below_len as f64 * pv / v_above_len.max(1) as f64)
    }

    /// One unbiased draw of the down-phase visit probability `p̂(u)`
    /// (mirrored Algorithm 2); at roots it delegates to the up-phase
    /// estimate, optionally cached across calls (§5.2).
    pub fn draw_down<R: Rng>(
        &mut self,
        graph: &mut QueryGraph<'_, '_>,
        rng: &mut R,
        u: UserId,
    ) -> Result<f64, ApiError> {
        let split = graph.level_split(u)?;
        let above = &split.0;
        if above.is_empty() {
            // Root: p̂ = p̄ (averaged when the cache is on — the paper's
            // §5.2 root cache as a special case).
            return self.p_up(graph, rng, u);
        }
        let v = above[rng.gen_range(0..above.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
        let above_len = above.len();
        let v_below_len = graph.level_split(v)?.1.len();
        debug_assert!(v_below_len > 0, "v has u below it");
        let pv = self.draw_down(graph, rng, v)?;
        Ok(above_len as f64 * pv / v_below_len.max(1) as f64)
    }
}

impl Tarw<'_, '_> {
    /// One bottom-top-bottom instance; `Ok(None)` when the chosen seed is
    /// not a subgraph member (e.g. its qualifying post is cap-hidden).
    fn run_instance<R: Rng>(&mut self, rng: &mut R) -> Result<Option<InstanceSums>, ApiError> {
        let start = self.seeds[rng.gen_range(0..self.seeds.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
        let start_level = match self.graph.member_level(start)? {
            Some(l) => l,
            None => return Ok(None),
        };
        self.tracer.set_phase(WalkPhase::Up);
        self.tracer.set_level(Some(start_level));
        // Up phase: strictly earlier levels until a root. The path buffers
        // are taken out of `self` (and handed back at the end) so the walk
        // below can borrow `self` freely while reusing their allocations
        // across instances.
        let mut up_path = std::mem::take(&mut self.up_path);
        up_path.clear();
        up_path.push(start);
        let mut current = start;
        loop {
            let split = self.graph.level_split(current)?;
            let above = &split.0;
            if above.is_empty() {
                break;
            }
            let next = above[rng.gen_range(0..above.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
            self.trace_level_move(EventName::LEVEL_UP, current, next)?;
            current = next;
            up_path.push(current);
        }
        let root = current;
        self.tracer.set_phase(WalkPhase::Down);
        // Down phase: strictly later levels until a sink. The root belongs
        // to both phases (p̂(root) = p̄(root)).
        let mut down_path = std::mem::take(&mut self.down_path);
        down_path.clear();
        down_path.push(root);
        loop {
            let split = self.graph.level_split(current)?;
            let below = &split.1;
            if below.is_empty() {
                break;
            }
            let next = below[rng.gen_range(0..below.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
            self.trace_level_move(EventName::LEVEL_DOWN, current, next)?;
            current = next;
            down_path.push(current);
        }
        self.tracer.set_phase(WalkPhase::Probability);
        self.tracer.set_level(None);

        let mut sums = InstanceSums::default();
        // Combined-phase Hansen–Hurwitz: every visit of `u` (in either
        // phase) contributes `f(u) / (p̄(u) + p̂(u))`. The expected number
        // of visits of `u` across the two phases is exactly `p̄ + p̂`, so
        // the instance sum is unbiased for the total over every node with
        // `p̄ + p̂ > 0` — the *union* of the two phases' coverage, which
        // beats the paper's equal-phase average when the down phase sees
        // more of the graph than the up phase (the typical case with
        // bottom-heavy seeds).
        for &u in up_path.iter().chain(&down_path) {
            let p_up = self.averaged_p(rng, u, Phase::Up)?;
            let p_down = self.averaged_p(rng, u, Phase::Down)?;
            self.accumulate(&mut sums, u, p_up + p_down)?;
        }
        self.up_path = up_path;
        self.down_path = down_path;
        Ok(Some(sums))
    }

    fn accumulate(&mut self, sums: &mut InstanceSums, u: UserId, p: f64) -> Result<(), ApiError> {
        if p <= 0.0 {
            return Ok(());
        }
        let (matches, num, den) = self.graph.sample(u)?;
        sums.num += num / p;
        sums.den += den / p;
        sums.count += matches as u8 as f64 / p;
        sums.used += 1;
        self.tracer.emit(
            EventName::SAMPLE,
            &[
                ("node", FieldValue::from(u.0)),
                ("p", FieldValue::F64(p)),
                ("matches", FieldValue::U64(u64::from(matches))),
            ],
        );
        Ok(())
    }

    /// Publishes the destination's level as ambient context and records
    /// the transition. The level is already memoized by the `level_split`
    /// that produced the candidate set, so this costs no API calls.
    fn trace_level_move(
        &mut self,
        name: EventName,
        from: UserId,
        to: UserId,
    ) -> Result<(), ApiError> {
        if !self.tracer.is_enabled() {
            return Ok(());
        }
        let level = self.graph.member_level(to)?;
        self.tracer.set_level(level);
        self.tracer.emit(
            name,
            &[
                ("from", FieldValue::from(from.0)),
                ("to", FieldValue::from(to.0)),
            ],
        );
        Ok(())
    }

    /// Probability estimate for one node, per the configured [`PMode`].
    fn averaged_p<R: Rng>(
        &mut self,
        rng: &mut R,
        u: UserId,
        phase: Phase,
    ) -> Result<f64, ApiError> {
        match self.p_mode {
            PMode::Exact => match phase {
                Phase::Up => self.prob.exact_p_up(&mut self.graph, u),
                Phase::Down => self.prob.exact_p_down(&mut self.graph, u),
            },
            PMode::Sampled { draws, .. } => {
                let draws = draws.max(1);
                let mut total = 0.0;
                for _ in 0..draws {
                    total += match phase {
                        Phase::Up => self.prob.p_up(&mut self.graph, rng, u)?,
                        Phase::Down => self.prob.p_down(&mut self.graph, rng, u)?,
                    };
                }
                Ok(total / draws as f64)
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Phase {
    Up,
    Down,
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_api::{ApiProfile, MicroblogClient, QueryBudget};
    use microblog_platform::scenario::{twitter_2013, Scale};
    use microblog_platform::UserMetric;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_tarw(
        scenario_seed: u64,
        rng_seed: u64,
        budget: u64,
        cfg: TarwConfig,
        query_of: impl Fn(&microblog_platform::scenario::Scenario) -> AggregateQuery,
    ) -> (Result<Estimate, EstimateError>, Option<f64>) {
        let s = twitter_2013(Scale::Tiny, scenario_seed);
        let q = query_of(&s);
        let truth = q.ground_truth(&s.platform);
        let mut client = CachingClient::new(MicroblogClient::with_budget(
            &s.platform,
            ApiProfile::twitter(),
            QueryBudget::limited(budget),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
        (estimate(&mut client, &q, &cfg, &mut rng), truth)
    }

    fn day_config() -> TarwConfig {
        TarwConfig {
            interval: Some(microblog_platform::Duration::DAY),
            ..TarwConfig::default()
        }
    }

    #[test]
    fn avg_followers_converges() {
        let (est, truth) = run_tarw(61, 1, 40_000, day_config(), |s| {
            AggregateQuery::avg(UserMetric::FollowerCount, s.keyword("privacy").unwrap())
                .in_window(s.window)
        });
        let est = est.unwrap();
        let truth = truth.unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.5, "rel {rel}: est {} truth {truth}", est.value);
        assert!(est.instances > 3, "instances {}", est.instances);
        assert!(est.std_err.is_some());
    }

    #[test]
    fn count_converges_without_collisions() {
        // MA-TARW's COUNT needs no mark-and-recapture at all. ("new york"
        // is the keyword whose level subgraph stays walk-connected even on
        // Tiny worlds.)
        let (est, truth) = run_tarw(62, 2, 60_000, day_config(), |s| {
            AggregateQuery::count(s.keyword("new york").unwrap()).in_window(s.window)
        });
        let est = est.unwrap();
        let truth = truth.unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.6, "rel {rel}: est {} truth {truth}", est.value);
    }

    #[test]
    fn interval_autoselection_works() {
        let cfg = TarwConfig {
            interval: None,
            ..TarwConfig::default()
        };
        let (est, truth) = run_tarw(63, 3, 50_000, cfg, |s| {
            AggregateQuery::avg(UserMetric::DisplayNameLength, s.keyword("privacy").unwrap())
                .in_window(s.window)
        });
        let est = est.unwrap();
        let truth = truth.unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.4, "rel {rel}: est {} truth {truth}", est.value);
    }

    #[test]
    fn exact_mode_beats_uncached_sampling() {
        let mk = |p_mode| TarwConfig {
            p_mode,
            max_instances: 40,
            ..day_config()
        };
        let q_of = |s: &microblog_platform::scenario::Scenario| {
            AggregateQuery::count(s.keyword("new york").unwrap()).in_window(s.window)
        };
        let (exact, truth) = run_tarw(64, 4, 1_000_000, mk(PMode::Exact), q_of);
        let (sampled, _) = run_tarw(
            64,
            4,
            1_000_000,
            mk(PMode::Sampled {
                draws: 2,
                cache: false,
            }),
            q_of,
        );
        let truth = truth.unwrap();
        let exact_err = exact.unwrap().relative_error(truth);
        match sampled {
            Ok(e) => {
                let sampled_err = e.relative_error(truth);
                assert!(
                    exact_err <= sampled_err * 1.5 + 0.05,
                    "exact {exact_err:.3} vs sampled {sampled_err:.3}"
                );
            }
            Err(EstimateError::NoSamples) => {}
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn budget_exhaustion_finalizes_partial_run() {
        let (est, _) = run_tarw(65, 5, 3_000, day_config(), |s| {
            AggregateQuery::avg(UserMetric::FollowerCount, s.keyword("new york").unwrap())
                .in_window(s.window)
        });
        match est {
            Ok(e) => assert!(e.cost <= 3_000),
            Err(EstimateError::NoSamples) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
