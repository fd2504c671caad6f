//! The MICROBLOG-ANALYZER facade (Figure 1).
//!
//! Takes an aggregate query, a query budget and an algorithm choice;
//! returns an [`Estimate`]. All platform access goes through a fresh
//! budget-limited [`CachingClient`].

use crate::checkpoint::{self, CheckpointCtl, SamplerState, WalkerCheckpoint};
use crate::error::EstimateError;
use crate::estimate::Estimate;
use crate::query::AggregateQuery;
use crate::view::ViewKind;
use crate::walker::{drive, mhrw, mr, multi, snowball, srw, tarw};
use microblog_api::cache::{CacheLayer, CacheStats};
use microblog_api::{
    ApiProfile, CachingClient, MicroblogClient, PrefetchSink, QueryBudget, ResilienceStats,
    ResilientClient, RetryPolicy,
};
use microblog_obs::{Category, FieldValue, Tracer, WalkPhase};
use microblog_platform::{ApiBackend, Duration, Platform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which estimation algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Simple random walk over the full social graph (Fig. 2/3 baseline).
    SrwFullGraph,
    /// Simple random walk over the term-induced subgraph (§4.1 baseline).
    SrwTermInduced,
    /// MA-SRW: simple random walk over the level-by-level subgraph
    /// (Algorithm 1). `interval = None` uses one day, the paper's default
    /// segmentation example.
    MaSrw {
        /// Level interval `T`.
        interval: Option<Duration>,
    },
    /// MA-TARW: topology-aware random walk (Algorithm 3). `interval =
    /// None` auto-selects via pilot walks (§4.2.3).
    MaTarw {
        /// Level interval `T`; `None` = pilot selection.
        interval: Option<Duration>,
    },
    /// Mark-and-recapture baseline on the given view (COUNT only).
    MarkRecapture {
        /// The view to walk.
        view: ViewKind,
    },
    /// Simple random walk over an arbitrary view — the general form behind
    /// the ablations (e.g. Fig. 4's partial intra-edge removal).
    SrwView {
        /// The view to walk.
        view: ViewKind,
    },
    /// Metropolis–Hastings random walk over the given view — the slower
    /// oblivious baseline the paper dismisses via Gjoka et al. [13].
    Mhrw {
        /// The view to walk.
        view: ViewKind,
    },
    /// BFS/DFS snowball crawl — the classic *biased* baseline from the
    /// graph-sampling literature ([13, 19]).
    Snowball {
        /// The view to crawl.
        view: ViewKind,
        /// Crawl order.
        order: crate::walker::snowball::CrawlOrder,
    },
}

impl Algorithm {
    /// Short display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::SrwFullGraph => "SRW(social)",
            Algorithm::SrwTermInduced => "SRW(term)",
            Algorithm::MaSrw { .. } => "MA-SRW",
            Algorithm::MaTarw { .. } => "MA-TARW",
            Algorithm::MarkRecapture { .. } => "M&R",
            Algorithm::SrwView { .. } => "SRW(view)",
            Algorithm::Mhrw { .. } => "MHRW",
            Algorithm::Snowball { order, .. } => match order {
                crate::walker::snowball::CrawlOrder::Bfs => "BFS",
                crate::walker::snowball::CrawlOrder::Dfs => "DFS",
            },
        }
    }
}

/// Everything one estimation run produced: the estimate (or why there is
/// none), what it charged, and what the resilience layer absorbed along
/// the way.
#[must_use = "a RunReport accounts for spent API budget; dropping it discards the charge"]
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The estimate, or the failure that prevented one.
    pub outcome: Result<Estimate, EstimateError>,
    /// API calls actually charged to the run's budget (≤ the budget; the
    /// unspent remainder is refundable by an admission controller).
    pub charged: u64,
    /// Cache hit/miss accounting.
    pub cache: CacheStats,
    /// Retry/backoff/breaker accounting.
    pub resilience: ResilienceStats,
    /// `true` when the walk ended early on a fatal resilience error but
    /// still produced an estimate from the samples collected before it —
    /// a partial answer, not a full-budget one.
    pub degraded: bool,
}

/// The top-level system facade.
pub struct MicroblogAnalyzer<'p> {
    backend: &'p dyn ApiBackend,
    api: ApiProfile,
    /// Interleaved chains for SRW-family runs (1 = the classic solo walk).
    chains: usize,
    /// Optional per-chain step cap for SRW-family runs: clamps
    /// [`crate::walker::srw::SrwConfig::max_steps`]. Bounds the CPU a walk
    /// can spend free-stepping over already-memoized nodes after its API
    /// budget stops mattering.
    step_cap: Option<usize>,
    /// Optional fetch-pipeline sink walks announce upcoming fetches to.
    prefetch: Option<&'p dyn PrefetchSink>,
}

impl<'p> MicroblogAnalyzer<'p> {
    /// Creates an analyzer over `platform` accessed through `api`.
    pub fn new(platform: &'p Platform, api: ApiProfile) -> Self {
        Self::with_backend(platform, api)
    }

    /// Creates an analyzer over an arbitrary backend — e.g. a
    /// [`microblog_platform::FaultyPlatform`] injecting failures.
    pub fn with_backend(backend: &'p dyn ApiBackend, api: ApiProfile) -> Self {
        MicroblogAnalyzer {
            backend,
            api,
            chains: 1,
            step_cap: None,
            prefetch: None,
        }
    }

    /// Runs SRW-family algorithms as `chains` interleaved chains
    /// ([`crate::walker::multi`]). A *run*-level knob, not part of
    /// [`Algorithm`]: job specs and journals stay stable, and the same
    /// logical job can be executed solo or interleaved.
    pub fn with_chains(mut self, chains: usize) -> Self {
        self.chains = chains.max(1);
        self
    }

    /// Caps SRW-family walks at `cap` steps per chain (clamping the
    /// config's own `max_steps`). Like [`Self::with_chains`] a run-level
    /// knob: it never changes *what* a walk fetches per step, only how
    /// long the free post-coverage tail may spin, so checkpoints and job
    /// specs stay stable.
    pub fn with_step_cap(mut self, cap: usize) -> Self {
        self.step_cap = Some(cap.max(1));
        self
    }

    /// Attaches a prefetch sink (normally a
    /// [`microblog_api::FetchScheduler`]): walkers announce the fetches
    /// their next steps will need so the sink can overlap the RTTs.
    /// Purely a latency optimization — estimates, charges and checkpoints
    /// are bit-identical with or without a sink.
    pub fn with_prefetch(mut self, sink: &'p dyn PrefetchSink) -> Self {
        self.prefetch = Some(sink);
        self
    }

    /// The API profile in force.
    pub fn api_profile(&self) -> &ApiProfile {
        &self.api
    }

    /// Estimates `query` with at most `budget` API calls using `algorithm`;
    /// `seed` makes the run reproducible.
    pub fn estimate(
        &self,
        query: &AggregateQuery,
        budget: u64,
        algorithm: Algorithm,
        seed: u64,
    ) -> Result<Estimate, EstimateError> {
        self.estimate_with_cache(query, budget, algorithm, seed, None)
            .map(|(est, _)| est)
    }

    /// Like [`estimate`](Self::estimate), optionally layering the query's
    /// client over a shared cross-query response cache. Shared hits are
    /// charged logically (see `microblog_api::cache`), so the returned
    /// estimate and its cost are bit-identical to an uncached run with the
    /// same seed; the accompanying [`CacheStats`] report how many platform
    /// fetches the layer absorbed.
    pub fn estimate_with_cache(
        &self,
        query: &AggregateQuery,
        budget: u64,
        algorithm: Algorithm,
        seed: u64,
        shared: Option<Arc<dyn CacheLayer>>,
    ) -> Result<(Estimate, CacheStats), EstimateError> {
        let report = self.run(query, budget, algorithm, seed, shared, &RetryPolicy::none());
        let cache = report.cache;
        report.outcome.map(|est| (est, cache))
    }

    /// The full-fidelity run: like
    /// [`estimate_with_cache`](Self::estimate_with_cache) but with a
    /// [`RetryPolicy`] absorbing retryable API failures, and returning a
    /// [`RunReport`] with charge/cache/resilience accounting either way.
    ///
    /// Retries never touch the walk's budget or RNG (failed attempts
    /// charge the report's waste meter instead), so when every fault is
    /// absorbed the estimate is bit-identical to a fault-free run with
    /// the same seed. When the policy gives up mid-walk — deadline,
    /// retries exhausted, breaker open — the walk finalizes with the
    /// samples it has and the report is marked [`RunReport::degraded`].
    pub fn run(
        &self,
        query: &AggregateQuery,
        budget: u64,
        algorithm: Algorithm,
        seed: u64,
        shared: Option<Arc<dyn CacheLayer>>,
        policy: &RetryPolicy,
    ) -> RunReport {
        self.run_traced(
            query,
            budget,
            algorithm,
            seed,
            shared,
            policy,
            Tracer::disabled(),
        )
    }

    /// Like [`run`](Self::run), with a [`Tracer`] threaded through the
    /// whole client stack and the walkers. Tracing is strictly
    /// observational: the walk RNG, the budget charges and therefore the
    /// estimate are bit-identical whether the tracer is enabled, disabled
    /// or sampled. With a logical-tick [`microblog_obs::TelemetryClock`]
    /// the recorded event stream is itself byte-for-byte reproducible.
    #[allow(clippy::too_many_arguments)]
    pub fn run_traced(
        &self,
        query: &AggregateQuery,
        budget: u64,
        algorithm: Algorithm,
        seed: u64,
        shared: Option<Arc<dyn CacheLayer>>,
        policy: &RetryPolicy,
        tracer: Tracer,
    ) -> RunReport {
        self.run_recoverable(
            query,
            budget,
            algorithm,
            seed,
            shared,
            policy,
            tracer,
            &mut CheckpointCtl::disabled(),
            None,
        )
    }

    /// The crash-safe run: like [`run_traced`](Self::run_traced), plus a
    /// [`CheckpointCtl`] through which the walk emits checkpoints at the
    /// control's cadence, and an optional [`WalkerCheckpoint`] to resume
    /// from. A resumed run restores the client memo from the pristine
    /// platform, pre-charges the budget with the checkpointed spend, and
    /// repositions the RNG — so its estimate, total charge and sample
    /// counts are **bit-identical** to the uninterrupted run's.
    #[allow(clippy::too_many_arguments)]
    pub fn run_recoverable(
        &self,
        query: &AggregateQuery,
        budget: u64,
        algorithm: Algorithm,
        seed: u64,
        shared: Option<Arc<dyn CacheLayer>>,
        policy: &RetryPolicy,
        tracer: Tracer,
        ctl: &mut CheckpointCtl<'_>,
        resume: Option<&WalkerCheckpoint>,
    ) -> RunReport {
        let limit = budget;
        let budget = QueryBudget::limited(budget);
        let inner = MicroblogClient::from_backend(self.backend, self.api.clone(), budget.clone())
            .with_tracer(tracer.clone());
        let span = if tracer.is_enabled() {
            tracer.span_start(
                Category::Job,
                "estimate",
                &[
                    ("algorithm", FieldValue::from(algorithm.name())),
                    ("seed", FieldValue::U64(seed)),
                    ("budget", FieldValue::U64(limit)),
                ],
            )
        } else {
            0
        };
        // Derive the jitter stream from the job seed so concurrent jobs
        // don't share backoff sequences; the walk RNG is untouched.
        let policy = policy.with_jitter_seed(policy.jitter_seed ^ seed.rotate_left(17));
        let resilient = ResilientClient::new(inner, policy);
        let mut client = CachingClient::resilient(resilient, shared);
        if let Some(sink) = self.prefetch {
            client = client.with_prefetch(sink);
        }
        ctl.set_job(algorithm.name(), seed);
        // Rebuild the checkpointed context, if resuming: memo from the
        // pristine platform, budget pre-charged with the checkpointed
        // spend, RNG repositioned on its stream.
        let setup: Result<(ChaCha8Rng, Option<&SamplerState>), EstimateError> = match resume {
            Some(cp) => (|| {
                if cp.seed != seed {
                    return Err(EstimateError::Unsupported(
                        "checkpoint seed does not match the job",
                    ));
                }
                let rng = cp.rng.to_chacha8().ok_or(EstimateError::Unsupported(
                    "checkpoint carries a malformed RNG state",
                ))?;
                checkpoint::restore_client(
                    &mut client,
                    &cp.client,
                    self.backend.store(),
                    &self.api,
                )?;
                client.client().budget().charge(cp.client.charged)?;
                Ok((rng, Some(&cp.sampler)))
            })(),
            None => Ok((ChaCha8Rng::seed_from_u64(seed), None)),
        };
        // Build the algorithm's sampler — resuming from the checkpoint's
        // state, which the sampler checks is its own — and drive it.
        let result = setup.and_then(|(mut rng, state)| {
            let rng = &mut rng;
            let view = match algorithm {
                Algorithm::SrwFullGraph => ViewKind::FullGraph,
                Algorithm::SrwTermInduced => ViewKind::TermInduced,
                Algorithm::MaSrw { interval } => ViewKind::level(interval.unwrap_or(Duration::DAY)),
                Algorithm::SrwView { view } => view,
                Algorithm::MaTarw { interval } => {
                    let cfg = tarw::TarwConfig {
                        interval,
                        ..Default::default()
                    };
                    return drive(tarw::Tarw::new(&mut client, query, &cfg, state)?, rng, ctl);
                }
                Algorithm::MarkRecapture { view } => {
                    let cfg = mr::MrConfig::new(view);
                    return drive(mr::sampler(&mut client, query, &cfg, rng, state)?, rng, ctl);
                }
                Algorithm::Mhrw { view } => {
                    let cfg = mhrw::MhrwConfig::new(view);
                    return drive(
                        mhrw::Mhrw::new(&mut client, query, &cfg, rng, state)?,
                        rng,
                        ctl,
                    );
                }
                Algorithm::Snowball { view, order } => {
                    let cfg = snowball::SnowballConfig {
                        view,
                        order,
                        max_nodes: usize::MAX,
                    };
                    let sampler = snowball::Snowball::new(&mut client, query, &cfg, rng, state)?;
                    return drive(sampler, rng, ctl);
                }
            };
            // The SRW family: the step cap clamps each chain, and with
            // `chains > 1` the interleaved executor runs (and resumes)
            // instead of the solo walk — their checkpoint variants differ,
            // so a job must keep its chain count across crash/resume.
            let mut cfg = srw::SrwConfig::new(view);
            if let Some(cap) = self.step_cap {
                cfg.max_steps = cfg.max_steps.min(cap);
            }
            if self.chains > 1 {
                let cfg = multi::MultiSrwConfig {
                    srw: cfg,
                    chains: self.chains,
                };
                drive(
                    multi::MultiSrw::new(&mut client, query, &cfg, seed, state)?,
                    rng,
                    ctl,
                )
            } else {
                drive(
                    srw::Srw::new(&mut client, query, &cfg, rng, state)?,
                    rng,
                    ctl,
                )
            }
        });
        let cache = *client.cache_stats();
        let resilience = client.resilience().clone();
        let degraded = resilience.degraded() && result.is_ok();
        tracer.set_phase(WalkPhase::Idle);
        tracer.set_level(None);
        if tracer.is_enabled() {
            let outcome = match &result {
                Ok(_) => FieldValue::from("ok"),
                Err(e) => FieldValue::from(e.to_string()),
            };
            tracer.span_end(
                Category::Job,
                "estimate",
                span,
                &[
                    ("charged", FieldValue::U64(budget.spent())),
                    ("outcome", outcome),
                    ("degraded", FieldValue::U64(u64::from(degraded))),
                ],
            );
        }
        RunReport {
            outcome: result,
            charged: budget.spent(),
            cache,
            resilience,
            degraded,
        }
    }

    /// Exact ground truth for `query` (from the simulator's omniscient
    /// view; used only for evaluation, never by the estimators).
    pub fn ground_truth(&self, query: &AggregateQuery) -> Option<f64> {
        query.ground_truth(self.backend.store())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_platform::scenario::{twitter_2013, Scale};
    use microblog_platform::UserMetric;

    #[test]
    fn facade_runs_every_algorithm() {
        let s = twitter_2013(Scale::Tiny, 81);
        let kw = s.keyword("privacy").unwrap();
        let analyzer = MicroblogAnalyzer::new(&s.platform, ApiProfile::twitter());
        let avg = AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(s.window);
        let count = AggregateQuery::count(kw).in_window(s.window);
        let truth_avg = analyzer.ground_truth(&avg).unwrap();
        assert!(truth_avg > 0.0);

        for (algo, q) in [
            (
                Algorithm::MaTarw {
                    interval: Some(Duration::DAY),
                },
                &avg,
            ),
            (Algorithm::MaSrw { interval: None }, &avg),
            (Algorithm::SrwTermInduced, &avg),
            (
                Algorithm::MarkRecapture {
                    view: ViewKind::level(Duration::DAY),
                },
                &count,
            ),
        ] {
            let est = analyzer.estimate(q, 50_000, algo, 3).unwrap();
            assert!(
                est.value.is_finite(),
                "{} produced {}",
                algo.name(),
                est.value
            );
            assert!(est.cost <= 50_000);
            assert!(est.samples > 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = twitter_2013(Scale::Tiny, 82);
        let kw = s.keyword("boston").unwrap();
        let analyzer = MicroblogAnalyzer::new(&s.platform, ApiProfile::twitter());
        let q = AggregateQuery::avg(UserMetric::DisplayNameLength, kw).in_window(s.window);
        let algo = Algorithm::MaTarw {
            interval: Some(Duration::DAY),
        };
        let a = analyzer.estimate(&q, 20_000, algo, 9).unwrap();
        let b = analyzer.estimate(&q, 20_000, algo, 9).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.cost, b.cost);
        // A different RNG seed takes a different path.
        let c = analyzer.estimate(&q, 20_000, algo, 10).unwrap();
        assert_ne!(a.value, c.value);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::MaTarw { interval: None }.name(), "MA-TARW");
        assert_eq!(Algorithm::MaSrw { interval: None }.name(), "MA-SRW");
        assert_eq!(Algorithm::SrwFullGraph.name(), "SRW(social)");
        assert_eq!(Algorithm::SrwTermInduced.name(), "SRW(term)");
        assert_eq!(
            Algorithm::MarkRecapture {
                view: ViewKind::TermInduced
            }
            .name(),
            "M&R"
        );
    }
}
