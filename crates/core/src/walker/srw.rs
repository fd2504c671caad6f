//! MA-SRW and the oblivious random-walk baselines (§4, Algorithm 1).
//!
//! A simple random walk over the chosen graph view, seeded from the search
//! API. After a burn-in prefix the (thinned) visits feed the
//! [`super::SampleAccumulator`]: AVG comes from the degree-corrected ratio
//! estimator, COUNT/SUM additionally need the Katzir collision size
//! estimate of the walked graph. Run over [`ViewKind::level`] this is the
//! paper's **MA-SRW**; over [`ViewKind::TermInduced`] /
//! [`ViewKind::FullGraph`] it is the respective baseline of Figures 2–3.
//!
//! [`SrwChain::step`] is the one SRW step body: the solo walk ([`Srw`])
//! steps a single chain with the run's RNG, the interleaved executor
//! ([`super::multi`]) steps many chains with their own.

use super::{drive, mismatch, Flow, SampleAccumulator, Sampler};
use crate::checkpoint::{CheckpointCtl, CheckpointRng, SamplerState, SrwState};
use crate::error::EstimateError;
use crate::estimate::{Estimate, RunningStats};
use crate::query::AggregateQuery;
use crate::seeds::fetch_seeds;
use crate::view::{QueryGraph, ViewKind};
use microblog_api::{ApiError, CachingClient};
use microblog_graph::diagnostics::geweke_z_default;
use microblog_obs::{EventName, FieldValue, Tracer, WalkPhase};
use microblog_platform::{Timestamp, UserId};
use rand::Rng;

/// Emit a running Geweke z-score every this many kept samples (tracing
/// only; the chain history is not accumulated otherwise).
const GEWEKE_EVERY: usize = 32;

/// Batch size of the batch-mean standard error.
const BATCH: usize = 64;

/// Configuration of the simple-random-walk estimator.
#[derive(Clone, Copy, Debug)]
pub struct SrwConfig {
    /// Graph view to walk.
    pub view: ViewKind,
    /// Transitions discarded before sampling starts (per chain).
    pub burn_in: usize,
    /// Keep every `thinning`-th visit after burn-in.
    pub thinning: usize,
    /// Extra spacing factor applied to samples feeding the collision
    /// counter (collision estimation needs closer-to-independent samples).
    pub collision_spacing: usize,
    /// Hard cap on total transitions. The budget is the usual stopper;
    /// the cap guards runs where every needed response is already cached
    /// (cache hits are free, so the budget alone would never exhaust).
    pub max_steps: usize,
}

impl SrwConfig {
    /// MA-SRW defaults over the given view.
    pub fn new(view: ViewKind) -> Self {
        SrwConfig {
            view,
            burn_in: 100,
            thinning: 3,
            collision_spacing: 2,
            max_steps: 200_000,
        }
    }
}

/// Runs the walk until the client's budget is exhausted, then finalizes.
///
/// Dangling nodes (no neighbors under the view) restart the chain from a
/// fresh random seed, paying that chain's burn-in again.
pub fn estimate<R: CheckpointRng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    config: &SrwConfig,
    rng: &mut R,
) -> Result<Estimate, EstimateError> {
    let sampler = Srw::new(client, query, config, rng, None)?;
    drive(sampler, rng, &mut CheckpointCtl::disabled())
}

/// What every SRW chain of a run shares: the view (whose memoized
/// neighbor lists a warm step reads without re-filtering), the query and
/// the seeds.
pub(crate) struct SrwWalk<'a, 'p> {
    pub(crate) graph: QueryGraph<'a, 'p>,
    pub(crate) query: &'a AggregateQuery,
    pub(crate) config: SrwConfig,
    pub(crate) seeds: Vec<UserId>,
    now: Timestamp,
    tracer: Tracer,
}

impl<'a, 'p> SrwWalk<'a, 'p> {
    /// Fetches the seeds and opens the view.
    pub(crate) fn new(
        client: &'a mut CachingClient<'p>,
        query: &'a AggregateQuery,
        config: &SrwConfig,
    ) -> Result<Self, EstimateError> {
        let tracer = client.tracer().clone();
        let seeds = fetch_seeds(client, query)?;
        let now = client.now();
        Ok(SrwWalk {
            graph: QueryGraph::new(client, query, config.view),
            query,
            config: *config,
            seeds,
            now,
            tracer,
        })
    }
}

/// One simple-random-walk chain: the in-memory form of [`SrwState`].
pub(crate) struct SrwChain {
    pub(crate) current: UserId,
    step_in_chain: usize,
    pub(crate) total_steps: usize,
    kept: usize,
    pub(crate) accum: SampleAccumulator,
    /// Batch means for a standard error on AVG-style outputs.
    batch: RunningStats,
    batch_accum: SampleAccumulator,
    /// Per-sample numerators for the running Geweke convergence check:
    /// kept by the solo walk only, and filled only while tracing.
    history: Option<Vec<f64>>,
}

impl SrwChain {
    /// A chain starting at a random seed drawn from `rng`.
    pub(crate) fn fresh<R: Rng>(seeds: &[UserId], rng: &mut R) -> Self {
        let current = seeds[rng.gen_range(0..seeds.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
        SrwChain {
            current,
            step_in_chain: 0,
            total_steps: 0,
            kept: 0,
            accum: SampleAccumulator::new(),
            batch: RunningStats::new(),
            batch_accum: SampleAccumulator::new(),
            history: None,
        }
    }

    /// The chain a checkpoint captured.
    pub(crate) fn restore(state: &SrwState) -> Self {
        SrwChain {
            current: state.current,
            step_in_chain: state.step_in_chain as usize,
            total_steps: state.total_steps as usize,
            kept: state.kept as usize,
            accum: SampleAccumulator::restore(&state.accum),
            batch: RunningStats::restore(state.batch),
            batch_accum: SampleAccumulator::restore(&state.batch_accum),
            history: None,
        }
    }

    pub(crate) fn snapshot(&self) -> SrwState {
        SrwState {
            current: self.current,
            step_in_chain: self.step_in_chain as u64,
            total_steps: self.total_steps as u64,
            kept: self.kept as u64,
            accum: self.accum.snapshot(),
            batch: self.batch.snapshot(),
            batch_accum: self.batch_accum.snapshot(),
        }
    }

    /// Whether the chain has taken its last step.
    pub(crate) fn capped(&self, config: &SrwConfig) -> bool {
        self.total_steps >= config.max_steps
    }

    /// Whether the *next* step will hit the sampling branch — the
    /// interleaved planner uses it to decide if the chain's own timeline
    /// must be announced.
    pub(crate) fn will_sample(&self, config: &SrwConfig) -> bool {
        self.step_in_chain >= config.burn_in
            && self.step_in_chain.is_multiple_of(config.thinning.max(1))
    }

    /// Advances the chain by one transition. `Ok(false)` means the chain
    /// is at its step cap and did not move; API errors, walk-ending ones
    /// included, propagate for the caller to settle. `index` labels the
    /// chain's trace events.
    pub(crate) fn step<R: Rng>(
        &mut self,
        walk: &mut SrwWalk<'_, '_>,
        index: usize,
        rng: &mut R,
    ) -> Result<bool, ApiError> {
        let config = walk.config;
        if self.capped(&config) {
            return Ok(false);
        }
        let tracer = &walk.tracer;
        tracer.set_phase(if self.step_in_chain < config.burn_in {
            WalkPhase::BurnIn
        } else {
            WalkPhase::Walk
        });
        self.total_steps += 1;
        let nbrs = walk.graph.neighbors(self.current)?;
        // `step_in_chain` moves by single increments (restarts reset it
        // below burn-in), so the crossing iteration is exactly `== burn_in`.
        if config.burn_in > 0 && self.step_in_chain == config.burn_in {
            tracer.emit(
                EventName::BURNIN_END,
                &[
                    ("chain", FieldValue::from(index)),
                    ("step", FieldValue::from(self.total_steps)),
                    ("chain_step", FieldValue::from(self.step_in_chain)),
                ],
            );
        }
        if self.will_sample(&config) {
            let view = walk.graph.view(self.current)?;
            let (matches, num, den) = walk.query.sample_values(&view, walk.now);
            let collide = walk.query.needs_size_estimate()
                && self.kept.is_multiple_of(config.collision_spacing.max(1));
            let (u, d) = (self.current.0, nbrs.len());
            self.accum.push(u, d, matches, num, den, collide);
            self.batch_accum.push(u, d, matches, num, den, false);
            self.kept += 1;
            tracer.emit(
                EventName::SAMPLE,
                &[
                    ("chain", FieldValue::from(index)),
                    ("node", FieldValue::from(u)),
                    ("degree", FieldValue::from(d)),
                    ("matches", FieldValue::U64(u64::from(matches))),
                    ("collide", FieldValue::U64(u64::from(collide))),
                ],
            );
            if let (Some(history), true) = (&mut self.history, tracer.is_enabled()) {
                history.push(num);
                if history.len().is_multiple_of(GEWEKE_EVERY) {
                    if let Some(z) = geweke_z_default(history) {
                        tracer.emit(
                            EventName::GEWEKE,
                            &[
                                ("z", FieldValue::F64(z)),
                                ("kept", FieldValue::from(history.len())),
                            ],
                        );
                    }
                }
            }
            if self.batch_accum.samples() >= BATCH {
                if let Some(v) = self.batch_accum.finalize(walk.query) {
                    self.batch.push(v);
                }
                self.batch_accum = SampleAccumulator::new();
            }
        }
        if nbrs.is_empty() {
            // Dangling under this view: restart the chain from a seed.
            tracer.emit(
                EventName::RESTART,
                &[
                    ("chain", FieldValue::from(index)),
                    ("node", FieldValue::from(self.current.0)),
                    ("step", FieldValue::from(self.total_steps)),
                ],
            );
            self.current = walk.seeds[rng.gen_range(0..walk.seeds.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
            self.step_in_chain = 0;
            return Ok(true);
        }
        let next = nbrs[rng.gen_range(0..nbrs.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
        tracer.emit(
            EventName::STEP,
            &[
                ("chain", FieldValue::from(index)),
                ("from", FieldValue::from(self.current.0)),
                ("to", FieldValue::from(next.0)),
                ("degree", FieldValue::from(nbrs.len())),
            ],
        );
        self.current = next;
        self.step_in_chain += 1;
        Ok(true)
    }
}

/// The solo simple random walk: one chain on the run's RNG, checkpointed
/// as [`SamplerState::Srw`].
pub(crate) struct Srw<'a, 'p> {
    walk: SrwWalk<'a, 'p>,
    chain: SrwChain,
}

impl<'a, 'p> Srw<'a, 'p> {
    /// A solo walk, fresh or resumed from an [`SamplerState::Srw`]
    /// checkpoint (the caller has restored the client memo and RNG from
    /// the same checkpoint).
    pub(crate) fn new<R: Rng>(
        client: &'a mut CachingClient<'p>,
        query: &'a AggregateQuery,
        config: &SrwConfig,
        rng: &mut R,
        resume: Option<&SamplerState>,
    ) -> Result<Self, EstimateError> {
        let resume = match resume {
            None => None,
            Some(SamplerState::Srw(state)) => Some(state),
            Some(_) => return Err(mismatch()),
        };
        let walk = SrwWalk::new(client, query, config)?;
        let mut chain = match resume {
            Some(state) => SrwChain::restore(state),
            None => SrwChain::fresh(&walk.seeds, rng),
        };
        chain.history = Some(Vec::new());
        Ok(Srw { walk, chain })
    }
}

impl<'p> Sampler<'p> for Srw<'_, 'p> {
    fn client(&mut self) -> &mut CachingClient<'p> {
        self.walk.graph.client_mut()
    }

    fn snapshot(&self) -> Option<(u64, SamplerState)> {
        let state = self.chain.snapshot();
        Some((state.total_steps, SamplerState::Srw(state)))
    }

    fn step<R: CheckpointRng>(&mut self, rng: &mut R) -> Result<Flow, EstimateError> {
        Ok(if self.chain.step(&mut self.walk, 0, rng)? {
            Flow::Continue
        } else {
            Flow::Stop
        })
    }

    fn finish(self) -> Result<Estimate, EstimateError> {
        let chain = &self.chain;
        let value = chain
            .accum
            .finalize(self.walk.query)
            .ok_or(EstimateError::NoSamples)?;
        Ok(Estimate {
            value,
            std_err: chain.batch.std_err(),
            cost: self.walk.graph.cost(),
            samples: chain.accum.samples(),
            instances: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_api::{ApiError, ApiProfile, MicroblogClient, QueryBudget};
    use microblog_platform::scenario::{twitter_2013, Scale};
    use microblog_platform::{Duration, UserMetric};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run(
        scenario_seed: u64,
        rng_seed: u64,
        budget: u64,
        view: ViewKind,
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
        let mut cfg = SrwConfig::new(view);
        cfg.burn_in = 30;
        let est = estimate(&mut client, &q, &cfg, &mut rng);
        (est, truth)
    }

    #[test]
    fn avg_on_level_view_converges() {
        let (est, truth) = run(51, 1, 40_000, ViewKind::level(Duration::DAY), |s| {
            AggregateQuery::avg(UserMetric::FollowerCount, s.keyword("privacy").unwrap())
                .in_window(s.window)
        });
        let est = est.unwrap();
        let truth = truth.unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.5, "rel err {rel}: est {} truth {truth}", est.value);
        assert!(est.cost <= 40_000);
        assert!(est.samples > 50, "samples {}", est.samples);
    }

    #[test]
    fn count_on_level_view_is_in_range() {
        let (est, truth) = run(52, 2, 60_000, ViewKind::level(Duration::DAY), |s| {
            AggregateQuery::count(s.keyword("new york").unwrap()).in_window(s.window)
        });
        let est = est.unwrap();
        let truth = truth.unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.6, "rel err {rel}: est {} truth {truth}", est.value);
    }

    #[test]
    fn tiny_budget_yields_no_samples() {
        let (est, _) = run(53, 3, 40, ViewKind::TermInduced, |s| {
            AggregateQuery::count(s.keyword("privacy").unwrap()).in_window(s.window)
        });
        match est {
            Err(EstimateError::NoSamples) => {}
            Err(EstimateError::Api(ApiError::BudgetExhausted { .. })) => {
                panic!("budget exhaustion must be handled, not surfaced")
            }
            Err(EstimateError::NoSeeds) => {}
            other => panic!("expected NoSamples, got {other:?}"),
        }
    }

    #[test]
    fn respects_budget_exactly() {
        let budget = 5_000;
        let (est, _) = run(54, 4, budget, ViewKind::level(Duration::DAY), |s| {
            AggregateQuery::avg(UserMetric::DisplayNameLength, s.keyword("boston").unwrap())
                .in_window(s.window)
        });
        let est = est.unwrap();
        assert!(est.cost <= budget, "cost {} over budget", est.cost);
        // The walk either exhausts the budget or the view's reachable
        // region got fully cached (free steps thereafter).
        assert!(est.cost > 0);
    }
}
