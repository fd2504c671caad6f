//! Metropolis–Hastings random walk baseline.
//!
//! The paper bases MA-SRW on the simple random walk because Gjoka et
//! al. [13] report SRW converging 1.5–8× faster than MHRW ("which was our
//! observation as well", §7). This module provides the MHRW estimator so
//! that comparison is reproducible: the walk targets the *uniform*
//! distribution (accept a proposed neighbor `v` with probability
//! `min(1, d(u)/d(v))`), so samples need no degree reweighting — but every
//! proposal costs a neighbor fetch of `v` whether accepted or not, and
//! rejected proposals stall the chain.

use super::{drive, mismatch, Flow, Sampler};
use crate::checkpoint::{CheckpointCtl, CheckpointRng, MhrwState, SamplerState};
use crate::error::EstimateError;
use crate::estimate::{Estimate, RunningStats};
use crate::query::{Aggregate, AggregateQuery};
use crate::seeds::fetch_seeds;
use crate::view::{QueryGraph, ViewKind};
use microblog_api::CachingClient;
use microblog_graph::sizing::CollisionCounter;
use microblog_obs::{EventName, FieldValue, Tracer, WalkPhase};
use microblog_platform::UserId;
use rand::Rng;

/// Batch size of the batch-mean standard error.
const BATCH: usize = 64;

/// Configuration of the MHRW estimator.
#[derive(Clone, Copy, Debug)]
pub struct MhrwConfig {
    /// Graph view to walk.
    pub view: ViewKind,
    /// Transitions discarded before sampling starts (per chain).
    pub burn_in: usize,
    /// Keep every `thinning`-th visit after burn-in.
    pub thinning: usize,
    /// Hard cap on total transitions (see [`super::srw::SrwConfig::max_steps`]).
    pub max_steps: usize,
}

impl MhrwConfig {
    /// Defaults matching the SRW configuration for a fair comparison.
    pub fn new(view: ViewKind) -> Self {
        MhrwConfig {
            view,
            burn_in: 100,
            thinning: 3,
            max_steps: 200_000,
        }
    }
}

/// Runs the MHRW until the budget is exhausted, then finalizes.
///
/// Under the uniform stationary distribution, AVG-type aggregates are the
/// plain sample mean over matching samples; COUNT/SUM still need a
/// population-size estimate, for which the collision counter is fed with
/// degree 1 for every node (uniform sampling is the `d ≡ const` special
/// case of the Katzir estimator).
pub fn estimate<R: CheckpointRng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    config: &MhrwConfig,
    rng: &mut R,
) -> Result<Estimate, EstimateError> {
    let sampler = Mhrw::new(client, query, config, rng, None)?;
    drive(sampler, rng, &mut CheckpointCtl::disabled())
}

/// The MHRW walk, checkpointed as [`SamplerState::Mhrw`].
pub(crate) struct Mhrw<'a, 'p> {
    graph: QueryGraph<'a, 'p>,
    query: &'a AggregateQuery,
    config: MhrwConfig,
    seeds: Vec<UserId>,
    tracer: Tracer,
    phase: WalkPhase,
    current: UserId,
    step: usize,
    total_steps: usize,
    sum_num: f64,
    sum_den: f64,
    sum_match: f64,
    samples: usize,
    collisions: CollisionCounter,
    batch: RunningStats,
    /// The in-progress batch: `(num, den-equivalent)` per kept sample.
    batch_vals: Vec<(f64, f64)>,
}

impl<'a, 'p> Mhrw<'a, 'p> {
    /// The walk, fresh or resumed from a [`SamplerState::Mhrw`]
    /// checkpoint (client memo and RNG restored by the caller).
    pub(crate) fn new<R: Rng>(
        client: &'a mut CachingClient<'p>,
        query: &'a AggregateQuery,
        config: &MhrwConfig,
        rng: &mut R,
        resume: Option<&SamplerState>,
    ) -> Result<Self, EstimateError> {
        let resume = match resume {
            None => None,
            Some(SamplerState::Mhrw(state)) => Some(state),
            Some(_) => return Err(mismatch()),
        };
        let tracer = client.tracer().clone();
        let seeds = fetch_seeds(client, query)?;
        let graph = QueryGraph::new(client, query, config.view);
        let fresh;
        let state = match resume {
            Some(state) => state,
            None => {
                fresh = MhrwState {
                    current: seeds[rng.gen_range(0..seeds.len())], // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
                    step: 0,
                    total_steps: 0,
                    sum_num_bits: 0,
                    sum_den_bits: 0,
                    sum_match_bits: 0,
                    samples: 0,
                    collisions: CollisionCounter::new().snapshot(),
                    batch: RunningStats::new().snapshot(),
                    batch_vals: Vec::new(),
                };
                &fresh
            }
        };
        let phase = if config.burn_in > 0 && (state.step as usize) < config.burn_in {
            WalkPhase::BurnIn
        } else {
            WalkPhase::Walk
        };
        tracer.set_phase(phase);
        Ok(Mhrw {
            graph,
            query,
            config: *config,
            seeds,
            tracer,
            phase,
            current: state.current,
            step: state.step as usize,
            total_steps: state.total_steps as usize,
            sum_num: f64::from_bits(state.sum_num_bits),
            sum_den: f64::from_bits(state.sum_den_bits),
            sum_match: f64::from_bits(state.sum_match_bits),
            samples: state.samples as usize,
            collisions: CollisionCounter::restore(&state.collisions),
            batch: RunningStats::restore(state.batch),
            batch_vals: state
                .batch_vals
                .iter()
                .map(|&(n, d)| (f64::from_bits(n), f64::from_bits(d)))
                .collect(),
        })
    }
}

impl<'p> Sampler<'p> for Mhrw<'_, 'p> {
    fn client(&mut self) -> &mut CachingClient<'p> {
        self.graph.client_mut()
    }

    fn snapshot(&mut self) -> Option<(u64, SamplerState)> {
        let state = MhrwState {
            current: self.current,
            step: self.step as u64,
            total_steps: self.total_steps as u64,
            sum_num_bits: self.sum_num.to_bits(),
            sum_den_bits: self.sum_den.to_bits(),
            sum_match_bits: self.sum_match.to_bits(),
            samples: self.samples as u64,
            collisions: self.collisions.snapshot(),
            batch: self.batch.snapshot(),
            batch_vals: self
                .batch_vals
                .iter()
                .map(|&(n, d)| (n.to_bits(), d.to_bits()))
                .collect(),
        };
        Some((self.total_steps as u64, SamplerState::Mhrw(state)))
    }

    fn step<R: CheckpointRng>(&mut self, rng: &mut R) -> Result<Flow, EstimateError> {
        let config = self.config;
        let tracer = &self.tracer;
        if self.total_steps >= config.max_steps {
            return Ok(Flow::Stop);
        }
        self.total_steps += 1;
        let nbrs = self.graph.neighbors(self.current)?;
        let d_u = nbrs.len();
        if self.phase == WalkPhase::BurnIn && self.step >= config.burn_in {
            tracer.emit(
                EventName::BURNIN_END,
                &[
                    ("step", FieldValue::from(self.total_steps)),
                    ("chain_step", FieldValue::from(self.step)),
                ],
            );
            self.phase = WalkPhase::Walk;
            tracer.set_phase(self.phase);
        }
        if self.step >= config.burn_in && self.step.is_multiple_of(config.thinning.max(1)) {
            let (matches, num, den) = self.graph.sample(self.current)?;
            self.sum_num += num;
            self.sum_den += den;
            self.sum_match += matches as u8 as f64;
            self.samples += 1;
            self.collisions.push(self.current.0, 1);
            tracer.emit(
                EventName::SAMPLE,
                &[
                    ("node", FieldValue::from(self.current.0)),
                    ("degree", FieldValue::from(d_u)),
                    ("matches", FieldValue::U64(u64::from(matches))),
                ],
            );
            self.batch_vals.push((
                num,
                if matches!(self.query.aggregate, Aggregate::RatioOfSums { .. }) {
                    den
                } else {
                    matches as u8 as f64
                },
            ));
            if self.batch_vals.len() >= BATCH {
                let n: f64 = self.batch_vals.iter().map(|v| v.0).sum();
                let d: f64 = self.batch_vals.iter().map(|v| v.1).sum();
                if d > 0.0 {
                    self.batch.push(n / d);
                }
                self.batch_vals.clear();
            }
        }
        if d_u == 0 {
            tracer.emit(
                EventName::RESTART,
                &[
                    ("node", FieldValue::from(self.current.0)),
                    ("step", FieldValue::from(self.total_steps)),
                ],
            );
            self.current = self.seeds[rng.gen_range(0..self.seeds.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
            self.step = 0;
            if config.burn_in > 0 && self.phase != WalkPhase::BurnIn {
                self.phase = WalkPhase::BurnIn;
                tracer.set_phase(self.phase);
            }
            return Ok(Flow::Continue);
        }
        // Propose and accept/reject.
        let proposal = nbrs[rng.gen_range(0..d_u)]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
        let d_v = self.graph.neighbors(proposal)?.len();
        let accept = d_v > 0 && rng.gen::<f64>() < (d_u as f64 / d_v as f64).min(1.0);
        tracer.emit(
            if accept {
                EventName::MH_ACCEPT
            } else {
                EventName::MH_REJECT
            },
            &[
                ("from", FieldValue::from(self.current.0)),
                ("proposal", FieldValue::from(proposal.0)),
                ("d_u", FieldValue::from(d_u)),
                ("d_v", FieldValue::from(d_v)),
            ],
        );
        if accept {
            self.current = proposal;
        }
        self.step += 1;
        Ok(Flow::Continue)
    }

    fn finish(self) -> Result<Estimate, EstimateError> {
        if self.samples == 0 {
            return Err(EstimateError::NoSamples);
        }
        let samples = self.samples as f64;
        let value = match self.query.aggregate {
            Aggregate::Count => {
                let n_hat = self.collisions.estimate().ok_or(EstimateError::NoSamples)?;
                n_hat * self.sum_match / samples
            }
            Aggregate::Sum(_) => {
                let n_hat = self.collisions.estimate().ok_or(EstimateError::NoSamples)?;
                n_hat * self.sum_num / samples
            }
            Aggregate::Avg(_) => {
                if self.sum_match == 0.0 {
                    return Err(EstimateError::NoSamples);
                }
                self.sum_num / self.sum_match
            }
            Aggregate::RatioOfSums { .. } => {
                if self.sum_den == 0.0 {
                    return Err(EstimateError::NoSamples);
                }
                self.sum_num / self.sum_den
            }
        };
        Ok(Estimate {
            value,
            std_err: self.batch.std_err(),
            cost: self.graph.cost(),
            samples: self.samples,
            instances: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_api::{ApiProfile, MicroblogClient, QueryBudget};
    use microblog_platform::scenario::{twitter_2013, Scale};
    use microblog_platform::{Duration, UserMetric};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mhrw_avg_converges_on_level_view() {
        let s = twitter_2013(Scale::Tiny, 91);
        let kw = s.keyword("new york").unwrap();
        let q = AggregateQuery::avg(UserMetric::DisplayNameLength, kw).in_window(s.window);
        let truth = q.ground_truth(&s.platform).unwrap();
        let mut client = CachingClient::new(MicroblogClient::with_budget(
            &s.platform,
            ApiProfile::twitter(),
            QueryBudget::limited(40_000),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut cfg = MhrwConfig::new(ViewKind::level(Duration::DAY));
        cfg.burn_in = 50;
        let est = estimate(&mut client, &q, &cfg, &mut rng).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.25, "rel {rel}: est {} truth {truth}", est.value);
    }

    #[test]
    fn mhrw_count_needs_collisions() {
        let s = twitter_2013(Scale::Tiny, 92);
        let kw = s.keyword("privacy").unwrap();
        let q = AggregateQuery::count(kw).in_window(s.window);
        let mut client = CachingClient::new(MicroblogClient::with_budget(
            &s.platform,
            ApiProfile::twitter(),
            QueryBudget::limited(600),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cfg = MhrwConfig::new(ViewKind::level(Duration::DAY));
        // With a tiny budget there are no collisions yet.
        match estimate(&mut client, &q, &cfg, &mut rng) {
            Err(EstimateError::NoSamples) => {}
            Ok(e) => assert!(e.value.is_finite()),
            Err(e) => panic!("unexpected {e}"),
        }
    }
}
