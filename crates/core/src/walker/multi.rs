//! Interleaved multi-chain SRW: N chains, one client, zero idle RTT.
//!
//! N logical chains run *interleaved on one thread over one shared
//! client*, advancing in rounds — one round per [`Sampler::step`]. Each
//! round first **plans** every live chain's next step (announcing the
//! fetches the step will need through the client's prefetch sink), then
//! runs a **warm sweep** ([`QueryGraph::prefetch_step`]) that consumes
//! each chain's planned connections fetch and announces the candidate
//! probe wave one level deeper, then **executes** the steps in the same
//! order with [`SrwChain::step`], the solo walk's own step body —
//! announcing each chain's *next*-round fetches as soon as its step
//! lands, so the tail of one round overlaps the head of the next. With a
//! fetch scheduler attached, chain 1's step overlaps the RTT of chains
//! 2..N's fetches — the walk computes while the network works. Without a
//! sink the announces are no-ops and the rounds degenerate to plain
//! sequential execution — which is exactly the point:
//!
//! # Determinism
//!
//! * Chain trajectories use per-chain RNG streams seeded by
//!   [`super::chain_seed`], never shared state, so a chain's path depends
//!   only on `(run_seed, chain_index)`.
//! * The round order is a fixed permutation derived from the run seed
//!   ([`round_order`]) — a deterministic function of the seed, not of
//!   thread timing.
//! * Estimates, charged totals, per-chain sample sequences and
//!   checkpoints are **bit-identical** with and without a scheduler:
//!   announcing changes when backend calls happen, never whether, and
//!   consumption (and therefore charging) order is fixed by the round
//!   structure.
//! * Checkpoint safe points sit at round boundaries only — the driver's
//!   safe point between two steps — after a
//!   [`microblog_api::CachingClient::drain_prefetch`], so a captured
//!   state never races an in-flight fetch and resume needs no scheduler
//!   state.
//! * The first `BudgetExhausted` walk-ending error freezes the run:
//!   every chain is marked done at the end of that round, *before* the
//!   next safe point, so the checkpoint captures the killed state and a
//!   resume cannot step past the horizon a sequential run stopped at.

use super::srw::{SrwChain, SrwConfig, SrwWalk};
use super::{drive, mismatch, Flow, Sampler};
use crate::checkpoint::{
    CheckpointCtl, CheckpointRng, MultiChainState, MultiSrwState, SamplerState,
};
use crate::error::EstimateError;
use crate::estimate::{Estimate, RunningStats};
use crate::query::AggregateQuery;
use crate::view::ViewKind;
use microblog_api::{ApiError, CachingClient};
use microblog_platform::UserId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the interleaved multi-chain SRW executor.
#[derive(Clone, Copy, Debug)]
pub struct MultiSrwConfig {
    /// The per-chain walk configuration ([`SrwConfig::max_steps`] caps
    /// each chain individually).
    pub srw: SrwConfig,
    /// Number of interleaved chains (≥ 1).
    pub chains: usize,
}

/// The fixed chain-scheduling permutation for a run: a Fisher–Yates
/// shuffle driven by a SplitMix64 stream of the run seed, so the order
/// chains plan and execute in is a pure function of the seed.
fn round_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = seed ^ 0xC0DE_5EED_0B57_AC1E;
    for i in (1..n).rev() {
        x = crate::view::splitmix64(x);
        let j = (x % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs `config.chains` interleaved chains until each exhausts the shared
/// budget (or its step cap), then pools the per-chain estimates — plain
/// average with a cross-chain standard error.
///
/// `rng` is the job's outer RNG; the chains never draw from it (each has
/// its own seeded stream) — it is captured into checkpoints so the
/// generic resume path can restore it.
pub fn estimate<R: CheckpointRng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    config: &MultiSrwConfig,
    seed: u64,
    rng: &mut R,
) -> Result<Estimate, EstimateError> {
    let sampler = MultiSrw::new(client, query, config, seed, None)?;
    drive(sampler, rng, &mut CheckpointCtl::disabled())
}

/// One interleaved chain: its own RNG stream, the SRW chain state, and
/// whether it has finished walking — the in-memory form of
/// [`MultiChainState`].
struct Chain {
    rng: ChaCha8Rng,
    walk: SrwChain,
    done: bool,
}

/// The interleaved executor, checkpointed as [`SamplerState::MultiSrw`].
pub(crate) struct MultiSrw<'a, 'p> {
    walk: SrwWalk<'a, 'p>,
    chains: Vec<Chain>,
    /// Chain scheduling order: a deterministic function of the seed.
    order: Vec<usize>,
    needs_level: bool,
    announce_conns: Vec<UserId>,
    announce_tls: Vec<UserId>,
    /// Set when any chain's fetch fails with budget exhaustion. The shared
    /// budget is the walk's driver: once it is spent, no unvisited node
    /// can be fetched, so the reachable horizon is frozen and further
    /// rounds would only resample memoized nodes (up to `max_steps` of
    /// free-spinning, pure CPU). The whole walk ends at the end of the
    /// round instead — deterministically, and *before* the next safe
    /// point, so a resume from that checkpoint sees every chain done.
    budget_dead: bool,
}

impl<'a, 'p> MultiSrw<'a, 'p> {
    /// The executor, fresh or resumed from a [`SamplerState::MultiSrw`]
    /// checkpoint taken with the same chain count.
    pub(crate) fn new(
        client: &'a mut CachingClient<'p>,
        query: &'a AggregateQuery,
        config: &MultiSrwConfig,
        seed: u64,
        resume: Option<&SamplerState>,
    ) -> Result<Self, EstimateError> {
        let resume = match resume {
            None => None,
            Some(SamplerState::MultiSrw(state)) => Some(state),
            Some(_) => return Err(mismatch()),
        };
        let n = config.chains.max(1);
        let walk = SrwWalk::new(client, query, &config.srw)?;
        let chains = match resume {
            Some(state) => {
                if state.chains.len() != n {
                    return Err(EstimateError::Unsupported(
                        "checkpoint chain count does not match the configuration",
                    ));
                }
                let restore = |c: &MultiChainState| {
                    let rng = c.rng.to_chacha8()?;
                    Some(Chain {
                        rng,
                        walk: SrwChain::restore(&c.walk),
                        done: c.done,
                    })
                };
                state
                    .chains
                    .iter()
                    .map(restore)
                    .collect::<Option<_>>()
                    .ok_or(EstimateError::Unsupported(
                        "checkpoint carries a malformed chain RNG state",
                    ))?
            }
            None => (0..n)
                .map(|i| {
                    let mut rng = ChaCha8Rng::seed_from_u64(super::chain_seed(seed, i as u64));
                    let walk = SrwChain::fresh(&walk.seeds, &mut rng);
                    Chain {
                        rng,
                        walk,
                        done: false,
                    }
                })
                .collect(),
        };
        Ok(MultiSrw {
            needs_level: matches!(config.srw.view, ViewKind::LevelByLevel { .. }),
            walk,
            chains,
            order: round_order(seed, n),
            announce_conns: Vec::new(),
            announce_tls: Vec::new(),
            budget_dead: false,
        })
    }
}

impl<'p> Sampler<'p> for MultiSrw<'_, 'p> {
    fn client(&mut self) -> &mut CachingClient<'p> {
        self.walk.graph.client_mut()
    }

    fn snapshot(&mut self) -> Option<(u64, SamplerState)> {
        let mut total = 0u64;
        let mut chains = Vec::with_capacity(self.chains.len());
        for c in &mut self.chains {
            total += c.walk.total_steps as u64;
            chains.push(MultiChainState {
                rng: c.rng.rng_state()?,
                walk: c.walk.snapshot(),
                done: c.done,
            });
        }
        Some((total, SamplerState::MultiSrw(MultiSrwState { chains })))
    }

    /// One round.
    fn step<R: CheckpointRng>(&mut self, _rng: &mut R) -> Result<Flow, EstimateError> {
        if self.chains.iter().all(|c| c.done) {
            return Ok(Flow::Stop);
        }
        let config = self.walk.config;
        // Plan: announce what each live chain's next step will fetch.
        // `neighbors` always fetches connections first; the chain's
        // own timeline is only fetched on level views (membership of the
        // node itself) or when the step will sample it.
        self.announce_conns.clear();
        self.announce_tls.clear();
        for &i in &self.order {
            let c = &self.chains[i]; // ma-lint: allow(panic-safety) reason="order is a permutation of 0..chains.len()"
            if c.done || c.walk.capped(&config) {
                continue;
            }
            self.announce_conns.push(c.walk.current);
            if self.needs_level || c.walk.will_sample(&config) {
                self.announce_tls.push(c.walk.current);
            }
        }
        let client = self.walk.graph.client_mut();
        client.announce_connections(&self.announce_conns);
        client.announce_timelines(&self.announce_tls);
        // Warm sweep: resolve every planned connections fetch now
        // (consuming the prefetches announced above) and announce each
        // chain's candidate membership probes, so the per-chain timeline
        // batches — the bulk of a round's traffic — are all in flight
        // before any chain steps. Without this, each chain's batch is
        // only announced inside its own step and the N batches resolve
        // as N serial RTT walls. The fetches here are memoized, so the
        // steps below consume them without re-issuing; with no sink the
        // sweep issues the identical call sequence serially, keeping
        // pipelined and sequential charging aligned.
        for &i in &self.order {
            let c = &self.chains[i]; // ma-lint: allow(panic-safety) reason="order is a permutation of 0..chains.len()"
            if c.done || c.walk.capped(&config) {
                continue;
            }
            self.walk.graph.prefetch_step(c.walk.current);
        }
        // Execute the planned steps in the same deterministic order.
        for &i in &self.order {
            let chain = &mut self.chains[i]; // ma-lint: allow(panic-safety) reason="order is a permutation of 0..chains.len()"
            if chain.done {
                continue;
            }
            match chain.walk.step(&mut self.walk, i, &mut chain.rng) {
                Ok(true) => {}
                Ok(false) => chain.done = true,
                Err(e) if e.ends_walk() => {
                    self.budget_dead |= matches!(e, ApiError::BudgetExhausted { .. });
                    chain.done = true;
                }
                Err(e) => return Err(e.into()),
            }
            // Early plan: the transition just chosen fixes what the next
            // round fetches for this chain, so announce it immediately —
            // the fetch then overlaps the remainder of *this* round
            // instead of stalling the next round's warm sweep on a cold
            // connections call. The start-of-round announce still runs
            // (announces dedup), covering resumes and restarts.
            if !chain.done {
                let u = std::slice::from_ref(&chain.walk.current);
                let client = self.walk.graph.client_mut();
                client.announce_connections(u);
                if self.needs_level || chain.walk.will_sample(&config) {
                    client.announce_timelines(u);
                }
            }
        }
        if self.budget_dead {
            for c in &mut self.chains {
                c.done = true;
            }
        }
        Ok(Flow::Continue)
    }

    /// Pools the per-chain estimates: plain average, cross-chain spread as
    /// the standard error.
    fn finish(self) -> Result<Estimate, EstimateError> {
        let mut pooled = RunningStats::new();
        let mut samples = 0usize;
        for chain in &self.chains {
            if let Some(v) = chain.walk.accum.finalize(self.walk.query) {
                pooled.push(v);
                samples += chain.walk.accum.samples();
            }
        }
        if pooled.count() == 0 {
            return Err(EstimateError::NoSamples);
        }
        Ok(Estimate {
            value: pooled.mean(),
            std_err: pooled.std_err(),
            cost: self.walk.graph.cost(),
            samples,
            instances: pooled.count() as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_api::{ApiProfile, MicroblogClient, QueryBudget};
    use microblog_platform::scenario::{twitter_2013, Scale};
    use microblog_platform::{Duration, UserMetric};

    fn client_for(platform: &microblog_platform::Platform, budget: u64) -> CachingClient<'_> {
        CachingClient::new(MicroblogClient::with_budget(
            platform,
            ApiProfile::twitter(),
            QueryBudget::limited(budget),
        ))
    }

    fn cfg(chains: usize) -> MultiSrwConfig {
        let mut srw = SrwConfig::new(ViewKind::level(Duration::DAY));
        srw.burn_in = 30;
        MultiSrwConfig { srw, chains }
    }

    #[test]
    fn round_order_is_a_seeded_permutation() {
        let a = round_order(7, 8);
        let b = round_order(7, 8);
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "a permutation");
        // Some nearby seed reorders the chains (not a fixed identity).
        assert!((0..20).any(|s| round_order(s, 8) != a));
    }

    #[test]
    fn multi_chain_converges_and_reports_spread() {
        let s = twitter_2013(Scale::Tiny, 51);
        let q = crate::query::AggregateQuery::avg(
            UserMetric::FollowerCount,
            s.keyword("privacy").unwrap(),
        )
        .in_window(s.window);
        let truth = q.ground_truth(&s.platform).unwrap();
        let mut client = client_for(&s.platform, 40_000);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let est = estimate(&mut client, &q, &cfg(4), 1, &mut rng).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.5, "rel err {rel}: est {} truth {truth}", est.value);
        assert!(est.cost <= 40_000);
        assert!(est.std_err.is_some(), "cross-chain spread available");
        assert_eq!(est.instances, 4, "all chains contribute");
    }

    #[test]
    fn single_chain_is_supported() {
        let s = twitter_2013(Scale::Tiny, 52);
        let q = crate::query::AggregateQuery::avg(
            UserMetric::DisplayNameLength,
            s.keyword("boston").unwrap(),
        )
        .in_window(s.window);
        let mut client = client_for(&s.platform, 10_000);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let est = estimate(&mut client, &q, &cfg(1), 2, &mut rng).unwrap();
        assert!(est.value.is_finite());
        assert_eq!(est.instances, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = twitter_2013(Scale::Tiny, 53);
        let q = crate::query::AggregateQuery::avg(
            UserMetric::FollowerCount,
            s.keyword("new york").unwrap(),
        )
        .in_window(s.window);
        let run = |seed: u64| {
            let mut client = client_for(&s.platform, 15_000);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            estimate(&mut client, &q, &cfg(3), seed, &mut rng).unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.value, b.value);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.samples, b.samples);
        let c = run(10);
        assert_ne!(a.value, c.value, "different seed, different walk");
    }
}
