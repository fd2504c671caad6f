//! BFS/DFS snowball sampling baselines.
//!
//! The graph-sampling literature the paper builds on (Gjoka et al. [13],
//! Leskovec & Faloutsos [19]) compares random walks against breadth- and
//! depth-first crawls. Snowball samples are *biased* toward the seeds'
//! neighborhoods (BFS additionally toward high-degree nodes) and offer no
//! principled bias correction without knowing the graph — which is exactly
//! why the paper's estimators are walk-based. This module provides them as
//! baselines so that bias is demonstrable.

use super::{drive, mismatch, Flow, Sampler};
use crate::checkpoint::{CheckpointCtl, CheckpointRng, SamplerState, SnowballState};
use crate::error::EstimateError;
use crate::estimate::Estimate;
use crate::query::{Aggregate, AggregateQuery};
use crate::seeds::fetch_seeds;
use crate::view::{QueryGraph, ViewKind};
use microblog_api::CachingClient;
use microblog_platform::{IdSet, UserId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Crawl order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrawlOrder {
    /// Breadth-first (queue).
    Bfs,
    /// Depth-first (stack).
    Dfs,
}

/// Configuration of the snowball baseline.
#[derive(Clone, Copy, Debug)]
pub struct SnowballConfig {
    /// Graph view to crawl.
    pub view: ViewKind,
    /// Crawl order.
    pub order: CrawlOrder,
    /// Stop after this many distinct sampled users (the budget may stop
    /// the crawl earlier).
    pub max_nodes: usize,
}

impl SnowballConfig {
    /// BFS snowball over the given view.
    pub fn bfs(view: ViewKind) -> Self {
        SnowballConfig {
            view,
            order: CrawlOrder::Bfs,
            max_nodes: 100_000,
        }
    }

    /// DFS snowball over the given view.
    pub fn dfs(view: ViewKind) -> Self {
        SnowballConfig {
            view,
            order: CrawlOrder::Dfs,
            max_nodes: 100_000,
        }
    }
}

/// How many distinct upcoming crawl targets to announce per step, and
/// how deep into the frontier to scan for them.
const LOOKAHEAD: usize = 8;
const SCAN: usize = 64;

/// Crawls from the search seeds and estimates the aggregate from the raw
/// (uncorrected) sample — the biased baseline.
///
/// COUNT is estimated as the number of *distinct matching users crawled*,
/// a lower bound that only becomes exact when the crawl exhausts the
/// subgraph. AVG/ratio aggregates are plain sample means.
pub fn estimate<R: CheckpointRng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    config: &SnowballConfig,
    rng: &mut R,
) -> Result<Estimate, EstimateError> {
    let sampler = Snowball::new(client, query, config, rng, None)?;
    drive(sampler, rng, &mut CheckpointCtl::disabled())
}

/// The crawl, checkpointed as [`SamplerState::Snowball`].
pub(crate) struct Snowball<'a, 'p> {
    graph: QueryGraph<'a, 'p>,
    query: &'a AggregateQuery,
    config: SnowballConfig,
    frontier: VecDeque<UserId>,
    visited: IdSet<UserId>,
    sum_num: f64,
    sum_den: f64,
    matches_count: usize,
    samples: usize,
    /// The popped node's neighbors, shuffled into crawl order.
    nbrs: Vec<UserId>,
    /// Upcoming crawl targets announced to an attached fetch pipeline.
    lookahead: Vec<UserId>,
}

impl<'a, 'p> Snowball<'a, 'p> {
    /// The crawl, fresh (the shuffled seeds as its frontier) or resumed
    /// from a [`SamplerState::Snowball`] checkpoint (client memo and RNG
    /// restored by the caller).
    pub(crate) fn new<R: Rng>(
        client: &'a mut CachingClient<'p>,
        query: &'a AggregateQuery,
        config: &SnowballConfig,
        rng: &mut R,
        resume: Option<&SamplerState>,
    ) -> Result<Self, EstimateError> {
        let resume = match resume {
            None => None,
            Some(SamplerState::Snowball(state)) => Some(state),
            Some(_) => return Err(mismatch()),
        };
        let seeds = fetch_seeds(client, query)?;
        let fresh;
        let state = match resume {
            Some(state) => state,
            None => {
                let mut frontier = seeds;
                frontier.shuffle(rng);
                fresh = SnowballState {
                    frontier,
                    visited: Vec::new(),
                    sum_num_bits: 0,
                    sum_den_bits: 0,
                    matches_count: 0,
                    samples: 0,
                };
                &fresh
            }
        };
        Ok(Snowball {
            graph: QueryGraph::new(client, query, config.view),
            query,
            config: *config,
            frontier: state.frontier.iter().copied().collect(),
            // ma-lint: allow(determinism) reason="state.visited is the checkpoint's sorted Vec, not the hash set; Vec iteration is ordered"
            visited: state.visited.iter().copied().collect(),
            sum_num: f64::from_bits(state.sum_num_bits),
            sum_den: f64::from_bits(state.sum_den_bits),
            matches_count: state.matches_count as usize,
            samples: state.samples as usize,
            nbrs: Vec::new(),
            lookahead: Vec::new(),
        })
    }
}

impl<'p> Sampler<'p> for Snowball<'_, 'p> {
    fn client(&mut self) -> &mut CachingClient<'p> {
        self.graph.client_mut()
    }

    fn snapshot(&mut self) -> Option<(u64, SamplerState)> {
        // ma-lint: allow(determinism) reason="collected then sorted on the next line; hash order cannot reach the checkpoint bytes"
        let mut visited: Vec<UserId> = self.visited.iter().copied().collect();
        visited.sort_unstable_by_key(|u| u.0);
        let state = SnowballState {
            frontier: self.frontier.iter().copied().collect(),
            visited,
            sum_num_bits: self.sum_num.to_bits(),
            sum_den_bits: self.sum_den.to_bits(),
            matches_count: self.matches_count as u64,
            samples: self.samples as u64,
        };
        Some((self.samples as u64, SamplerState::Snowball(state)))
    }

    /// One frontier pop.
    fn step<R: CheckpointRng>(&mut self, rng: &mut R) -> Result<Flow, EstimateError> {
        // Announce the next few crawl targets so an attached pipeline
        // overlaps their RTTs. Scanning in pop order and keeping only the
        // first unvisited occurrence of each node announces exactly nodes
        // that *will* be crawled, barring a crawl-ending error: `visited`
        // only grows by popping, so a first occurrence cannot be skipped.
        self.lookahead.clear();
        {
            let (visited, lookahead) = (&self.visited, &mut self.lookahead);
            let mut scan = |u: UserId| {
                if lookahead.len() < LOOKAHEAD && !visited.contains(&u) && !lookahead.contains(&u) {
                    lookahead.push(u);
                }
            };
            match self.config.order {
                CrawlOrder::Bfs => self.frontier.iter().take(SCAN).for_each(|&u| scan(u)),
                CrawlOrder::Dfs => self.frontier.iter().rev().take(SCAN).for_each(|&u| scan(u)),
            }
        }
        let client = self.graph.client_mut();
        client.announce_connections(&self.lookahead);
        client.announce_timelines(&self.lookahead);
        let popped = match self.config.order {
            CrawlOrder::Bfs => self.frontier.pop_front(),
            CrawlOrder::Dfs => self.frontier.pop_back(),
        };
        let Some(u) = popped else {
            return Ok(Flow::Stop);
        };
        if !self.visited.insert(u) {
            return Ok(Flow::Continue);
        }
        let (matched, num, den) = self.graph.sample(u)?;
        self.sum_num += num;
        self.sum_den += den;
        self.matches_count += matched as usize;
        self.samples += 1;
        if self.samples >= self.config.max_nodes {
            return Ok(Flow::Stop);
        }
        self.nbrs.clone_from(&*self.graph.neighbors(u)?);
        self.nbrs.shuffle(rng);
        for &v in &self.nbrs {
            if !self.visited.contains(&v) {
                self.frontier.push_back(v);
            }
        }
        Ok(Flow::Continue)
    }

    fn finish(self) -> Result<Estimate, EstimateError> {
        if self.samples == 0 {
            return Err(EstimateError::NoSamples);
        }
        let value = match self.query.aggregate {
            Aggregate::Count => self.matches_count as f64,
            Aggregate::Sum(_) => self.sum_num,
            Aggregate::Avg(_) => {
                if self.matches_count == 0 {
                    return Err(EstimateError::NoSamples);
                }
                self.sum_num / self.matches_count as f64
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
            std_err: None,
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

    fn run(
        order: CrawlOrder,
        budget: u64,
        max_nodes: usize,
    ) -> (Result<Estimate, EstimateError>, f64) {
        let s = twitter_2013(Scale::Tiny, 111);
        let kw = s.keyword("new york").unwrap();
        let q = AggregateQuery::count(kw).in_window(s.window);
        let truth = q.ground_truth(&s.platform).unwrap();
        let mut client = CachingClient::new(MicroblogClient::with_budget(
            &s.platform,
            ApiProfile::twitter(),
            QueryBudget::limited(budget),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cfg = SnowballConfig {
            view: ViewKind::TermInduced,
            order,
            max_nodes,
        };
        (estimate(&mut client, &q, &cfg, &mut rng), truth)
    }

    #[test]
    fn exhaustive_bfs_count_is_component_size() {
        // With enough budget, BFS over the term-induced view crawls the
        // seeds' whole component: COUNT == crawled matching users, a lower
        // bound on the truth that is usually close (high recall).
        let (est, truth) = run(CrawlOrder::Bfs, 2_000_000, usize::MAX);
        let est = est.unwrap();
        assert!(est.value <= truth);
        assert!(
            est.value > 0.4 * truth,
            "crawl found only {} of {truth}",
            est.value
        );
    }

    #[test]
    fn truncated_crawl_undercounts() {
        let (est, truth) = run(CrawlOrder::Bfs, 2_000_000, 10);
        let est = est.unwrap();
        assert!(est.value <= 10.0);
        assert!(est.value < truth, "truncated crawl cannot reach the truth");
        assert_eq!(est.samples, 10);
    }

    #[test]
    fn dfs_behaves_and_respects_budget() {
        let (est, _) = run(CrawlOrder::Dfs, 1_500, usize::MAX);
        match est {
            Ok(e) => assert!(e.cost <= 1_500),
            Err(EstimateError::NoSamples) => {}
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn avg_is_plain_sample_mean() {
        let s = twitter_2013(Scale::Tiny, 112);
        let kw = s.keyword("new york").unwrap();
        let q = AggregateQuery::avg(UserMetric::DisplayNameLength, kw).in_window(s.window);
        let truth = q.ground_truth(&s.platform).unwrap();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cfg = SnowballConfig::bfs(ViewKind::level(Duration::DAY));
        let est = estimate(&mut client, &q, &cfg, &mut rng).unwrap();
        // Name lengths are homogeneous, so even a biased sample is close.
        assert!(
            (est.value - truth).abs() / truth < 0.2,
            "est {} truth {truth}",
            est.value
        );
    }
}
