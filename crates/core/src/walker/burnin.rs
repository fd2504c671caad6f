//! Burn-in measurement via the Geweke diagnostic (§4.1).
//!
//! The paper quantifies how "sampling-unfriendly" a graph is by the number
//! of transitions a simple random walk needs before the Geweke z-score of
//! its sample chain drops below 0.1 — reporting ≈700 for the full Twitter
//! graph and ≈610 for the `privacy` term-induced subgraph, with the
//! level-by-level subgraph converging much faster. [`measure_burn_in`]
//! reproduces that methodology; [`adaptive_srw_config`] uses a pilot
//! measurement to pick MA-SRW's burn-in instead of a fixed constant.

use crate::error::EstimateError;
use crate::query::AggregateQuery;
use crate::seeds::fetch_seeds;
use crate::view::{QueryGraph, ViewKind};
use crate::walker::srw::SrwConfig;
use microblog_api::CachingClient;
use microblog_graph::diagnostics;
use rand::Rng;

/// The paper's Geweke threshold (`Z <= 0.1`).
pub const PAPER_GEWEKE_THRESHOLD: f64 = 0.1;

/// The outcome of a burn-in measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurnInMeasurement {
    /// Steps the chain actually took (may stop early on budget).
    pub chain_length: usize,
    /// The measured burn-in, `None` if the chain never converged within
    /// its recorded length.
    pub burn_in: Option<usize>,
}

/// Walks `view` for up to `max_steps` transitions recording the query
/// metric `f(u)` at every visited node, then scans Geweke z-scores to find
/// the burn-in (smallest discarded prefix with `|Z| <= threshold`).
///
/// Budget exhaustion mid-walk truncates the chain rather than failing.
pub fn measure_burn_in<R: Rng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    view: ViewKind,
    max_steps: usize,
    threshold: f64,
    rng: &mut R,
) -> Result<BurnInMeasurement, EstimateError> {
    let seeds = fetch_seeds(client, query)?;
    let mut graph = QueryGraph::new(client, query, view);
    let mut chain: Vec<f64> = Vec::with_capacity(max_steps);
    let mut current = seeds[rng.gen_range(0..seeds.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
    for _ in 0..max_steps {
        // The diagnostic runs on the chain of f(u) values — the quantity
        // whose mixing actually matters for the aggregate.
        let num = match graph.sample(current) {
            Ok((_, num, _)) => num,
            Err(e) if e.ends_walk() => break,
            Err(e) => return Err(e.into()),
        };
        chain.push(num);
        let nbrs = match graph.neighbors(current) {
            Ok(n) => n,
            Err(e) if e.ends_walk() => break,
            Err(e) => return Err(e.into()),
        };
        if nbrs.is_empty() {
            current = seeds[rng.gen_range(0..seeds.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
            continue;
        }
        current = nbrs[rng.gen_range(0..nbrs.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
    }
    if chain.is_empty() {
        return Err(EstimateError::NoSamples);
    }
    let step = (chain.len() / 50).max(1);
    Ok(BurnInMeasurement {
        chain_length: chain.len(),
        burn_in: diagnostics::burn_in(&chain, threshold, step),
    })
}

/// Builds an [`SrwConfig`] whose burn-in comes from a pilot Geweke
/// measurement of `pilot_steps` transitions (falling back to the default
/// when the pilot never converges).
pub fn adaptive_srw_config<R: Rng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    view: ViewKind,
    pilot_steps: usize,
    rng: &mut R,
) -> Result<SrwConfig, EstimateError> {
    let measurement = measure_burn_in(
        client,
        query,
        view,
        pilot_steps,
        PAPER_GEWEKE_THRESHOLD,
        rng,
    )?;
    let mut cfg = SrwConfig::new(view);
    if let Some(b) = measurement.burn_in {
        cfg.burn_in = b.max(10);
    }
    Ok(cfg)
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
    fn measures_burn_in_on_level_view() {
        let s = twitter_2013(Scale::Tiny, 95);
        let kw = s.keyword("new york").unwrap();
        let q = AggregateQuery::avg(UserMetric::DisplayNameLength, kw).in_window(s.window);
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = measure_burn_in(
            &mut client,
            &q,
            ViewKind::level(Duration::DAY),
            1_500,
            PAPER_GEWEKE_THRESHOLD,
            &mut rng,
        )
        .unwrap();
        assert_eq!(m.chain_length, 1_500);
        // Display-name lengths mix fast: convergence within the chain.
        let b = m.burn_in.expect("chain should converge");
        assert!(b < 800, "burn-in {b}");
    }

    #[test]
    fn budget_truncates_chain_gracefully() {
        let s = twitter_2013(Scale::Tiny, 96);
        let kw = s.keyword("privacy").unwrap();
        let q = AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(s.window);
        let mut client = CachingClient::new(MicroblogClient::with_budget(
            &s.platform,
            ApiProfile::twitter(),
            QueryBudget::limited(1_500),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // Full-graph view: every step touches fresh users, so the budget
        // genuinely runs out (keyword-scoped views get fully cached on
        // tiny worlds and stop charging).
        let m = measure_burn_in(
            &mut client,
            &q,
            ViewKind::FullGraph,
            100_000,
            PAPER_GEWEKE_THRESHOLD,
            &mut rng,
        )
        .unwrap();
        assert!(m.chain_length < 100_000, "budget should truncate the walk");
        assert!(m.chain_length > 0);
    }

    #[test]
    fn adaptive_config_uses_measured_burn_in() {
        let s = twitter_2013(Scale::Tiny, 97);
        let kw = s.keyword("new york").unwrap();
        let q = AggregateQuery::avg(UserMetric::DisplayNameLength, kw).in_window(s.window);
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let view = ViewKind::level(Duration::DAY);
        let cfg = adaptive_srw_config(&mut client, &q, view, 1_200, &mut rng).unwrap();
        assert!(cfg.burn_in >= 10);
        assert_eq!(cfg.view, view);
    }
}
