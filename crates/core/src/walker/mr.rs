//! The mark-and-recapture (M&R) baseline (§6.1, "Algorithms Evaluated").
//!
//! Adapts the Katzir et al. size estimator to keyword-conditioned COUNT:
//! a simple random walk over the chosen view, whose *widely spaced*
//! samples feed a collision counter. The wide spacing (the original method
//! requires near-independent samples) is what makes M&R so much more
//! expensive than MA-SRW's reuse of every post-burn-in visit — the
//! separation visible in Figures 10 and 13.

use super::drive;
use super::srw::{Srw, SrwConfig};
use crate::checkpoint::{CheckpointCtl, CheckpointRng, SamplerState};
use crate::error::EstimateError;
use crate::estimate::Estimate;
use crate::query::{Aggregate, AggregateQuery};
use crate::view::ViewKind;
use microblog_api::CachingClient;
use rand::Rng;

/// Configuration of the M&R baseline.
#[derive(Clone, Copy, Debug)]
pub struct MrConfig {
    /// Graph view to walk (the paper runs it on the term-induced subgraph
    /// by default, and on the level-by-level subgraph in Fig. 10).
    pub view: ViewKind,
    /// Burn-in transitions.
    pub burn_in: usize,
    /// Spacing between samples used for collision counting.
    pub spacing: usize,
}

impl MrConfig {
    /// Defaults per the mark-and-recapture literature: long burn-in and
    /// wide sample spacing for independence.
    pub fn new(view: ViewKind) -> Self {
        MrConfig {
            view,
            burn_in: 250,
            spacing: 25,
        }
    }

    /// The underlying SRW configuration M&R runs with.
    fn srw(&self) -> SrwConfig {
        SrwConfig {
            view: self.view,
            burn_in: self.burn_in,
            thinning: self.spacing,
            collision_spacing: 1,
            max_steps: 400_000,
        }
    }
}

/// Runs M&R until the client's budget is exhausted.
///
/// Only COUNT queries are supported — the method estimates population
/// sizes (the paper adapted [15], which "does not directly support"
/// anything else).
pub fn estimate<R: CheckpointRng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    config: &MrConfig,
    rng: &mut R,
) -> Result<Estimate, EstimateError> {
    let sampler = sampler(client, query, config, rng, None)?;
    drive(sampler, rng, &mut CheckpointCtl::disabled())
}

/// M&R as the SRW sampler it is, so its checkpoints are
/// [`SamplerState::Srw`] states.
pub(crate) fn sampler<'a, 'p, R: Rng>(
    client: &'a mut CachingClient<'p>,
    query: &'a AggregateQuery,
    config: &MrConfig,
    rng: &mut R,
    resume: Option<&SamplerState>,
) -> Result<Srw<'a, 'p>, EstimateError> {
    if !matches!(query.aggregate, Aggregate::Count) {
        return Err(EstimateError::Unsupported("M&R only estimates COUNT"));
    }
    Srw::new(client, query, &config.srw(), rng, resume)
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
    fn rejects_non_count_queries() {
        let s = twitter_2013(Scale::Tiny, 71);
        let kw = s.keyword("privacy").unwrap();
        let q = AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(s.window);
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let err = estimate(
            &mut client,
            &q,
            &MrConfig::new(ViewKind::TermInduced),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, EstimateError::Unsupported(_)));
    }

    #[test]
    fn counts_with_enough_budget() {
        let s = twitter_2013(Scale::Tiny, 72);
        let kw = s.keyword("new york").unwrap();
        let q = AggregateQuery::count(kw).in_window(s.window);
        let truth = q.ground_truth(&s.platform).unwrap();
        let mut client = CachingClient::new(MicroblogClient::with_budget(
            &s.platform,
            ApiProfile::twitter(),
            QueryBudget::limited(120_000),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut cfg = MrConfig::new(ViewKind::level(Duration::DAY));
        cfg.burn_in = 60;
        cfg.spacing = 10;
        let est = estimate(&mut client, &q, &cfg, &mut rng).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 1.0, "rel {rel}: est {} truth {truth}", est.value);
    }
}
