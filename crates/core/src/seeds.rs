//! Seed-user acquisition through the search API (§3.1).
//!
//! "Seed users" are users who recently posted the query keyword — exactly
//! what the (window-limited) search API returns. Their recent qualifying
//! post also certifies graph membership for free, provided it falls inside
//! the query window.

use crate::error::EstimateError;
use crate::query::AggregateQuery;
use microblog_api::CachingClient;
use microblog_obs::{EventName, FieldValue, WalkPhase};
use microblog_platform::UserId;

/// Fetches the deduplicated seed-user set for `query`.
///
/// Only authors whose matching recent post falls inside the query's
/// effective window are kept (a historical window that ended in the past
/// cannot be seeded by today's search results).
pub fn fetch_seeds(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
) -> Result<Vec<UserId>, EstimateError> {
    let tracer = client.tracer().clone();
    tracer.set_phase(WalkPhase::Seed);
    let window = query.effective_window(client.now());
    let hits = client.search(query.keyword)?;
    let mut seeds: Vec<UserId> = hits
        .iter()
        .filter(|h| window.contains(h.time))
        .map(|h| h.author)
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    tracer.emit(
        EventName::SEEDS,
        &[
            ("hits", FieldValue::from(hits.len())),
            ("seeds", FieldValue::from(seeds.len())),
        ],
    );
    if seeds.is_empty() {
        return Err(EstimateError::NoSeeds);
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_api::{ApiProfile, MicroblogClient};
    use microblog_platform::scenario::{twitter_2013, Scale};
    use microblog_platform::{TimeWindow, Timestamp, UserMetric};

    #[test]
    fn seeds_are_unique_matching_authors() {
        let s = twitter_2013(Scale::Tiny, 31);
        let kw = s.keyword("new york").unwrap();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let q = crate::query::AggregateQuery::count(kw).in_window(s.window);
        let seeds = fetch_seeds(&mut client, &q).unwrap();
        assert!(!seeds.is_empty());
        let mut sorted = seeds.clone();
        sorted.dedup();
        assert_eq!(sorted, seeds, "seeds must be deduplicated");
        // Each seed has a recent qualifying post.
        for &u in seeds.iter().take(10) {
            let view = client.user_timeline(u).unwrap();
            assert!(view.first_mention(kw, s.window).is_some());
        }
    }

    #[test]
    fn historical_window_rejects_recent_only_seeds() {
        let s = twitter_2013(Scale::Tiny, 32);
        let kw = s.keyword("privacy").unwrap();
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        // A window that ended months before "now": search (last week) can
        // never certify membership.
        let q = crate::query::AggregateQuery::avg(UserMetric::FollowerCount, kw)
            .in_window(TimeWindow::new(Timestamp::EPOCH, Timestamp::at_day(30)));
        assert_eq!(
            fetch_seeds(&mut client, &q).unwrap_err(),
            EstimateError::NoSeeds
        );
    }
}
