//! Time-interval selection for the level-by-level subgraph (§4.2.3).
//!
//! Given candidate bucket widths `T` (the paper sweeps 2H..1M, Fig. 5),
//! run a cheap *pilot* random walk per candidate, estimate the stylized
//! model parameters `h` (number of levels) and `d` (mean adjacent-level
//! degree), score each candidate with the Eq. (3) closed-form conductance,
//! and pick the maximum. Only the ranking matters, so the unknown graph
//! size `n` is fixed to a common reference value across candidates.
//!
//! MA-TARW runs the selection as the first phase of its sampler
//! ([`crate::walker::tarw`]), one candidate per step, so the pilots pass
//! the same safe points as the walk; [`score_intervals`] runs it straight
//! through.

use crate::checkpoint::{PilotScore, PilotState};
use crate::error::EstimateError;
use crate::query::AggregateQuery;
use crate::view::{QueryGraph, ViewKind};
use microblog_api::{ApiError, CachingClient};
use microblog_graph::conductance::conductance_level;
use microblog_obs::{EventName, FieldValue, SpanName, Tracer, WalkPhase};
use microblog_platform::{Duration, UserId};
use rand::Rng;

/// [`candidate_intervals`] as a table the MA-TARW pilot steps index.
pub(crate) const CANDIDATES: [Duration; 7] = [
    Duration::hours(2),
    Duration::hours(4),
    Duration::hours(12),
    Duration::DAY,
    Duration::days(2),
    Duration::WEEK,
    Duration::MONTH,
];

/// The candidate intervals of Figure 5 (2H, 4H, 12H, 1D, 2D, 1W, 1M).
pub fn candidate_intervals() -> Vec<Duration> {
    CANDIDATES.to_vec()
}

/// The outcome of scoring one candidate interval.
#[derive(Clone, Copy, Debug)]
pub struct IntervalScore {
    /// The candidate bucket width.
    pub interval: Duration,
    /// Estimated number of levels `h`.
    pub h: f64,
    /// Estimated mean adjacent-level degree `d`.
    pub d: f64,
    /// Eq. (3) conductance at the reference size (NaN when out of domain).
    pub conductance: f64,
}

/// Scores every candidate with a pilot walk of `pilot_steps` transitions
/// and returns all scores, best first.
///
/// Budget exhaustion mid-pilot is tolerated: candidates already scored are
/// used, and the current candidate is scored from whatever the partial
/// pilot saw.
pub fn score_intervals<R: Rng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    seeds: &[UserId],
    candidates: &[Duration],
    pilot_steps: usize,
    rng: &mut R,
) -> Result<Vec<IntervalScore>, EstimateError> {
    if seeds.is_empty() {
        return Err(EstimateError::NoSeeds);
    }
    let mut pilots = Pilots::new(client.tracer(), candidates.len(), None);
    let mut graph = QueryGraph::new(client, query, ViewKind::FullGraph);
    for &interval in candidates {
        match pilots.score(&mut graph, query, interval, seeds, pilot_steps, rng) {
            Ok(()) => {}
            Err(e) if e.ends_walk() => break,
            Err(e) => {
                pilots.close();
                return Err(e.into());
            }
        }
    }
    pilots.rank()
}

/// Picks the best interval (first of [`score_intervals`]).
pub fn select_interval<R: Rng>(
    client: &mut CachingClient<'_>,
    query: &AggregateQuery,
    seeds: &[UserId],
    pilot_steps: usize,
    rng: &mut R,
) -> Result<IntervalScore, EstimateError> {
    let scores = score_intervals(client, query, seeds, &CANDIDATES, pilot_steps, rng)?;
    Ok(selected(client.tracer(), &scores))
}

/// The best of ranked `scores`, announced as `interval_selected`.
pub(crate) fn selected(tracer: &Tracer, scores: &[IntervalScore]) -> IntervalScore {
    let best = scores[0]; // ma-lint: allow(panic-safety) reason="Pilots::rank returns at least one score or an error"
    tracer.emit(
        EventName::INTERVAL_SELECTED,
        &[
            ("interval_secs", FieldValue::I64(best.interval.0)),
            ("conductance", FieldValue::F64(best.conductance)),
        ],
    );
    best
}

/// Interval selection in progress: the scores of the candidates piloted
/// so far, in candidate order, under one `pilot` span — which brackets the
/// whole sweep so live telemetry can attribute pilot latency to the
/// `pilot` pipeline stage.
pub(crate) struct Pilots {
    done: Vec<PilotScore>,
    tracer: Tracer,
    candidates: usize,
    /// The open `pilot` span, from the first pilot walk on.
    span: Option<u64>,
}

impl Pilots {
    /// A sweep over `candidates` candidates, resuming the scores a
    /// [`PilotState`] checkpoint carries (their pilot walks' RNG draws are
    /// reflected in the restored RNG).
    pub(crate) fn new(tracer: &Tracer, candidates: usize, resume: Option<&PilotState>) -> Self {
        Pilots {
            done: resume.map(|state| state.done.clone()).unwrap_or_default(),
            tracer: tracer.clone(),
            candidates,
            span: None,
        }
    }

    /// Candidates scored so far.
    pub(crate) fn scored(&self) -> usize {
        self.done.len()
    }

    /// The checkpoint form of the sweep.
    pub(crate) fn state(&self) -> PilotState {
        PilotState {
            done: self.done.clone(),
        }
    }

    /// Scores `interval` with a pilot walk over its level view.
    pub(crate) fn score<R: Rng>(
        &mut self,
        graph: &mut QueryGraph<'_, '_>,
        query: &AggregateQuery,
        interval: Duration,
        seeds: &[UserId],
        steps: usize,
        rng: &mut R,
    ) -> Result<(), ApiError> {
        if self.span.is_none() {
            self.tracer.set_phase(WalkPhase::Pilot);
            self.span = Some(self.tracer.span_start(
                SpanName::PILOT,
                &[("candidates", FieldValue::from(self.candidates))],
            ));
        }
        graph.set_view(query, ViewKind::level(interval));
        let (h, d) = pilot(graph, seeds, steps, rng)?;
        self.tracer.emit(
            EventName::PILOT,
            &[
                ("interval_secs", FieldValue::I64(interval.0)),
                ("h", FieldValue::F64(h)),
                ("d", FieldValue::F64(d)),
            ],
        );
        self.done.push((interval.0, h.to_bits(), d.to_bits()));
        Ok(())
    }

    /// Closes the `pilot` span.
    pub(crate) fn close(&self) {
        if let Some(span) = self.span {
            self.tracer.span_end(
                SpanName::PILOT,
                span,
                &[("scored", FieldValue::from(self.done.len()))],
            );
        }
    }

    /// Closes the span and ranks the scored candidates by Eq. (3)
    /// conductance, best first.
    pub(crate) fn rank(self) -> Result<Vec<IntervalScore>, EstimateError> {
        self.close();
        if self.done.is_empty() {
            return Err(EstimateError::NoSamples);
        }
        let mut scores: Vec<IntervalScore> = self
            .done
            .iter()
            .map(|&(secs, h_bits, d_bits)| IntervalScore {
                interval: Duration(secs),
                h: f64::from_bits(h_bits),
                d: f64::from_bits(d_bits),
                conductance: f64::NAN,
            })
            .collect();
        // Reference size: common across candidates, far enough above d·h
        // that Eq. (3)'s domain (d < n/h) holds for every candidate.
        let n_ref = scores
            .iter()
            .map(|s| s.h * (s.d + 1.0) * 4.0)
            .fold(1024.0f64, f64::max);
        for s in &mut scores {
            s.conductance = conductance_level(n_ref, s.h.max(2.0), s.d.max(0.25));
        }
        scores.sort_by(|a, b| {
            let ka = if a.conductance.is_nan() {
                f64::NEG_INFINITY
            } else {
                a.conductance
            };
            let kb = if b.conductance.is_nan() {
                f64::NEG_INFINITY
            } else {
                b.conductance
            };
            kb.partial_cmp(&ka).unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(scores)
    }
}

/// One pilot walk: a short simple random walk over `graph`'s level view
/// for the candidate interval; returns `(h_est, d_est)`.
fn pilot<R: Rng>(
    graph: &mut QueryGraph<'_, '_>,
    seeds: &[UserId],
    steps: usize,
    rng: &mut R,
) -> Result<(f64, f64), ApiError> {
    let mut current = seeds[rng.gen_range(0..seeds.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
    let mut min_level = i64::MAX;
    let mut max_level = i64::MIN;
    let mut degree_sum = 0.0f64;
    let mut visited = 0usize;
    for _ in 0..steps.max(1) {
        let level = match graph.member_level(current)? {
            Some(l) => l,
            None => break,
        };
        min_level = min_level.min(level);
        max_level = max_level.max(level);
        let split = graph.level_split(current)?;
        // Adjacent-level degree in the stylized model is per-direction;
        // average the two directions.
        degree_sum += (split.0.len() + split.1.len()) as f64 / 2.0;
        visited += 1;
        let nbrs = graph.neighbors(current)?;
        if nbrs.is_empty() {
            // Dangling: restart from another seed.
            current = seeds[rng.gen_range(0..seeds.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
            continue;
        }
        current = nbrs[rng.gen_range(0..nbrs.len())]; // ma-lint: allow(panic-safety) reason="index sampled from gen_range(0..len), in range by construction"
    }
    if visited == 0 {
        return Ok((2.0, 1.0));
    }
    // h: observed level span, extrapolated by the assigner's full span if
    // the pilot saw only one level.
    let observed_h = (max_level - min_level + 1) as f64;
    let full_h = graph
        .assigner()
        .map_or(observed_h, |a| a.level_count() as f64);
    let h = observed_h.max(2.0).min(full_h.max(2.0));
    let d = (degree_sum / visited as f64).max(0.25);
    Ok((h, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds::fetch_seeds;
    use microblog_api::{ApiProfile, MicroblogClient, QueryBudget};
    use microblog_platform::scenario::{twitter_2013, Scale};
    use microblog_platform::UserMetric;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn scores_cover_candidates_and_pick_finite_best() {
        let s = twitter_2013(Scale::Tiny, 41);
        let kw = s.keyword("new york").unwrap();
        let q =
            crate::query::AggregateQuery::avg(UserMetric::FollowerCount, kw).in_window(s.window);
        let mut client =
            CachingClient::new(MicroblogClient::new(&s.platform, ApiProfile::twitter()));
        let seeds = fetch_seeds(&mut client, &q).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let scores = score_intervals(
            &mut client,
            &q,
            &seeds,
            &candidate_intervals(),
            15,
            &mut rng,
        )
        .unwrap();
        assert_eq!(scores.len(), candidate_intervals().len());
        // Sorted best-first.
        for w in scores.windows(2) {
            let a = if w[0].conductance.is_nan() {
                f64::NEG_INFINITY
            } else {
                w[0].conductance
            };
            let b = if w[1].conductance.is_nan() {
                f64::NEG_INFINITY
            } else {
                w[1].conductance
            };
            assert!(a >= b);
        }
        let best = select_interval(&mut client, &q, &seeds, 15, &mut rng).unwrap();
        assert!(best.conductance.is_finite());
        assert!(best.h >= 2.0);
        // Longer intervals mean fewer levels.
        let h_2h = scores
            .iter()
            .find(|s| s.interval == Duration::hours(2))
            .unwrap()
            .h;
        let h_1m = scores
            .iter()
            .find(|s| s.interval == Duration::MONTH)
            .unwrap()
            .h;
        assert!(h_1m <= h_2h);
    }

    #[test]
    fn budget_exhaustion_mid_scan_uses_partial_scores() {
        let s = twitter_2013(Scale::Tiny, 42);
        let kw = s.keyword("privacy").unwrap();
        let q = crate::query::AggregateQuery::count(kw).in_window(s.window);
        // Enough budget for the search and roughly one pilot.
        let budget = QueryBudget::limited(400);
        let mut client = CachingClient::new(MicroblogClient::with_budget(
            &s.platform,
            ApiProfile::twitter(),
            budget,
        ));
        let seeds = fetch_seeds(&mut client, &q).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        match score_intervals(
            &mut client,
            &q,
            &seeds,
            &candidate_intervals(),
            25,
            &mut rng,
        ) {
            Ok(scores) => assert!(!scores.is_empty()),
            Err(e) => assert_eq!(e, EstimateError::NoSamples),
        }
    }
}
