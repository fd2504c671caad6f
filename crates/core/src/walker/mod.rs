//! GRAPH-WALKER: the sampling algorithms (§4–§5).
//!
//! * [`srw`] — MA-SRW and its baselines: a simple random walk over any
//!   [`crate::view::ViewKind`], with degree-reweighted ratio estimation for
//!   AVG and collision (Katzir) size estimation for COUNT/SUM; [`multi`]
//!   interleaves many such chains over one client.
//! * [`tarw`] — MA-TARW: the topology-aware bottom-top-bottom walk with
//!   `ESTIMATE-p` selection-probability estimation (Algorithm 2/3).
//! * [`mr`] — the mark-and-recapture baseline of the paper's §6 (Katzir et
//!   al. adapted to keyword-conditioned counting), with the conservative
//!   sample spacing the original requires.
//! * [`mhrw`] and [`snowball`] — the Metropolis–Hastings and BFS/DFS
//!   baselines of the graph-sampling literature.
//!
//! Every sampler is a [`Sampler`] — its state, one step, a snapshot and a
//! finish — and [`drive`] is the one loop that runs them all.

pub mod burnin;
pub mod mhrw;
pub mod mr;
pub mod multi;
pub mod snowball;
pub mod srw;
pub mod tarw;

use crate::checkpoint::{CheckpointCtl, CheckpointRng, SamplerState};
use crate::error::EstimateError;
use crate::estimate::Estimate;
use crate::query::{Aggregate, AggregateQuery};
use microblog_api::{CachingClient, UserView};
use microblog_graph::sizing::CollisionCounter;
use microblog_obs::{FieldValue, SpanName};
use microblog_platform::Timestamp;

/// What a [`Sampler::step`] tells the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Pass the next safe point, then step again.
    Continue,
    /// The walk is over: finish without a further safe point.
    Stop,
}

/// One sampler — MA-SRW, MA-TARW or a baseline — as the state [`drive`]
/// steps. A sampler owns its walk state and its view of the client; the
/// driver owns the safe points, termination and the `walk` span.
pub(crate) trait Sampler<'p> {
    /// The client every fetch goes through (drained and captured at safe
    /// points).
    fn client(&mut self) -> &mut CachingClient<'p>;

    /// The resumable state at a safe point: a progress marker for logs
    /// and the sampler's [`SamplerState`]; `None` when it cannot be
    /// captured.
    fn snapshot(&self) -> Option<(u64, SamplerState)>;

    /// Advances the walk by one step. A walk-ending API error
    /// ([`microblog_api::ApiError::ends_walk`]) ends the walk like
    /// [`Flow::Stop`]; any other error fails the run.
    fn step<R: CheckpointRng>(&mut self, rng: &mut R) -> Result<Flow, EstimateError>;

    /// The estimate from everything the walk collected.
    fn finish(self) -> Result<Estimate, EstimateError>;
}

/// Runs `sampler` to its end and finishes it.
///
/// * **Safe points.** Before every step the loop offers `ctl` a
///   checkpoint. Capture drains announced prefetches first, so a
///   snapshot never races a half-done fetch, then takes the RNG, the
///   client memo and the sampler state. A step that stops leaves no
///   further safe point behind it.
/// * **Termination.** A step stops the walk by returning [`Flow::Stop`]
///   or a walk-ending API error (budget exhausted, resilience gave up);
///   every other error fails the run.
/// * **Tracing.** One `walk` span brackets the steps — the walk stage of
///   live telemetry. It is a job-lifecycle span like `estimate`: in the
///   walk category, a bounded recorder would evict its start under the
///   run's own per-step events.
///
/// Generic over the sampler and the RNG, so a step is a direct call.
pub(crate) fn drive<'p, S: Sampler<'p>, R: CheckpointRng>(
    mut sampler: S,
    rng: &mut R,
    ctl: &mut CheckpointCtl<'_>,
) -> Result<Estimate, EstimateError> {
    let tracer = sampler.client().tracer().clone();
    let span = tracer.span_start(SpanName::WALK, &[]);
    let walked = loop {
        ctl.tick(|| {
            let client = sampler.client();
            client.drain_prefetch();
            let client = client.checkpoint_state();
            let (steps, state) = sampler.snapshot()?;
            Some((steps, rng.rng_state()?, client, state))
        });
        match sampler.step(rng) {
            Ok(Flow::Continue) => {}
            Ok(Flow::Stop) => break Ok(()),
            Err(EstimateError::Api(e)) if e.ends_walk() => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    let result = walked.and_then(|()| sampler.finish());
    if tracer.is_enabled() {
        let outcome = if result.is_ok() { "ok" } else { "error" };
        tracer.span_end(
            SpanName::WALK,
            span,
            &[("outcome", FieldValue::from(outcome))],
        );
    }
    result
}

/// The checkpoint-mismatch error: a sampler was asked to resume from
/// another sampler's state.
pub(crate) fn mismatch() -> EstimateError {
    EstimateError::Unsupported("checkpoint does not match the job's algorithm")
}

/// RNG seed for chain `chain` of a run seeded with `run_seed` — the
/// per-chain streams of the interleaved multi-chain executor
/// ([`multi`]), so a chain's trajectory depends only on
/// `(run_seed, chain)`.
///
/// Chains draw from a SplitMix64 stream instead of the naive
/// `run_seed + chain`, which aliased across runs: chain 1 of run 7 was
/// chain 0 of run 8, so adjacent run seeds shared all but one trajectory
/// and "independent" repetitions were anything but.
pub(crate) fn chain_seed(run_seed: u64, chain: u64) -> u64 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    crate::view::splitmix64(run_seed.wrapping_add(GAMMA.wrapping_mul(chain)))
}

impl AggregateQuery {
    /// Per-sample values for estimation: `(matches, numerator,
    /// denominator)` where the meaning depends on the aggregate:
    ///
    /// * `Count` — numerator is the match indicator;
    /// * `Sum(m)` — numerator is `f(u)` (0 for non-matching users);
    /// * `Avg(m)` — numerator `f(u)`, denominator the match indicator;
    /// * `RatioOfSums` — both metrics.
    pub(crate) fn sample_values(&self, view: &UserView, now: Timestamp) -> (bool, f64, f64) {
        let matches = self.matches(view, now);
        match self.aggregate {
            Aggregate::Count => (matches, matches as u8 as f64, 0.0),
            Aggregate::Sum(m) => (matches, self.metric_value(m, view, now), 0.0),
            Aggregate::Avg(m) => (
                matches,
                self.metric_value(m, view, now),
                matches as u8 as f64,
            ),
            Aggregate::RatioOfSums {
                numerator,
                denominator,
            } => (
                matches,
                self.metric_value(numerator, view, now),
                self.metric_value(denominator, view, now),
            ),
        }
    }

    /// Whether this aggregate needs a population-size estimate (COUNT/SUM
    /// do; AVG-style ratios do not — the size cancels).
    pub(crate) fn needs_size_estimate(&self) -> bool {
        matches!(self.aggregate, Aggregate::Count | Aggregate::Sum(_))
    }
}

/// Accumulates degree-weighted walk samples and produces the final
/// estimate for any aggregate kind.
///
/// Under a simple random walk the stationary probability of `u` is
/// proportional to its degree, so uniform-population quantities are
/// estimated with importance weights `1/d(u)`:
/// `E_uniform[g] ≈ (Σ g(u)/d(u)) / (Σ 1/d(u))`.
#[derive(Clone, Debug, Default)]
pub(crate) struct SampleAccumulator {
    /// Σ 1/d.
    s0: f64,
    /// Σ match/d.
    s_match: f64,
    /// Σ num/d.
    s_num: f64,
    /// Σ den/d.
    s_den: f64,
    /// Collision counter for population-size estimation.
    collisions: CollisionCounter,
    /// Whether a sample should also feed the collision counter.
    samples: usize,
}

impl SampleAccumulator {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a sample with the given view degree. `count_collision` guards
    /// the size estimator (M&R requires wider sample spacing than ratio
    /// estimation, so the two sample streams can differ).
    pub(crate) fn push(
        &mut self,
        node: u32,
        degree: usize,
        matches: bool,
        num: f64,
        den: f64,
        count_collision: bool,
    ) {
        if degree == 0 {
            return;
        }
        let w = 1.0 / degree as f64;
        self.s0 += w;
        if matches {
            self.s_match += w;
        }
        self.s_num += num * w;
        self.s_den += den * w;
        self.samples += 1;
        if count_collision {
            self.collisions.push(node, degree);
        }
    }

    pub(crate) fn samples(&self) -> usize {
        self.samples
    }

    /// Serializes the accumulator for a walker checkpoint (floats as
    /// raw bits so resume is bit-identical).
    pub(crate) fn snapshot(&self) -> crate::checkpoint::AccumState {
        crate::checkpoint::AccumState {
            s0_bits: self.s0.to_bits(),
            s_match_bits: self.s_match.to_bits(),
            s_num_bits: self.s_num.to_bits(),
            s_den_bits: self.s_den.to_bits(),
            collisions: self.collisions.snapshot(),
            samples: self.samples as u64,
        }
    }

    /// Rebuilds an accumulator from checkpointed state.
    pub(crate) fn restore(state: &crate::checkpoint::AccumState) -> Self {
        SampleAccumulator {
            s0: f64::from_bits(state.s0_bits),
            s_match: f64::from_bits(state.s_match_bits),
            s_num: f64::from_bits(state.s_num_bits),
            s_den: f64::from_bits(state.s_den_bits),
            collisions: CollisionCounter::restore(&state.collisions),
            samples: state.samples as usize,
        }
    }

    /// The Katzir population-size estimate of the *walked graph*.
    pub(crate) fn size_estimate(&self) -> Option<f64> {
        self.collisions.estimate()
    }

    /// Final estimate for `query`'s aggregate; `None` when the necessary
    /// pieces (samples, collisions, non-zero denominators) are missing.
    pub(crate) fn finalize(&self, query: &AggregateQuery) -> Option<f64> {
        if self.samples == 0 || self.s0 <= 0.0 {
            return None;
        }
        match query.aggregate {
            Aggregate::Count => self.size_estimate().map(|n| n * self.s_match / self.s0),
            Aggregate::Sum(_) => self.size_estimate().map(|n| n * self.s_num / self.s0),
            Aggregate::Avg(_) => {
                if self.s_match > 0.0 {
                    Some(self.s_num / self.s_match)
                } else {
                    None
                }
            }
            Aggregate::RatioOfSums { .. } => {
                if self.s_den > 0.0 {
                    Some(self.s_num / self.s_den)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_platform::{KeywordId, UserMetric};

    fn accum_with(samples: &[(u32, usize, bool, f64, f64)], collide: bool) -> SampleAccumulator {
        let mut a = SampleAccumulator::new();
        for &(u, d, m, num, den) in samples {
            a.push(u, d, m, num, den, collide);
        }
        a
    }

    #[test]
    fn avg_is_degree_corrected_ratio() {
        let q = AggregateQuery::avg(UserMetric::FollowerCount, KeywordId(0));
        // Two matching users: f=10 with degree 1, f=30 with degree 3.
        // Degree-corrected mean = (10/1 + 30/3) / (1/1 + 1/3) = 20/(4/3) = 15.
        let a = accum_with(&[(1, 1, true, 10.0, 1.0), (2, 3, true, 30.0, 1.0)], false);
        assert!((a.finalize(&q).unwrap() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn count_needs_collisions() {
        let q = AggregateQuery::count(KeywordId(0));
        let a = accum_with(&[(1, 2, true, 1.0, 0.0), (2, 2, true, 1.0, 0.0)], true);
        assert_eq!(a.finalize(&q), None, "no collision yet");
        let b = accum_with(
            &[
                (1, 2, true, 1.0, 0.0),
                (1, 2, true, 1.0, 0.0),
                (2, 2, false, 0.0, 0.0),
            ],
            true,
        );
        // n̂ = (Σd)(Σ1/d)/(2Ψ) = (6)(1.5)/2 = 4.5; count = n̂ · (1/2+1/2)/(3/2) = 3.
        let est = b.finalize(&q).unwrap();
        assert!((est - 3.0).abs() < 1e-9, "est {est}");
    }

    #[test]
    fn zero_degree_samples_are_dropped() {
        let q = AggregateQuery::avg(UserMetric::FollowerCount, KeywordId(0));
        let a = accum_with(&[(1, 0, true, 5.0, 1.0)], false);
        assert_eq!(a.samples(), 0);
        assert_eq!(a.finalize(&q), None);
    }

    #[test]
    fn avg_without_matches_is_none() {
        let q = AggregateQuery::avg(UserMetric::FollowerCount, KeywordId(0));
        let a = accum_with(&[(1, 2, false, 0.0, 0.0)], false);
        assert_eq!(a.finalize(&q), None);
    }

    #[test]
    fn chain_seeds_do_not_alias_across_runs() {
        // The old `run_seed + chain` derivation made these two equal.
        assert_ne!(chain_seed(7, 1), chain_seed(8, 0));
        // And all chains of nearby runs stay pairwise distinct.
        let mut seen = std::collections::HashSet::new();
        for run in 0..32u64 {
            for chain in 0..8u64 {
                assert!(
                    seen.insert(chain_seed(run, chain)),
                    "aliased seed at run {run} chain {chain}"
                );
            }
        }
    }

    #[test]
    fn needs_size_estimate_flags() {
        assert!(AggregateQuery::count(KeywordId(0)).needs_size_estimate());
        assert!(AggregateQuery::sum(UserMetric::One, KeywordId(0)).needs_size_estimate());
        assert!(!AggregateQuery::avg(UserMetric::One, KeywordId(0)).needs_size_estimate());
        assert!(!AggregateQuery::post_avg(
            UserMetric::KeywordPostLikes,
            UserMetric::KeywordPostCount,
            KeywordId(0)
        )
        .needs_size_estimate());
    }
}
