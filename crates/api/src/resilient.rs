//! Resilient client middleware: retry, backoff, deadlines, breakers.
//!
//! [`ResilientClient`] wraps a [`MicroblogClient`] and absorbs the
//! retryable failures of the [`ApiError`] taxonomy:
//!
//! * **Retry with exponential backoff + decorrelated jitter** (the AWS
//!   scheme: each sleep is drawn uniformly from `[base, 3·prev]`, capped),
//!   up to [`RetryPolicy::max_attempts`] attempts per logical call.
//! * **Per-call deadlines** on the *simulated* clock: pacing gaps,
//!   `retry_after` windows, timeout latencies and backoff sleeps all
//!   advance it, and a logical call that out-waits
//!   [`RetryPolicy::deadline`] fails with [`ApiError::DeadlineExceeded`].
//! * **A per-endpoint circuit breaker** (closed → open → half-open): after
//!   [`BreakerConfig::failure_threshold`] consecutive failures the
//!   endpoint fails fast without touching the platform until a cooldown
//!   passes, then a half-open probe decides whether to close it again.
//!
//! ## Logical charging of retries
//!
//! Retries are real API spend, but they must be *invisible to the
//! estimator*: whether attempt 1 or attempt 3 fetched the data cannot
//! change the estimate, or resilience would break reproducibility. Failed
//! attempts therefore charge a dedicated waste meter
//! ([`ResilienceStats::wasted`], a [`CostMeter`]) rather than the walk's
//! budget — the same logical-charging principle the shared cache uses
//! (see [`crate::cache`]). The service layer reports both: what the
//! estimate cost, and what the faults burned on top.

use crate::client::{endpoint_name, MicroblogClient, SearchHit, UserView};
use crate::error::ApiError;
use crate::meter::CostMeter;
use crate::profile::ApiProfile;
use microblog_obs::{EventName, FieldValue};
use microblog_platform::{ApiEndpoint, Duration, KeywordId, Timestamp, UserId};
use serde::{Deserialize, Serialize};

/// Per-endpoint circuit-breaker parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Simulated time the breaker stays open before a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 8,
            cooldown: Duration(300),
        }
    }
}

/// The classic three breaker states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Calls fail fast until the cooldown passes.
    Open,
    /// One probe call is allowed; its outcome closes or re-opens.
    HalfOpen,
}

/// How a client reacts to retryable failures.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per logical call (1 = no retries).
    pub max_attempts: u32,
    /// First backoff sleep; also the jitter floor.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Simulated-time budget per logical call, across all its attempts.
    pub deadline: Option<Duration>,
    /// Cap on total wasted calls per client before giving up.
    pub retry_budget: Option<u64>,
    /// Circuit-breaker parameters; `None` disables breakers.
    pub breaker: Option<BreakerConfig>,
    /// Seed of the jitter stream (kept apart from the walk RNG so
    /// backoff randomness can never perturb the estimate).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries, no deadline, no breaker: failures surface immediately
    /// (wrapped in [`ApiError::RetriesExhausted`] after the one attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::SECOND,
            max_backoff: Duration::MINUTE,
            deadline: None,
            retry_budget: None,
            breaker: None,
            jitter_seed: 0,
        }
    }

    /// The production default: 5 attempts, 1s→60s decorrelated-jitter
    /// backoff, breakers on, no deadline.
    pub fn resilient() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::SECOND,
            max_backoff: Duration::MINUTE,
            deadline: None,
            retry_budget: None,
            breaker: Some(BreakerConfig::default()),
            jitter_seed: 0x5EED,
        }
    }

    /// A policy that outlasts any capped fault sequence: many attempts,
    /// no deadline, no breaker. Under it, an all-retryable [`FaultPlan`]
    /// with a consecutive-fault cap is *guaranteed* invisible to the
    /// estimator.
    ///
    /// [`FaultPlan`]: microblog_platform::FaultPlan
    pub fn patient() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 64,
            breaker: None,
            ..RetryPolicy::resilient()
        }
    }

    /// Overrides the attempt cap.
    pub fn with_max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the per-call deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> RetryPolicy {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the total wasted-call budget.
    pub fn with_retry_budget(mut self, calls: u64) -> RetryPolicy {
        self.retry_budget = Some(calls);
        self
    }

    /// Reseeds the jitter stream.
    pub fn with_jitter_seed(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = seed;
        self
    }

    /// Disables the circuit breaker.
    pub fn without_breaker(mut self) -> RetryPolicy {
        self.breaker = None;
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::resilient()
    }
}

/// Accounting of everything the resilience layer absorbed or gave up on.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ResilienceStats {
    /// Attempts issued (every op, including first tries).
    pub attempts: u64,
    /// Retries issued (attempts beyond each op's first).
    pub retries: u64,
    /// API spend burned by failed attempts, per endpoint. This is real
    /// platform traffic that bought no data; the walk's budget never
    /// sees it (logical charging — see module docs).
    pub wasted: CostMeter,
    /// Simulated time slept in backoff.
    pub backoff_wait: Duration,
    /// Simulated time waited out on `retry_after` windows.
    pub rate_limit_wait: Duration,
    /// Rate-limit rejections absorbed.
    pub rate_limited_hits: u64,
    /// Times a breaker tripped open (including half-open → open).
    pub breaker_opens: u64,
    /// Calls failed fast by an open breaker.
    pub breaker_fast_fails: u64,
    /// Give-ups: deadline exceeded, retries exhausted, or breaker open.
    /// Nonzero means the walk ended early — the estimate is degraded.
    pub fatal_errors: u64,
    /// Human-readable trail of the give-ups, oldest first (capped).
    pub trail: Vec<String>,
}

impl ResilienceStats {
    /// Total wasted API calls across endpoints.
    pub fn wasted_calls(&self) -> u64 {
        self.wasted.total()
    }

    /// Total simulated time spent waiting (backoff + rate-limit windows).
    pub fn total_wait(&self) -> Duration {
        self.backoff_wait + self.rate_limit_wait
    }

    /// Whether any give-up degraded the walk.
    pub fn degraded(&self) -> bool {
        self.fatal_errors > 0
    }
}

/// Give-up trail entries kept per client.
const TRAIL_CAP: usize = 32;

#[derive(Clone, Copy, Debug)]
struct Breaker {
    state: BreakerState,
    consecutive: u32,
    open_until: Duration,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive: 0,
            open_until: Duration(0),
        }
    }
}

/// SplitMix64: a tiny self-contained PRNG for jitter. Deliberately not
/// the walk's ChaCha stream — backoff draws must never consume walk
/// randomness.
#[derive(Clone, Copy, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The retrying middleware around a [`MicroblogClient`].
#[derive(Clone, Debug)]
pub struct ResilientClient<'a> {
    inner: MicroblogClient<'a>,
    policy: RetryPolicy,
    stats: ResilienceStats,
    breakers: [Breaker; 3],
    /// Simulated elapsed time: quota pacing + waits + backoff.
    clock: Duration,
    jitter: SplitMix64,
}

impl<'a> ResilientClient<'a> {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: MicroblogClient<'a>, policy: RetryPolicy) -> Self {
        ResilientClient {
            inner,
            policy: RetryPolicy {
                max_attempts: policy.max_attempts.max(1),
                ..policy
            },
            stats: ResilienceStats::default(),
            breakers: [Breaker::new(); 3],
            clock: Duration(0),
            jitter: SplitMix64(policy.jitter_seed ^ 0x51C6_E5B9),
        }
    }

    /// Wraps `inner` with [`RetryPolicy::none`].
    pub fn passthrough(inner: MicroblogClient<'a>) -> Self {
        Self::new(inner, RetryPolicy::none())
    }

    /// The wrapped client (for meters/budget/profile access).
    pub fn client(&self) -> &MicroblogClient<'a> {
        &self.inner
    }

    /// Mutable access to the wrapped client (checkpoint restore only).
    pub(crate) fn client_mut(&mut self) -> &mut MicroblogClient<'a> {
        &mut self.inner
    }

    /// The policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Retry/backoff/breaker accounting so far.
    pub fn stats(&self) -> &ResilienceStats {
        &self.stats
    }

    /// The simulated clock: how long this client's traffic would have
    /// taken under quota pacing, waits and backoff.
    pub fn elapsed(&self) -> Duration {
        self.clock
    }

    /// Current breaker state for `endpoint`.
    pub fn breaker_state(&self, endpoint: ApiEndpoint) -> BreakerState {
        self.breakers[endpoint.index()].state // ma-lint: allow(panic-safety) reason="breakers is a fixed array indexed by the Endpoint enum"
    }

    /// The platform clock (public knowledge: "today").
    pub fn now(&self) -> Timestamp {
        self.inner.now()
    }

    /// Records a resilience event (retry, breaker transition, waste)
    /// against `endpoint`, plus any extra fields.
    fn trace_res(
        &self,
        name: EventName,
        endpoint: ApiEndpoint,
        extra: &[(&'static str, FieldValue)],
    ) {
        let tracer = self.inner.tracer();
        if !tracer.is_enabled() {
            return;
        }
        let mut fields = Vec::with_capacity(extra.len() + 1);
        fields.push(("endpoint", FieldValue::from(endpoint_name(endpoint))));
        fields.extend_from_slice(extra);
        tracer.emit(name, &fields);
    }

    /// Retried SEARCH.
    pub fn search(&mut self, kw: KeywordId) -> Result<Vec<SearchHit>, ApiError> {
        self.call(ApiEndpoint::Search, |c| c.search(kw))
    }

    /// Retried USER TIMELINE.
    pub fn user_timeline(&mut self, u: UserId) -> Result<UserView, ApiError> {
        self.call(ApiEndpoint::Timeline, |c| c.user_timeline(u))
    }

    /// Retried USER CONNECTIONS.
    pub fn connections(&mut self, u: UserId) -> Result<Vec<UserId>, ApiError> {
        self.call(ApiEndpoint::Connections, |c| c.connections(u))
    }

    /// Charges a shared-cache hit to the budget and meter (logical
    /// charging: the hit costs what the original fetch cost) without
    /// touching the platform or the retry machinery.
    pub(crate) fn absorb_shared_hit(
        &mut self,
        endpoint: ApiEndpoint,
        calls: u64,
    ) -> Result<(), ApiError> {
        self.inner.budget.charge(calls)?;
        match endpoint {
            ApiEndpoint::Search => self.inner.meter.search += calls,
            ApiEndpoint::Connections => self.inner.meter.connections += calls,
            ApiEndpoint::Timeline => self.inner.meter.timeline += calls,
        }
        self.inner.trace_charge(endpoint, calls, "shared");
        Ok(())
    }

    /// The retry loop around one logical call.
    fn call<T>(
        &mut self,
        endpoint: ApiEndpoint,
        mut op: impl FnMut(&mut MicroblogClient<'a>) -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        let started = self.clock;
        let gap = inter_call_gap(self.inner.api_profile());
        let mut prev_sleep = self.policy.base_backoff;
        let mut attempts = 0u32;
        loop {
            // Breaker gate: fail fast while open, probe when cooled down.
            if self.policy.breaker.is_some() {
                let b = &mut self.breakers[endpoint.index()]; // ma-lint: allow(panic-safety) reason="breakers is a fixed array indexed by the Endpoint enum"
                if b.state == BreakerState::Open {
                    if self.clock < b.open_until {
                        // Even fast-fails take a pacing beat, so the
                        // cooldown eventually passes.
                        self.clock = self.clock + gap;
                        self.stats.breaker_fast_fails += 1;
                        self.trace_res(EventName::BREAKER_FAST_FAIL, endpoint, &[]);
                        return self.give_up(ApiError::CircuitOpen { endpoint });
                    }
                    b.state = BreakerState::HalfOpen;
                    self.trace_res(EventName::BREAKER_PROBE, endpoint, &[]);
                }
            }
            attempts += 1;
            self.stats.attempts += 1;
            // Each issued call occupies one quota slot of simulated time.
            self.clock = self.clock + gap;
            match op(&mut self.inner) {
                Ok(v) => {
                    self.breaker_success(endpoint);
                    return Ok(v);
                }
                Err(err) if !err.is_retryable() => {
                    // Budget exhaustion / unknown user: not the platform
                    // failing — no breaker, no waste, no trail.
                    return Err(err);
                }
                Err(err) => {
                    self.charge_waste(endpoint, err.wasted_calls());
                    self.breaker_failure(endpoint);
                    match err {
                        ApiError::RateLimited { retry_after, .. } => {
                            self.clock = self.clock + retry_after;
                            self.stats.rate_limit_wait = self.stats.rate_limit_wait + retry_after;
                            self.stats.rate_limited_hits += 1;
                            self.trace_res(
                                EventName::RATE_LIMITED,
                                endpoint,
                                &[("wait_secs", FieldValue::I64(retry_after.0))],
                            );
                        }
                        ApiError::Timeout { latency, .. } => {
                            self.clock = self.clock + latency;
                        }
                        _ => {}
                    }
                    if attempts >= self.policy.max_attempts {
                        return self.give_up(ApiError::RetriesExhausted {
                            endpoint,
                            attempts,
                            last: Box::new(err),
                        });
                    }
                    if let Some(cap) = self.policy.retry_budget {
                        if self.stats.wasted.total() >= cap {
                            return self.give_up(ApiError::RetriesExhausted {
                                endpoint,
                                attempts,
                                last: Box::new(err),
                            });
                        }
                    }
                    // Decorrelated jitter: uniform in [base, 3·prev], capped.
                    let lo = self.policy.base_backoff.0.max(0);
                    let hi = prev_sleep
                        .0
                        .saturating_mul(3)
                        .min(self.policy.max_backoff.0)
                        .max(lo);
                    let sleep =
                        Duration(lo + (self.jitter.next_f64() * (hi - lo + 1) as f64) as i64);
                    prev_sleep = sleep;
                    self.clock = self.clock + sleep;
                    self.stats.backoff_wait = self.stats.backoff_wait + sleep;
                    self.stats.retries += 1;
                    self.trace_res(
                        EventName::RETRY,
                        endpoint,
                        &[
                            ("attempt", FieldValue::U64(u64::from(attempts))),
                            ("backoff_secs", FieldValue::I64(sleep.0)),
                        ],
                    );
                    if let Some(deadline) = self.policy.deadline {
                        let waited = Duration(self.clock.0 - started.0);
                        if waited > deadline {
                            return self.give_up(ApiError::DeadlineExceeded { endpoint, waited });
                        }
                    }
                }
            }
        }
    }

    fn charge_waste(&mut self, endpoint: ApiEndpoint, calls: u64) {
        match endpoint {
            ApiEndpoint::Search => self.stats.wasted.search += calls,
            ApiEndpoint::Connections => self.stats.wasted.connections += calls,
            ApiEndpoint::Timeline => self.stats.wasted.timeline += calls,
        }
        if calls > 0 {
            self.trace_res(
                EventName::WASTE,
                endpoint,
                &[("calls", FieldValue::U64(calls))],
            );
        }
    }

    fn breaker_success(&mut self, endpoint: ApiEndpoint) {
        if self.policy.breaker.is_none() {
            return;
        }
        let b = &mut self.breakers[endpoint.index()]; // ma-lint: allow(panic-safety) reason="breakers is a fixed array indexed by the Endpoint enum"
        b.consecutive = 0;
        if b.state == BreakerState::HalfOpen {
            b.state = BreakerState::Closed;
            self.trace_res(EventName::BREAKER_CLOSE, endpoint, &[]);
        }
    }

    fn breaker_failure(&mut self, endpoint: ApiEndpoint) {
        let Some(cfg) = self.policy.breaker else {
            return;
        };
        let b = &mut self.breakers[endpoint.index()]; // ma-lint: allow(panic-safety) reason="breakers is a fixed array indexed by the Endpoint enum"
        match b.state {
            BreakerState::HalfOpen => {
                // Failed probe: back to open for another cooldown.
                b.state = BreakerState::Open;
                b.open_until = self.clock + cfg.cooldown;
                self.stats.breaker_opens += 1;
                self.trace_res(EventName::BREAKER_OPEN, endpoint, &[]);
            }
            BreakerState::Closed => {
                b.consecutive += 1;
                if b.consecutive >= cfg.failure_threshold {
                    b.state = BreakerState::Open;
                    b.open_until = self.clock + cfg.cooldown;
                    b.consecutive = 0;
                    self.stats.breaker_opens += 1;
                    self.trace_res(EventName::BREAKER_OPEN, endpoint, &[]);
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Records a fatal give-up in the stats and trail, then returns it.
    fn give_up<T>(&mut self, err: ApiError) -> Result<T, ApiError> {
        self.stats.fatal_errors += 1;
        if self.stats.trail.len() < TRAIL_CAP {
            self.stats.trail.push(err.to_string());
        }
        let tracer = self.inner.tracer();
        if tracer.is_enabled() {
            tracer.emit(
                EventName::GIVE_UP,
                &[("error", FieldValue::from(err.to_string()))],
            );
        }
        Err(err)
    }
}

/// The simulated time one API call occupies under the profile's quota
/// (e.g. Twitter's 180-per-15-minutes → 5s per call).
fn inter_call_gap(profile: &ApiProfile) -> Duration {
    Duration(profile.quota.per.0 / profile.quota.calls.max(1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::QueryBudget;
    use microblog_platform::scenario::{twitter_2013, Scale, Scenario};
    use microblog_platform::{FaultPlan, FaultyPlatform};
    use std::sync::Arc;

    fn faulty(scenario_seed: u64, plan: FaultPlan) -> (Scenario, FaultyPlatform) {
        let s = twitter_2013(Scale::Tiny, scenario_seed);
        // The scenario keeps its platform; the wrapper gets a clone so
        // the test can still consult the fault-free original.
        let platform = Arc::new(s.platform.clone());
        let f = FaultyPlatform::new(platform, plan);
        (s, f)
    }

    fn resilient<'a>(
        f: &'a FaultyPlatform,
        policy: RetryPolicy,
        budget: QueryBudget,
    ) -> ResilientClient<'a> {
        ResilientClient::new(
            MicroblogClient::from_backend(f, ApiProfile::twitter(), budget),
            policy,
        )
    }

    #[test]
    fn retries_absorb_capped_transient_faults() {
        let plan = FaultPlan::transient(3, 0.6).with_max_consecutive(2);
        let (s, f) = faulty(21, plan);
        let kw = s.keyword("privacy").unwrap();
        let mut client = resilient(&f, RetryPolicy::patient(), QueryBudget::unlimited());
        let hits = client.search(kw).expect("retries must absorb the faults");
        assert!(!hits.is_empty());
        for u in 0..30u32 {
            client.user_timeline(UserId(u)).expect("timeline retried");
            client.connections(UserId(u)).expect("connections retried");
        }
        let stats = client.stats();
        assert!(stats.retries > 0, "a 60% fault rate must force retries");
        assert!(stats.wasted_calls() > 0, "failed attempts must be metered");
        assert_eq!(stats.fatal_errors, 0, "capped faults never become fatal");
        assert!(!stats.degraded());
    }

    #[test]
    fn estimator_visible_state_matches_fault_free_run() {
        // The invariant behind the proptest satellite: data, meter and
        // budget are bit-identical whether or not retryable faults fired.
        let plan = FaultPlan::mixed(7, 0.4).with_max_consecutive(2);
        let (s, f) = faulty(22, plan);
        let kw = s.keyword("privacy").unwrap();
        let mut hostile = resilient(&f, RetryPolicy::patient(), QueryBudget::limited(5_000));
        let mut clean = MicroblogClient::with_budget(
            &s.platform,
            ApiProfile::twitter(),
            QueryBudget::limited(5_000),
        );
        assert_eq!(hostile.search(kw).unwrap(), clean.search(kw).unwrap());
        for u in 0..40u32 {
            let a = hostile.user_timeline(UserId(u)).unwrap();
            let b = clean.user_timeline(UserId(u)).unwrap();
            assert_eq!(a.posts, b.posts);
            assert_eq!(a.follower_count, b.follower_count);
            assert_eq!(
                hostile.connections(UserId(u)).unwrap(),
                clean.connections(UserId(u)).unwrap()
            );
        }
        assert_eq!(hostile.client().meter(), clean.meter());
        assert_eq!(
            hostile.client().budget().spent(),
            clean.budget().spent(),
            "failed attempts must not charge the logical budget"
        );
        assert!(hostile.stats().retries > 0, "the plan must have faulted");
    }

    #[test]
    fn passthrough_wraps_first_failure_as_retries_exhausted() {
        let (s, f) = faulty(23, FaultPlan::outage(1));
        let kw = s.keyword("privacy").unwrap();
        let mut client = resilient(&f, RetryPolicy::none(), QueryBudget::unlimited());
        let err = client.search(kw).unwrap_err();
        match err {
            ApiError::RetriesExhausted {
                attempts, ref last, ..
            } => {
                assert_eq!(attempts, 1);
                assert!(last.is_retryable());
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert!(err.ends_walk());
        assert_eq!(client.stats().fatal_errors, 1);
        assert_eq!(client.stats().trail.len(), 1);
    }

    #[test]
    fn breaker_opens_then_recovers_half_open() {
        // Outage on every endpoint; threshold 4 trips after one call's
        // 5 attempts (4 failures seen before the give-up... exactly 5).
        let (s, f) = faulty(24, FaultPlan::outage(2));
        let kw = s.keyword("privacy").unwrap();
        let policy = RetryPolicy {
            breaker: Some(BreakerConfig {
                failure_threshold: 4,
                cooldown: Duration(30),
            }),
            ..RetryPolicy::resilient()
        };
        let mut client = resilient(&f, policy, QueryBudget::unlimited());
        // Failure #4 trips the breaker open mid-loop, so attempt #5 is
        // gated and the logical call fails fast.
        let err = client.search(kw).unwrap_err();
        assert!(matches!(err, ApiError::CircuitOpen { .. }), "got {err}");
        assert_eq!(
            client.breaker_state(ApiEndpoint::Search),
            BreakerState::Open
        );
        assert!(client.stats().breaker_opens >= 1);

        // While open: fail fast without touching the platform.
        let fetched_before = f.fetches();
        let err = client.search(kw).unwrap_err();
        assert!(matches!(err, ApiError::CircuitOpen { .. }));
        assert_eq!(f.fetches(), fetched_before, "fast-fail must not fetch");
        assert!(client.stats().breaker_fast_fails >= 1);

        // Other endpoints are unaffected: independent breakers.
        assert_eq!(
            client.breaker_state(ApiEndpoint::Timeline),
            BreakerState::Closed
        );

        // Fast-fails advance the clock (5s pacing each); after the 30s
        // cooldown a half-open probe goes through to the platform.
        for _ in 0..10 {
            let _ = client.search(kw);
        }
        assert!(
            f.fetches() > fetched_before,
            "cooldown must eventually allow a half-open probe"
        );
    }

    #[test]
    fn deadline_bounds_total_wait() {
        let (s, f) = faulty(25, FaultPlan::outage(3));
        let kw = s.keyword("privacy").unwrap();
        let policy = RetryPolicy::patient().with_deadline(Duration(40));
        let mut client = resilient(&f, policy, QueryBudget::unlimited());
        match client.search(kw).unwrap_err() {
            ApiError::DeadlineExceeded { waited, .. } => {
                assert!(waited > Duration(40));
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert!(client.stats().degraded());
    }

    #[test]
    fn rate_limits_wait_out_their_window() {
        let plan = FaultPlan {
            rates: microblog_platform::FaultRates {
                rate_limited: 0.5,
                ..microblog_platform::FaultRates::NONE
            },
            retry_after: Duration(120),
            ..FaultPlan::none()
        };
        let (_, f) = faulty(26, plan);
        let mut client = resilient(&f, RetryPolicy::patient(), QueryBudget::unlimited());
        for u in 0..40u32 {
            client
                .user_timeline(UserId(u))
                .expect("capped plan recovers");
        }
        let stats = client.stats();
        assert!(stats.rate_limited_hits > 0);
        assert_eq!(
            stats.rate_limit_wait,
            Duration(120 * stats.rate_limited_hits as i64),
            "every 429 waits out exactly its retry_after"
        );
        // 429s are rejected before serving: they waste no calls.
        assert_eq!(stats.wasted.timeline, 0);
    }

    #[test]
    fn retry_budget_caps_the_waste() {
        let (s, f) = faulty(27, FaultPlan::outage(4));
        let kw = s.keyword("privacy").unwrap();
        let policy = RetryPolicy::patient().with_retry_budget(3);
        let mut client = resilient(&f, policy, QueryBudget::unlimited());
        let err = client.search(kw).unwrap_err();
        assert!(matches!(err, ApiError::RetriesExhausted { .. }));
        assert!(client.stats().wasted_calls() <= 4, "budget caps waste");
    }

    #[test]
    fn jitter_backoff_is_bounded_and_grows() {
        let (s, f) = faulty(28, FaultPlan::outage(5));
        let kw = s.keyword("privacy").unwrap();
        let policy = RetryPolicy::resilient()
            .with_max_attempts(6)
            .without_breaker();
        let mut client = resilient(&f, policy, QueryBudget::unlimited());
        let _ = client.search(kw);
        let stats = client.stats();
        assert_eq!(stats.retries, 5);
        // 5 sleeps, each within [1s, 60s].
        assert!(stats.backoff_wait >= Duration(5));
        assert!(stats.backoff_wait <= Duration(300));
    }
}
