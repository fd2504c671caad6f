//! The trace record: categories, kinds, walk phases and typed fields.
//!
//! A [`TraceEvent`] is deliberately flat — a timestamp, a global sequence
//! number, a small closed set of categories, a registered name
//! ([`EventName`] / [`SpanName`]) and a short list of typed fields — so
//! that serialization is a fixed-order byte-for-byte deterministic
//! rendering (see [`crate::export`]) and the hot-path cost of recording
//! one is a handful of copies.

/// What part of the stack an event describes. Categories shard the
/// recorder and carry independent sampling rates: walk steps are
/// high-volume and may be downsampled while charge events are always
/// kept, because cost attribution must account for every charged call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Walker transitions: steps, MH accept/reject, samples, restarts,
    /// burn-in boundaries, level moves.
    Walk,
    /// Budget charges in the metered client stack (fresh calls and
    /// logically-charged shared hits).
    Charge,
    /// Cache activity: local/shared hits, misses, evictions.
    Cache,
    /// Resilience: retries, backoff, breaker transitions, fast-fails,
    /// waste-meter charges, give-ups.
    Resilience,
    /// Job lifecycle spans in the service engine.
    Job,
    /// Diagnostics: running Geweke z-scores, accumulator snapshots.
    Diag,
    /// Miss coalescing: in-flight leader elections, waiter joins,
    /// aborted flights handed back for re-election.
    Coalesce,
    /// Walker checkpoints: cadence emissions and journal appends.
    Checkpoint,
    /// Crash recovery: journal replay, worker respawns, job requeues.
    Recovery,
    /// Live telemetry: windowed counter deltas, operational gauges and
    /// per-query convergence readings emitted on a cadence.
    Stats,
    /// Fetch scheduler: prefetch announcements from the logical walk
    /// thread and checkpoint-drain barriers. Only deterministic
    /// logical-thread points emit here — worker-pool completions feed
    /// gauges, not events, so traces stay byte-identical.
    Sched,
}

impl Category {
    /// Number of categories; sizes per-category arrays.
    pub const COUNT: usize = 11;

    /// All categories, in shard/index order.
    pub const ALL: [Category; Category::COUNT] = [
        Category::Walk,
        Category::Charge,
        Category::Cache,
        Category::Resilience,
        Category::Job,
        Category::Diag,
        Category::Coalesce,
        Category::Checkpoint,
        Category::Recovery,
        Category::Stats,
        Category::Sched,
    ];

    /// Stable shard index for this category.
    pub fn index(self) -> usize {
        match self {
            Category::Walk => 0,
            Category::Charge => 1,
            Category::Cache => 2,
            Category::Resilience => 3,
            Category::Job => 4,
            Category::Diag => 5,
            Category::Coalesce => 6,
            Category::Checkpoint => 7,
            Category::Recovery => 8,
            Category::Stats => 9,
            Category::Sched => 10,
        }
    }

    /// Short lowercase name used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Walk => "walk",
            Category::Charge => "charge",
            Category::Cache => "cache",
            Category::Resilience => "resilience",
            Category::Job => "job",
            Category::Diag => "diag",
            Category::Coalesce => "coalesce",
            Category::Checkpoint => "checkpoint",
            Category::Recovery => "recovery",
            Category::Stats => "stats",
            Category::Sched => "sched",
        }
    }
}

/// A registered point-event name: the [`Category`] it is recorded under
/// and its name in a [`TraceEvent`] and in JSON. Only this crate
/// constructs one, so [`crate::Tracer::emit`] cannot record an
/// unregistered or misspelled event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventName(pub(crate) Name);

/// A registered span name, recorded by [`crate::Tracer::span_start`] and
/// [`crate::Tracer::span_end`]. A name may be both a span and a point
/// event: the `pilot` span brackets MA-TARW's pilot phase, and each
/// `pilot` event reports one pilot measurement inside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanName(pub(crate) Name);

/// The (category, name) pair an [`EventName`] or [`SpanName`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Name {
    pub(crate) category: Category,
    pub(crate) name: &'static str,
}

/// Writes each registered (category, name) pair once, as a constant of
/// `$ty`, and lists every constant in `$ty::ALL`.
macro_rules! vocabulary {
    ($ty:ident { $($(#[$doc:meta])* $konst:ident: $cat:ident $name:literal,)* }) => {
        impl $ty {
            $(
                $(#[$doc])*
                pub const $konst: $ty = $ty(Name { category: Category::$cat, name: $name });
            )*

            /// Every registered name, in table order.
            pub const ALL: &'static [$ty] = &[$($ty::$konst),*];
        }
    };
}

vocabulary!(EventName {
    /// An SRW-family walker transition.
    STEP: Walk "step",
    /// An accepted Metropolis–Hastings proposal.
    MH_ACCEPT: Walk "mh_accept",
    /// A rejected Metropolis–Hastings proposal.
    MH_REJECT: Walk "mh_reject",
    /// A sample the walker kept.
    SAMPLE: Walk "sample",
    /// A walk restarted from a seed at a dead end.
    RESTART: Walk "restart",
    /// The end of a chain's burn-in.
    BURNIN_END: Walk "burnin_end",
    /// One pilot-walk measurement during interval selection.
    PILOT: Walk "pilot",
    /// The level interval pilot selection chose.
    INTERVAL_SELECTED: Walk "interval_selected",
    /// The seed users a SEARCH returned.
    SEEDS: Walk "seeds",
    /// One node of a replayed offline walk trace.
    VISIT: Walk "visit",
    /// An MA-TARW move to a higher level.
    LEVEL_UP: Walk "level_up",
    /// An MA-TARW move to a lower level.
    LEVEL_DOWN: Walk "level_down",
    /// A budget debit in the metered client stack.
    CHARGE: Charge "charge",
    /// A fetch served from the client's own memo.
    LOCAL_HIT: Cache "local_hit",
    /// A fetch neither cache could serve.
    MISS: Cache "miss",
    /// A fetch served, and logically charged, from the shared cache.
    SHARED_HIT: Cache "shared_hit",
    /// An entry evicted from the shared cache.
    SHARED_EVICT: Cache "shared_evict",
    /// An attempt retried after a retryable fault.
    RETRY: Resilience "retry",
    /// A rate-limit response and the wait it imposed.
    RATE_LIMITED: Resilience "rate_limited",
    /// Calls a failed attempt charged to the waste meter.
    WASTE: Resilience "waste",
    /// A fatal error the resilient client returned.
    GIVE_UP: Resilience "give_up",
    /// A circuit breaker opened.
    BREAKER_OPEN: Resilience "breaker_open",
    /// A half-open breaker let one probe through.
    BREAKER_PROBE: Resilience "breaker_probe",
    /// A breaker closed again.
    BREAKER_CLOSE: Resilience "breaker_close",
    /// A call refused by an open breaker.
    BREAKER_FAST_FAIL: Resilience "breaker_fast_fail",
    /// A job's quota reservation settled.
    SETTLE: Job "settle",
    /// A running Geweke z-score.
    GEWEKE: Diag "geweke",
    /// A miss that became the in-flight leader for its key.
    LEAD: Coalesce "lead",
    /// A miss that waited on another job's in-flight fetch.
    JOIN: Coalesce "join",
    /// A failed flight handed back for re-election.
    ABORT: Coalesce "abort",
    /// A walker checkpoint captured.
    CHECKPOINT: Checkpoint "checkpoint",
    /// The journal replayed at startup.
    REPLAY: Recovery "replay",
    /// A crashed worker respawned.
    RESPAWN: Recovery "respawn",
    /// A live-stats window: counter deltas and totals.
    WINDOW: Stats "window",
    /// A live-stats gauge reading.
    GAUGES: Stats "gauges",
    /// A live-stats convergence reading for one query.
    QUERY: Stats "query",
    /// Fetches announced to the pipeline.
    ANNOUNCE: Sched "announce",
    /// A checkpoint-drain barrier in the pipeline.
    DRAIN: Sched "drain",
});

vocabulary!(SpanName {
    /// MA-TARW's pilot interval-selection phase.
    PILOT: Walk "pilot",
    /// One job, from dequeue to settlement.
    JOB: Job "job",
    /// One estimator run inside a job.
    ESTIMATE: Job "estimate",
    /// The sampler driver's walk.
    WALK: Job "walk",
});

/// Whether a record is a point event or one end of a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A point-in-time event.
    Event,
    /// The opening edge of a span; carries the span id.
    SpanStart,
    /// The closing edge of a span; carries the same span id.
    SpanEnd,
}

impl EventKind {
    /// Name used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Event => "event",
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
        }
    }
}

/// The walk phase a charge or event is attributed to. Walkers publish
/// their current phase on the [`crate::Tracer`]; the client stack stamps
/// it onto every charge it records, which is how `ma-cli trace --summary`
/// builds its per-phase cost tree without the client knowing anything
/// about walk structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum WalkPhase {
    /// No walk phase published (engine bookkeeping, setup, teardown).
    #[default]
    Idle,
    /// Fetching seed users through the SEARCH API.
    Seed,
    /// Pilot walks used to pick the MA-TARW time interval.
    Pilot,
    /// Burn-in steps of a random walk (samples discarded).
    BurnIn,
    /// Post-burn-in sampling steps of SRW / MHRW / M&R walks.
    Walk,
    /// MA-TARW bottom-to-top path construction.
    Up,
    /// MA-TARW top-to-bottom path construction.
    Down,
    /// MA-TARW visit-probability estimation (the Eq. (6) recursion).
    Probability,
}

impl WalkPhase {
    /// All phases, in display order.
    pub const ALL: [WalkPhase; 8] = [
        WalkPhase::Idle,
        WalkPhase::Seed,
        WalkPhase::Pilot,
        WalkPhase::BurnIn,
        WalkPhase::Walk,
        WalkPhase::Up,
        WalkPhase::Down,
        WalkPhase::Probability,
    ];

    /// Short lowercase name used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            WalkPhase::Idle => "idle",
            WalkPhase::Seed => "seed",
            WalkPhase::Pilot => "pilot",
            WalkPhase::BurnIn => "burn_in",
            WalkPhase::Walk => "walk",
            WalkPhase::Up => "up",
            WalkPhase::Down => "down",
            WalkPhase::Probability => "probability",
        }
    }

    /// Stable index into [`WalkPhase::ALL`].
    pub fn index(self) -> usize {
        match self {
            WalkPhase::Idle => 0,
            WalkPhase::Seed => 1,
            WalkPhase::Pilot => 2,
            WalkPhase::BurnIn => 3,
            WalkPhase::Walk => 4,
            WalkPhase::Up => 5,
            WalkPhase::Down => 6,
            WalkPhase::Probability => 7,
        }
    }
}

/// A typed field value. Floats are rendered with Rust's shortest
/// round-trip formatting, which is deterministic across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned counter or identifier.
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A measurement (probabilities, z-scores).
    F64(f64),
    /// A short label (endpoint or algorithm names).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One trace record. Produced by [`crate::Tracer`], buffered by a
/// [`crate::TraceSink`], exported by [`crate::export`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Timestamp in telemetry-clock microseconds (logical ticks by
    /// default — see [`crate::TelemetryClock`]).
    pub tick: u64,
    /// Global sequence number; total order over one tracer's output.
    pub seq: u64,
    /// Point event or span edge.
    pub kind: EventKind,
    /// Which part of the stack emitted it.
    pub category: Category,
    /// Event name, from the registered vocabulary ([`EventName`] /
    /// [`SpanName`]; see DESIGN.md §10).
    pub name: &'static str,
    /// Span id for span edges; `None` for point events outside a span.
    pub span: Option<u64>,
    /// Ambient walk phase at record time.
    pub phase: WalkPhase,
    /// Ambient level-graph level at record time, if the walker published
    /// one (MA-TARW only).
    pub level: Option<i64>,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Looks up a `U64` field by name.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        match self.field(name) {
            Some(FieldValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up an `F64` field by name.
    pub fn f64_field(&self, name: &str) -> Option<f64> {
        match self.field(name) {
            Some(FieldValue::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a `Str` field by name.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(FieldValue::Str(v)) => Some(v.as_str()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_index_matches_all_order() {
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn phase_index_matches_all_order() {
        for (i, p) in WalkPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn field_lookup_by_name_and_type() {
        let ev = TraceEvent {
            tick: 1,
            seq: 0,
            kind: EventKind::Event,
            category: Category::Charge,
            name: "charge",
            span: None,
            phase: WalkPhase::Walk,
            level: None,
            fields: vec![
                ("calls", FieldValue::U64(3)),
                ("endpoint", FieldValue::from("search")),
                ("z", FieldValue::F64(0.25)),
            ],
        };
        assert_eq!(ev.u64_field("calls"), Some(3));
        assert_eq!(ev.str_field("endpoint"), Some("search"));
        assert_eq!(ev.f64_field("z"), Some(0.25));
        assert_eq!(ev.u64_field("missing"), None);
        assert_eq!(ev.u64_field("endpoint"), None);
    }
}
