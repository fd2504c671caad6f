//! The closed trace vocabulary, as data.
//!
//! `ma-verify` replays `.jsonl` traces and must reject events the
//! runtime never emits — but hard-coding the vocabulary in the auditor
//! would let the two drift apart silently. This module is the single
//! source of truth: the emitting code uses [`Category`] / [`WalkPhase`]
//! enums directly, and the auditor validates decoded frames against the
//! tables here. Adding an event name without registering it is caught by
//! the CI replay step the moment the new event appears in a trace.

use crate::event::{Category, EventKind, WalkPhase};

/// Point-event names the runtime emits, per category.
///
/// Span names live in [`span_names`]; a name may legally appear in both
/// (`pilot` does: the Walk point event reports a pilot measurement, the
/// Walk span brackets the whole pilot phase).
pub fn event_names(category: Category) -> &'static [&'static str] {
    match category {
        Category::Walk => &[
            "step",
            "mh_accept",
            "mh_reject",
            "sample",
            "restart",
            "burnin_end",
            "pilot",
            "interval_selected",
            "seeds",
            "visit",
            "level_up",
            "level_down",
        ],
        Category::Charge => &["charge"],
        Category::Cache => &["local_hit", "miss", "shared_hit", "shared_evict"],
        Category::Resilience => &[
            "retry",
            "rate_limited",
            "waste",
            "give_up",
            "breaker_open",
            "breaker_probe",
            "breaker_close",
            "breaker_fast_fail",
        ],
        Category::Job => &["settle"],
        Category::Diag => &["geweke"],
        Category::Coalesce => &["lead", "join", "abort"],
        Category::Checkpoint => &["checkpoint"],
        Category::Recovery => &["replay", "respawn"],
        Category::Stats => &["window", "gauges", "query"],
        Category::Sched => &["announce", "drain"],
    }
}

/// Span names (emitted as `span_start` / `span_end` pairs), per category.
pub fn span_names(category: Category) -> &'static [&'static str] {
    match category {
        Category::Walk => &["pilot"],
        Category::Job => &["job", "estimate", "walk"],
        _ => &[],
    }
}

/// Conserved counter names carried by every `stats`/`window` event.
///
/// Each emission reports, per key, the delta since the previous emission
/// (field `d_<key>`) and the cumulative total so far (field `t_<key>`).
/// The contract — audited by `ma-verify` — is that the deltas telescope:
/// every window's total equals the previous total plus its delta, so the
/// sum of all deltas in a stream equals the final cumulative total.
pub const STATS_CONSERVED_KEYS: [&str; 11] = [
    "jobs_submitted",
    "jobs_succeeded",
    "jobs_degraded",
    "jobs_failed",
    "charged_calls",
    "refunded_calls",
    "actual_calls",
    "local_hits",
    "shared_hits",
    "cache_misses",
    "walk_samples",
];

/// Whether `name` is a legal point-event name for `category`.
pub fn is_event(category: Category, name: &str) -> bool {
    event_names(category).contains(&name)
}

/// Whether `name` is a legal span name for `category`.
pub fn is_span(category: Category, name: &str) -> bool {
    span_names(category).contains(&name)
}

/// Parses the `cat` field of a serialized frame.
pub fn parse_category(s: &str) -> Option<Category> {
    Category::ALL.iter().copied().find(|c| c.as_str() == s)
}

/// Parses the `kind` field of a serialized frame.
pub fn parse_kind(s: &str) -> Option<EventKind> {
    [EventKind::Event, EventKind::SpanStart, EventKind::SpanEnd]
        .into_iter()
        .find(|k| k.as_str() == s)
}

/// Parses the `phase` field of a serialized frame.
pub fn parse_phase(s: &str) -> Option<WalkPhase> {
    WalkPhase::ALL.iter().copied().find(|p| p.as_str() == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_category_round_trips_through_parse() {
        for c in Category::ALL {
            assert_eq!(parse_category(c.as_str()), Some(c));
        }
        assert_eq!(parse_category("walks"), None);
    }

    #[test]
    fn every_phase_round_trips_through_parse() {
        for p in WalkPhase::ALL {
            assert_eq!(parse_phase(p.as_str()), Some(p));
        }
        assert_eq!(parse_phase("warmup"), None);
    }

    #[test]
    fn kinds_round_trip_and_reject_unknowns() {
        for k in [EventKind::Event, EventKind::SpanStart, EventKind::SpanEnd] {
            assert_eq!(parse_kind(k.as_str()), Some(k));
        }
        assert_eq!(parse_kind("span"), None);
    }

    #[test]
    fn settle_is_a_job_event_and_job_is_a_span() {
        assert!(is_event(Category::Job, "settle"));
        assert!(is_span(Category::Job, "job"));
        assert!(is_span(Category::Job, "estimate"));
        assert!(!is_event(Category::Job, "job"));
        assert!(!is_span(Category::Charge, "charge"));
    }
}
