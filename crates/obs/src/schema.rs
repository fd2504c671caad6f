//! The closed trace vocabulary, as data.
//!
//! `ma-verify` replays `.jsonl` traces and must reject events the
//! runtime never emits. The vocabulary is the set of registered
//! [`EventName`] and [`SpanName`] constants: emitting code can only name
//! those, so an unregistered or misspelled event does not compile, and
//! this module is the auditor's view of the same constants.

use crate::event::{Category, EventKind, EventName, SpanName, WalkPhase};

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
    EventName::ALL
        .iter()
        .any(|e| e.0.category == category && e.0.name == name)
}

/// Whether `name` is a legal span name for `category`.
pub fn is_span(category: Category, name: &str) -> bool {
    SpanName::ALL
        .iter()
        .any(|s| s.0.category == category && s.0.name == name)
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
