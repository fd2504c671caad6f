//! The closed trace vocabulary, pinned literally: `schema::is_event` and
//! `schema::is_span` hold for exactly the (kind, category, name) triples
//! listed here, and for no near-miss. `ma-verify`'s vocabulary check
//! calls these two functions, so this list is what every recorded trace
//! is audited against.

use microblog_obs::schema::{is_event, is_span};
use microblog_obs::Category;
use std::collections::BTreeSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Event,
    Span,
}

const VOCABULARY: [(Kind, Category, &str); 42] = [
    (Kind::Event, Category::Walk, "step"),
    (Kind::Event, Category::Walk, "mh_accept"),
    (Kind::Event, Category::Walk, "mh_reject"),
    (Kind::Event, Category::Walk, "sample"),
    (Kind::Event, Category::Walk, "restart"),
    (Kind::Event, Category::Walk, "burnin_end"),
    (Kind::Event, Category::Walk, "pilot"),
    (Kind::Event, Category::Walk, "interval_selected"),
    (Kind::Event, Category::Walk, "seeds"),
    (Kind::Event, Category::Walk, "visit"),
    (Kind::Event, Category::Walk, "level_up"),
    (Kind::Event, Category::Walk, "level_down"),
    (Kind::Event, Category::Charge, "charge"),
    (Kind::Event, Category::Cache, "local_hit"),
    (Kind::Event, Category::Cache, "miss"),
    (Kind::Event, Category::Cache, "shared_hit"),
    (Kind::Event, Category::Cache, "shared_evict"),
    (Kind::Event, Category::Resilience, "retry"),
    (Kind::Event, Category::Resilience, "rate_limited"),
    (Kind::Event, Category::Resilience, "waste"),
    (Kind::Event, Category::Resilience, "give_up"),
    (Kind::Event, Category::Resilience, "breaker_open"),
    (Kind::Event, Category::Resilience, "breaker_probe"),
    (Kind::Event, Category::Resilience, "breaker_close"),
    (Kind::Event, Category::Resilience, "breaker_fast_fail"),
    (Kind::Event, Category::Job, "settle"),
    (Kind::Event, Category::Diag, "geweke"),
    (Kind::Event, Category::Coalesce, "lead"),
    (Kind::Event, Category::Coalesce, "join"),
    (Kind::Event, Category::Coalesce, "abort"),
    (Kind::Event, Category::Checkpoint, "checkpoint"),
    (Kind::Event, Category::Recovery, "replay"),
    (Kind::Event, Category::Recovery, "respawn"),
    (Kind::Event, Category::Stats, "window"),
    (Kind::Event, Category::Stats, "gauges"),
    (Kind::Event, Category::Stats, "query"),
    (Kind::Event, Category::Sched, "announce"),
    (Kind::Event, Category::Sched, "drain"),
    (Kind::Span, Category::Walk, "pilot"),
    (Kind::Span, Category::Job, "job"),
    (Kind::Span, Category::Job, "estimate"),
    (Kind::Span, Category::Job, "walk"),
];

/// Names that are close to registered ones but are not registered
/// anywhere.
const NEAR_MISS_NAMES: [&str; 6] = ["steps", "Step", "charges", "jobs", "", "level-up"];

#[test]
fn vocabulary_is_exactly_the_listed_triples() {
    let names: BTreeSet<&str> = VOCABULARY
        .iter()
        .map(|(_, _, name)| *name)
        .chain(NEAR_MISS_NAMES)
        .collect();
    for category in Category::ALL {
        for &name in &names {
            for (kind, holds) in [
                (Kind::Event, is_event(category, name)),
                (Kind::Span, is_span(category, name)),
            ] {
                assert_eq!(
                    holds,
                    VOCABULARY.contains(&(kind, category, name)),
                    "{kind:?} {category:?} {name:?}"
                );
            }
        }
    }
    let events = VOCABULARY.iter().filter(|(k, ..)| *k == Kind::Event);
    assert_eq!(events.count(), 38);
}

#[test]
fn near_misses_are_rejected() {
    assert!(!is_event(Category::Walk, "steps"));
    assert!(!is_event(Category::Job, "job"));
    assert!(!is_span(Category::Charge, "charge"));
    // A registered name under the wrong category or kind.
    assert!(!is_event(Category::Cache, "settle"));
    assert!(!is_span(Category::Walk, "step"));
    assert!(!is_event(Category::Job, "walk"));
}
