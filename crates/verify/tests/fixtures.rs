//! Seeded-violation fixtures: each file plants exactly one invariant
//! breach, and the auditor must name it — and nothing else — by its
//! stable check id.

use ma_verify::audit;

/// Asserts the fixture trips `check` and no *other* check.
fn assert_only(input: &str, check: &str) {
    let audit = audit(input);
    assert!(
        audit.violations.iter().any(|v| v.check == check),
        "expected a `{check}` violation, got {:?}",
        audit.violations
    );
    assert!(
        audit.violations.iter().all(|v| v.check == check),
        "unexpected extra violations: {:?}",
        audit.violations
    );
}

#[test]
fn clean_trace_passes() {
    let a = audit(include_str!("fixtures/clean_small.jsonl"));
    assert!(a.ok(), "{:?}", a.violations);
    assert_eq!(a.frames, 16);
    assert_eq!(a.charged_calls, 3);
    assert_eq!(a.fresh_calls, 2);
    assert_eq!(a.conserved_jobs, 1);
    assert!(a.skipped.is_empty());
}

#[test]
fn dropped_charge_is_flagged() {
    // The span reports 2 charged calls but contains 3 — one call fell
    // out of the meter.
    assert_only(
        include_str!("fixtures/violation_dropped_charge.jsonl"),
        "job-conservation",
    );
}

#[test]
fn double_settle_is_flagged() {
    assert_only(
        include_str!("fixtures/violation_double_settle.jsonl"),
        "settle-once",
    );
}

#[test]
fn nonmonotone_checkpoint_is_flagged() {
    assert_only(
        include_str!("fixtures/violation_nonmonotone_checkpoint.jsonl"),
        "checkpoint-monotone",
    );
}

#[test]
fn unattributed_charge_is_flagged() {
    assert_only(
        include_str!("fixtures/violation_unattributed_charge.jsonl"),
        "charge-attribution",
    );
}

#[test]
fn illegal_fast_fail_is_flagged() {
    assert_only(
        include_str!("fixtures/violation_illegal_fast_fail.jsonl"),
        "breaker-legality",
    );
}

#[test]
fn missing_settle_is_flagged() {
    assert_only(
        include_str!("fixtures/violation_missing_settle.jsonl"),
        "settle-once",
    );
}

#[test]
fn estimate_without_a_walk_is_flagged() {
    // The estimate ends ok, yet no sampler walk ran inside it.
    assert_only(
        include_str!("fixtures/violation_walk_coverage.jsonl"),
        "walk-coverage",
    );
}

#[test]
fn broken_stats_conservation_is_flagged() {
    // Window 1 claims 20 cumulative charged calls but the previous
    // total (10) plus its delta (5) only accounts for 15.
    assert_only(
        include_str!("fixtures/violation_stats_conservation.jsonl"),
        "stats-conservation",
    );
}

#[test]
fn seq_regression_and_unknown_vocab_are_flagged() {
    let base = include_str!("fixtures/clean_small.jsonl");
    // Swap two seq numbers.
    let shuffled = base.replace("\"seq\":3", "\"seq\":99");
    let a = audit(&shuffled);
    assert!(
        a.violations.iter().any(|v| v.check == "seq-order"),
        "{:?}",
        a.violations
    );
    // Rename an event outside the closed vocabulary.
    let renamed = base.replace("\"name\":\"step\"", "\"name\":\"stride\"");
    let a = audit(&renamed);
    assert!(
        a.violations.iter().any(|v| v.check == "vocab"),
        "{:?}",
        a.violations
    );
}

#[test]
fn malformed_lines_are_violations_not_crashes() {
    let a = audit("{\"tick\":1\nnot json at all\n");
    assert_eq!(a.frames, 0);
    assert_eq!(a.violations.len(), 2);
    assert!(a.violations.iter().all(|v| v.check == "decode"));
}
