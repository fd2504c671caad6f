//! Fixture self-tests: every rule is exercised twice — once firing on a
//! violating fixture, once silenced by inline suppression on the same
//! patterns. The fixtures live under `tests/fixtures/` (excluded from
//! workspace scans by `Config::skip`) and are fed to [`ma_lint::analyze_source`]
//! under synthetic workspace paths that put them in each rule's scope.

use ma_lint::analyze_source;
use ma_lint::config::Config;
use ma_lint::context::Finding;
use ma_lint::rules::lock_order;

/// Findings for `rule` when the fixture is analyzed as library code of a
/// crate the rule applies to.
fn run(rule: &str, path: &str, source: &str) -> Vec<Finding> {
    let analysis = analyze_source(path, source, &Config::default());
    // A fixture must never trip a rule it isn't about (e.g. a stray
    // unwrap in the determinism fixture) — that would mean the fixtures
    // are entangled and a rule regression could hide.
    for f in &analysis.findings {
        assert!(
            f.rule == rule,
            "fixture for `{rule}` tripped unrelated rule `{}` at line {}: {}",
            f.rule,
            f.line,
            f.message
        );
    }
    analysis.findings
}

#[test]
fn panic_safety_fires() {
    let findings = run(
        "panic-safety",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panic_safety_fire.rs"),
    );
    // unwrap, expect, panic!, xs[3] — and NOT the unwrap in #[cfg(test)].
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn panic_safety_suppressed() {
    let findings = run(
        "panic-safety",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panic_safety_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_safety_ignores_binaries() {
    let findings = run(
        "panic-safety",
        "crates/core/src/bin/fixture.rs",
        include_str!("fixtures/panic_safety_fire.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn determinism_fires() {
    let findings = run(
        "determinism",
        "crates/core/src/walker/fixture.rs",
        include_str!("fixtures/determinism_fire.rs"),
    );
    // `.iter()` on a HashMap field and `.drain()` on a HashSet binding;
    // the `.get()` point lookup stays silent.
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn determinism_suppressed() {
    let findings = run(
        "determinism",
        "crates/core/src/walker/fixture.rs",
        include_str!("fixtures/determinism_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn charging_fires() {
    let findings = run(
        "charging",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/charging_fire.rs"),
    );
    // timeline, followers, fetch_connections, search_posts.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn charging_suppressed() {
    let findings = run(
        "charging",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/charging_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn charging_sink_write_fires_in_walker_code() {
    let findings = run(
        "charging",
        "crates/core/src/walker/fixture.rs",
        include_str!("fixtures/charging_sink_fire.rs"),
    );
    // The raw `sink.record(…)`; the `tracer.emit(…)` on the next line is
    // the sanctioned route and stays silent.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("Tracer::emit"), "{findings:?}");
}

#[test]
fn charging_sink_write_suppressed() {
    let findings = run(
        "charging",
        "crates/core/src/walker/fixture.rs",
        include_str!("fixtures/charging_sink_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn charging_sink_ban_is_scoped_to_walker_code() {
    // Histogram `.record(…)` in the service metrics registry is not a
    // trace-sink write; the ban only covers estimator/walker paths.
    let findings = run(
        "charging",
        "crates/service/src/fixture.rs",
        "fn observe(h: &Log2Histogram, v: u64) { h.record(v); }\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn charging_exempts_the_metered_stack() {
    let findings = run(
        "charging",
        "crates/api/src/client.rs",
        include_str!("fixtures/charging_fire.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn fs_write_fires() {
    let findings = run(
        "fs-write",
        "crates/service/src/fixture.rs",
        include_str!("fixtures/fs_write_fire.rs"),
    );
    // create_dir_all, write, File::create, OpenOptions::new, rename —
    // and NOT the read-side `fs::read`.
    assert_eq!(findings.len(), 5, "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("journal")));
}

#[test]
fn fs_write_suppressed() {
    let findings = run(
        "fs-write",
        "crates/service/src/fixture.rs",
        include_str!("fixtures/fs_write_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn fs_write_exempts_the_journal_module() {
    let findings = run(
        "fs-write",
        "crates/service/src/journal.rs",
        include_str!("fixtures/fs_write_fire.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn fs_write_is_scoped_to_core_and_service_libraries() {
    for path in [
        "crates/obs/src/fixture.rs",
        "crates/service/src/bin/fixture.rs",
        "crates/service/tests/fixture.rs",
    ] {
        let findings = run("fs-write", path, include_str!("fixtures/fs_write_fire.rs"));
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

#[test]
fn lock_order_fires() {
    let analysis = analyze_source(
        "crates/service/src/fixture.rs",
        include_str!("fixtures/lock_order_fire.rs"),
        &Config::default(),
    );
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    let mut findings = Vec::new();
    lock_order::check_cycles(&analysis.lock_edges, &mut findings);
    // The queue↔ledger cycle plus the queue self-loop, each once.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("re-acquired")));
    assert!(findings.iter().any(|f| f.message.contains("cycle")));
}

#[test]
fn lock_order_suppressed() {
    let analysis = analyze_source(
        "crates/service/src/fixture.rs",
        include_str!("fixtures/lock_order_suppressed.rs"),
        &Config::default(),
    );
    let mut findings = Vec::new();
    lock_order::check_cycles(&analysis.lock_edges, &mut findings);
    // The annotated edge is removed from the graph: no cycle survives.
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_across_call_fires() {
    // Analyzed as the metered client (charging-exempt), which is exactly
    // where raw backend calls legitimately live — and where holding a
    // guard across one would hurt the most.
    let findings = run(
        "lock-across-call",
        "crates/api/src/client.rs",
        include_str!("fixtures/lock_across_call_fire.rs"),
    );
    // The let-bound guard across `.fetch_timeline(` and the inline guard
    // enclosing `.followers(`; the scoped and sequential shapes are silent.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("`flights`")));
}

#[test]
fn lock_across_call_suppressed() {
    let findings = run(
        "lock-across-call",
        "crates/api/src/client.rs",
        include_str!("fixtures/lock_across_call_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_across_call_is_scoped_to_service_and_api() {
    let findings = run(
        "lock-across-call",
        "crates/graph/src/fixture.rs",
        include_str!("fixtures/lock_across_call_fire.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hygiene_fires() {
    let findings = run(
        "hygiene",
        "crates/core/src/lib.rs",
        include_str!("fixtures/hygiene_fire.rs"),
    );
    // Missing forbid(unsafe_code) + Estimate without #[must_use].
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn hygiene_suppressed() {
    let findings = run(
        "hygiene",
        "crates/core/src/lib.rs",
        include_str!("fixtures/hygiene_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hygiene_clean_file_passes() {
    let findings = run(
        "hygiene",
        "crates/core/src/lib.rs",
        include_str!("fixtures/hygiene_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn interproc_charging_flags_every_caller_in_the_chain() {
    let findings = run(
        "charging",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/interproc_charging_fire.rs"),
    );
    // The direct `.timeline(` plus the two helper call sites above it.
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("2 hop(s)")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("helper_one") && f.message.contains("helper_two")),
        "witness chain must name the path: {findings:?}"
    );
}

#[test]
fn interproc_charging_source_annotation_seals_the_cone() {
    let findings = run(
        "charging",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/interproc_charging_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn interproc_lock_flags_guarded_call_into_fetching_helper() {
    let findings = run(
        "lock-across-call",
        "crates/api/src/client.rs",
        include_str!("fixtures/interproc_lock_fire.rs"),
    );
    // Only `orchestrate` holds a guard at its helper call; the scoped
    // variant released the guard first and stays clean.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("`table`"), "{findings:?}");
    assert!(findings[0].message.contains("hop"), "{findings:?}");
}

#[test]
fn interproc_lock_suppressed_at_call_site() {
    let findings = run(
        "lock-across-call",
        "crates/api/src/client.rs",
        include_str!("fixtures/interproc_lock_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn interproc_fs_write_flags_every_caller_in_the_chain() {
    let findings = run(
        "fs-write",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/interproc_fs_fire.rs"),
    );
    // The direct `fs::write` plus the two callers above it.
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("journal")));
}

#[test]
fn interproc_fs_write_source_annotation_seals_the_cone() {
    let findings = run(
        "fs-write",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/interproc_fs_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn rng_confinement_fires_outside_sampler_seams() {
    let findings = run(
        "rng-confinement",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/rng_confinement_fire.rs"),
    );
    // thread_rng (unseedable), seed_from_u64 (constructor), gen_range (draw).
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn rng_confinement_allows_seeded_rng_in_sampler_paths() {
    // Inside the walker seam the seeded constructor and the draw are
    // sanctioned — but the unseedable `thread_rng` still fires.
    let findings = run(
        "rng-confinement",
        "crates/core/src/walker/fixture.rs",
        include_str!("fixtures/rng_confinement_fire.rs"),
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("thread_rng"), "{findings:?}");
}

#[test]
fn rng_confinement_suppressed() {
    let findings = run(
        "rng-confinement",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/rng_confinement_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn checkpoint_coverage_fires_on_drift_prone_state() {
    let findings = run(
        "checkpoint-coverage",
        "crates/core/src/checkpoint.rs",
        include_str!("fixtures/checkpoint_coverage_fire.rs"),
    );
    // Missing derives on BrokenState, the serde-skip field, the `..` use.
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("BrokenState")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("rest pattern")),
        "{findings:?}"
    );
}

#[test]
fn checkpoint_coverage_suppressed() {
    let findings = run(
        "checkpoint-coverage",
        "crates/core/src/checkpoint.rs",
        include_str!("fixtures/checkpoint_coverage_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lexer_hardening_literals_are_opaque_to_rules() {
    let findings = run(
        "panic-safety",
        "crates/service/src/fixture.rs",
        include_str!("fixtures/lexer_hardening_fire.rs"),
    );
    // Only the real `.unwrap()`; the raw-string/comment/char-literal
    // decoys must stay opaque.
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn blocking_fetch_fires_in_walker_chain_code() {
    let findings = run(
        "blocking-fetch-in-chain",
        "crates/core/src/walker/fixture.rs",
        include_str!("fixtures/blocking_fetch_fire.rs"),
    );
    // search, user_timeline, connections.
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn blocking_fetch_suppressed() {
    let findings = run(
        "blocking-fetch-in-chain",
        "crates/core/src/walker/fixture.rs",
        include_str!("fixtures/blocking_fetch_suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn blocking_fetch_outside_chain_scope_is_exempt() {
    // The graph-view and seed modules are the sanctioned fetch seams;
    // the rule only polices walker/ chain code.
    let findings = run(
        "blocking-fetch-in-chain",
        "crates/core/src/view.rs",
        include_str!("fixtures/blocking_fetch_fire.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}
