//! What each rule applies to.
//!
//! `ma-lint` is a *workspace* linter: the rule set and its allowlists
//! encode this repository's conventions (see DESIGN.md §9 and §13), so
//! the defaults live in code rather than in a config file. Paths are
//! workspace-relative with `/` separators; matching is by prefix, so
//! `crates/bench/` covers every file under that crate.

/// Rule identifiers, as used in findings and suppression comments. A
/// suppression naming any other rule is itself a `suppression` finding.
pub const RULES: [&str; 11] = [
    "panic-safety",
    "determinism",
    "charging",
    "lock-order",
    "lock-across-call",
    "hygiene",
    "fs-write",
    "rng-confinement",
    "checkpoint-coverage",
    "blocking-fetch-in-chain",
    "suppression",
];

/// The analyzer's configuration. [`Config::default`] is the workspace
/// policy; tests build custom ones to aim rules at fixture files.
#[derive(Clone, Debug)]
pub struct Config {
    /// Path prefixes never scanned at all.
    pub skip: Vec<String>,
    /// Crates whose library code must be panic-free (prefixes of the
    /// form `crates/<name>/src/`).
    pub panic_safety_paths: Vec<String>,
    /// Estimator/walker/estimate paths where hash-order iteration can
    /// feed arithmetic and is therefore forbidden.
    pub determinism_paths: Vec<String>,
    /// Paths that must route API traffic through the metered client
    /// stack rather than calling `Platform`/`ApiBackend` directly.
    pub charging_paths: Vec<String>,
    /// Paths exempt from the charging rule *within* the above (the
    /// metered stack itself). These are also the call-graph *boundary*:
    /// a fetch reached through a function defined here counts as
    /// charged, so the interprocedural rule does not cross into it.
    pub charging_exempt: Vec<String>,
    /// Paths whose `Mutex`/`RwLock` acquisitions feed the global
    /// lock-order graph.
    pub lock_order_paths: Vec<String>,
    /// Paths where a lock guard may not be held across a
    /// `Platform`/`ApiBackend` fetch (a stalled backend call would block
    /// every thread contending for the lock).
    pub lock_across_call_paths: Vec<String>,
    /// Paths whose library code may not mutate the filesystem directly
    /// (durable state must flow through the write-ahead journal, or
    /// crash recovery cannot replay it).
    pub fs_write_paths: Vec<String>,
    /// Paths exempt from the fs-write rule *within* the above (the
    /// journal writer itself). Like `charging_exempt`, this seals the
    /// call graph: filesystem mutation behind these functions is the
    /// sanctioned durable-state path.
    pub fs_write_exempt: Vec<String>,
    /// Paths scanned by the `rng-confinement` rule: library code here
    /// may not construct or draw from RNGs unless also under
    /// `rng_allowed_paths`. Randomness outside the sampler seams breaks
    /// seeded reproducibility (checkpoint resume, byte-identical
    /// traces).
    pub rng_scope_paths: Vec<String>,
    /// Sampler modules and deliberate randomness seams *within*
    /// `rng_scope_paths` where RNG use is the point: the walker family,
    /// the checkpoint RNG capture/restore, interval-selection pilots,
    /// the analyzer's run-RNG construction, and the resilient client's
    /// seeded jitter.
    pub rng_allowed_paths: Vec<String>,
    /// Files defining the checkpoint state structs the
    /// `checkpoint-coverage` rule guards (struct names ending in
    /// `State` plus `WalkerCheckpoint` itself).
    pub checkpoint_state_files: Vec<String>,
    /// Paths where constructions/destructurings of those state structs
    /// must be field-exhaustive (no `..` rest patterns that would let a
    /// newly added field silently default or be dropped on resume).
    pub checkpoint_use_paths: Vec<String>,
    /// Walker chain code where bare blocking client fetches
    /// (`.search(…)`, `.user_timeline(…)`, `.connections(…)`) are
    /// forbidden: a direct call stalls every interleaved chain for a
    /// full RTT instead of flowing through the announced fetch pipeline.
    pub blocking_fetch_paths: Vec<String>,
    /// Crate-root files that must carry `#![forbid(unsafe_code)]`.
    pub hygiene_lib_roots: Vec<String>,
    /// Type names that must be declared `#[must_use]` (estimate-result
    /// types: dropping one silently discards an estimate).
    pub must_use_types: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        Config {
            skip: s(&[
                "vendor/",
                "target/",
                // The linter's own fixtures deliberately violate every rule.
                "crates/lint/tests/fixtures/",
                "crates/verify/tests/fixtures/",
            ]),
            panic_safety_paths: s(&[
                "crates/api/src/",
                "crates/core/src/",
                "crates/graph/src/",
                "crates/obs/src/",
                "crates/platform/src/",
                "crates/service/src/",
            ]),
            determinism_paths: s(&[
                "crates/core/src/walker/",
                "crates/core/src/analyzer.rs",
                "crates/core/src/estimate.rs",
                "crates/core/src/interval.rs",
                "crates/core/src/level.rs",
                "crates/core/src/seeds.rs",
                "crates/core/src/view.rs",
                "crates/graph/src/walk.rs",
            ]),
            charging_paths: s(&["crates/api/src/", "crates/core/src/", "crates/service/src/"]),
            charging_exempt: s(&[
                // The metered client stack is where direct backend calls
                // are supposed to live.
                "crates/api/src/client.rs",
                // The fetch scheduler prefetches *below* the metering
                // seam by design: results are buffered uncharged and the
                // consuming client charges on consumption (stranded
                // prefetches are rolled back, never billed).
                "crates/api/src/sched.rs",
                // The ground-truth oracle reads the simulator's omniscient
                // view for free by design (evaluation only, never inside an
                // estimator); it also seals interprocedural propagation so
                // `ground_truth` callers are not flagged.
                "crates/platform/src/truth.rs",
            ]),
            lock_order_paths: s(&["crates/api/src/", "crates/obs/src/", "crates/service/src/"]),
            lock_across_call_paths: s(&["crates/api/src/", "crates/service/src/"]),
            fs_write_paths: s(&["crates/core/src/", "crates/service/src/"]),
            fs_write_exempt: s(&[
                // The journal *is* the sanctioned durable-state writer.
                "crates/service/src/journal.rs",
            ]),
            rng_scope_paths: s(&[
                "crates/api/src/",
                "crates/core/src/",
                "crates/obs/src/",
                "crates/service/src/",
            ]),
            rng_allowed_paths: s(&[
                // The sampler family: randomness is the algorithm.
                "crates/core/src/walker/",
                // RNG stream capture/restore for crash recovery.
                "crates/core/src/checkpoint.rs",
                // Pilot walks during MA-TARW interval selection.
                "crates/core/src/interval.rs",
                // The run-RNG construction seam (seed → ChaCha stream).
                "crates/core/src/analyzer.rs",
                // Seeded SplitMix64 jitter for decorrelated backoff.
                "crates/api/src/resilient.rs",
            ]),
            checkpoint_state_files: s(&["crates/core/src/checkpoint.rs"]),
            checkpoint_use_paths: s(&["crates/core/src/"]),
            blocking_fetch_paths: s(&["crates/core/src/walker/"]),
            hygiene_lib_roots: s(&[
                "crates/api/src/lib.rs",
                "crates/bench/src/lib.rs",
                "crates/core/src/lib.rs",
                "crates/graph/src/lib.rs",
                "crates/lint/src/lib.rs",
                "crates/obs/src/lib.rs",
                "crates/platform/src/lib.rs",
                "crates/service/src/lib.rs",
                "crates/verify/src/lib.rs",
            ]),
            must_use_types: s(&["Estimate", "RunReport", "JobOutcome"]),
        }
    }
}

impl Config {
    /// Whether `path` starts with any of `prefixes`.
    pub fn matches(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// Where a file sits in the workspace — rules use this to skip test,
/// binary and example code where the library invariants don't apply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FileRole {
    /// Under a crate's `tests/` directory (integration tests).
    pub integration_test: bool,
    /// A binary target (`src/bin/…` or `src/main.rs`).
    pub binary: bool,
    /// Under an `examples/` directory.
    pub example: bool,
    /// Under a `benches/` directory.
    pub bench: bool,
}

impl FileRole {
    /// Classifies a workspace-relative path.
    pub fn of(path: &str) -> FileRole {
        FileRole {
            integration_test: path.contains("/tests/") || path.starts_with("tests/"),
            binary: path.contains("/src/bin/") || path.ends_with("/main.rs"),
            example: path.contains("/examples/") || path.starts_with("examples/"),
            bench: path.contains("/benches/"),
        }
    }

    /// Library code: the part of a crate other crates link against.
    pub fn is_library(self) -> bool {
        !self.integration_test && !self.binary && !self.example && !self.bench
    }
}
