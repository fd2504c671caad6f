//! Cross-version golden runs: every sampler's answer, charge, checkpoint
//! byte stream and — where the sampler pipelines — announced fetch-key
//! sequence, pinned as a table written by an earlier commit.
//!
//! * `runs_match_the_golden_table` reruns each row on the Tiny world
//!   (scenario seed 2014, keyword `privacy`) through
//!   [`MicroblogAnalyzer::run_recoverable`] and compares one rendered
//!   summary line per row: estimate and standard-error bits, cost,
//!   samples, instances and charged calls, then the number of
//!   checkpoints emitted at the row's cadence with an FNV-1a hash of
//!   their JSON encodings, then (for the 32-chain and BFS
//!   rows) the count and FNV-1a hash of the keys announced to a
//!   recording [`PrefetchSink`]. On a mismatch it prints the whole
//!   observed table in source form.
//! * `parent_checkpoints_resume_to_their_rows` resumes from one committed
//!   mid-run checkpoint per `SamplerState` variant
//!   (`tests/fixtures/golden_*.json`) and requires each to reproduce its
//!   row's outcome — the proof that journals written by the commit that
//!   wrote the fixtures still replay.
//!
//! The fixtures were written by
//! `GOLDEN_WRITE_FIXTURES=1 cargo test -p microblog-analyzer --test
//! golden_runs -- --ignored write_resume_fixtures`. Regenerate them only
//! when the checkpoint encoding changes on purpose.

use microblog_analyzer::checkpoint::{CheckpointSink, SamplerState, WalkerCheckpoint};
use microblog_analyzer::prelude::*;
use microblog_analyzer::walker::snowball::CrawlOrder;
use microblog_analyzer::CheckpointCtl;
use microblog_api::{FetchKey, PrefetchSink, RetryPolicy};
use microblog_obs::Tracer;
use microblog_platform::scenario::{twitter_2013, Scale, Scenario};
use microblog_platform::Duration;
use std::sync::Mutex;

/// Query budget of the COUNT rows (keyword `privacy`): enough to cover
/// the keyword's reachable subgraph, so those walks end at their step,
/// instance or frontier limits. The AVG rows (keyword `new york`) each
/// carry a budget that runs out mid-walk, so they end on budget
/// exhaustion.
const COVER_BUDGET: u64 = 4_000;
/// Run seed of every row.
const SEED: u64 = 11;
/// Cadence used when picking the mid-run resume fixtures (small enough
/// that the seven-candidate pilot emits a `Pilot` checkpoint).
const FIXTURE_EVERY: u64 = 3;

/// The table, as written by the commit before the sampler-driver
/// refactor. One line per row: `name: outcome | stream`.
const GOLDEN: &[&str] = &[
    "ma-srw/count: ok value=0x4053a6bf7c795334 se=none cost=1028 samples=66633 instances=1 charged=1028 | cps=12500 cp_fnv=0x661fe0886059e5b0",
    "ma-srw/avg: ok value=0x403dccebaeb9d3f5 se=none cost=1500 samples=84 instances=1 charged=1500 | cps=22 cp_fnv=0x32143f4b7133f380",
    "ma-srw-x32/count: ok value=0x405d334d783854be se=0x402f1200d10292e9 cost=1028 samples=1056 instances=32 charged=1028 | cps=202 cp_fnv=0x39fada27ede5ece3 keys=4683 keys_fnv=0x6387b625d356ed91",
    "ma-srw-x32/avg: err budget exhausted before any sample was collected charged=1640 | cps=71 cp_fnv=0xd8ef09814e436c5f keys=4489 keys_fnv=0x393d912fe66a2e9b",
    "ma-tarw-1d/count: ok value=0x402548efcd5bc99a se=0x3fd049fde03f2496 cost=1012 samples=3709 instances=800 charged=1012 | cps=800 cp_fnv=0x3395942c04af7b79",
    "ma-tarw-1d/avg: ok value=0x403b3d8e8314c1fa se=0x4027b42464bc968c cost=1620 samples=14 instances=2 charged=1620 | cps=3 cp_fnv=0x547009293634c58f",
    "ma-tarw-pilot/count: ok value=0x400fd0369d0369d7 se=0x3fb403c60385ce60 cost=585 samples=2390 instances=800 charged=585 | cps=807 cp_fnv=0x5b4c31c8405bdfd7",
    "ma-tarw-pilot/avg: ok value=0x4040ba2d12a76564 se=0x400e9a023d017f9b cost=1500 samples=90 instances=31 charged=1500 | cps=39 cp_fnv=0x735fbfc644e421d0",
    "mhrw/count: ok value=0x4053a3c045dee83d se=0x0000000000000000 cost=1028 samples=66633 instances=1 charged=1028 | cps=12500 cp_fnv=0x62893d7cc995f354",
    "mhrw/avg: ok value=0x403bc00000000000 se=0x3fc9000000000000 cost=1500 samples=188 instances=1 charged=1500 | cps=41 cp_fnv=0x3470c6966c2bfba7",
    "mr/count: ok value=0x40551e0801ad8979 se=none cost=1060 samples=15990 instances=1 charged=1060 | cps=25000 cp_fnv=0x717c280abfb6b244",
    "bfs/count: ok value=0x4053c00000000000 se=none cost=1028 samples=79 instances=1 charged=1028 | cps=10 cp_fnv=0x770d6e38664aec41 keys=2142 keys_fnv=0x3040e0cea607347c",
    "bfs/avg: ok value=0x40415df984dc5abc se=none cost=1500 samples=79 instances=1 charged=1500 | cps=9 cp_fnv=0xeac367fdcab93bb7 keys=2604 keys_fnv=0x52e175665dd7425e",
    "dfs/count: ok value=0x4053c00000000000 se=none cost=1028 samples=79 instances=1 charged=1028 | cps=10 cp_fnv=0xb4da01415d31a28a",
    "dfs/avg: ok value=0x4042323a5440cf64 se=none cost=1500 samples=79 instances=1 charged=1500 | cps=5 cp_fnv=0x5c6fb2337aa72315",
    "srw-full/count: ok value=0x4055b6b2d65bb47c se=none cost=3999 samples=1340 instances=1 charged=3999 | cps=257 cp_fnv=0xc8ebb818ae2b22c5",
    "srw-full/avg: ok value=0x403d47cbe24046fb se=0x403356301b53d934 cost=1499 samples=256 instances=1 charged=1499 | cps=54 cp_fnv=0xb05a273a1a01967c",
    "srw-term/count: ok value=0x40551a60ff0e8d50 se=none cost=1060 samples=66633 instances=1 charged=1060 | cps=12500 cp_fnv=0x62ee46752108f30b",
    "srw-term/avg: ok value=0x404070207df6a69a se=none cost=1500 samples=88 instances=1 charged=1500 | cps=22 cp_fnv=0x6af7669f6bc7caa5",
];

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Checkpoint sink hashing the JSON encoding of every checkpoint, and
/// keeping them all for fixture selection.
struct HashCheckpoints(Mutex<(u64, Fnv, Vec<WalkerCheckpoint>)>);

impl HashCheckpoints {
    fn new() -> Self {
        HashCheckpoints(Mutex::new((0, Fnv::new(), Vec::new())))
    }
}

impl CheckpointSink for HashCheckpoints {
    fn record(&self, cp: &WalkerCheckpoint) {
        let json = serde_json::to_string(cp).expect("checkpoint serializes");
        let mut g = self.0.lock().unwrap();
        g.0 += 1;
        g.1.bytes(json.as_bytes());
        g.1.bytes(b"\n");
        g.2.push(cp.clone());
    }
}

/// Prefetch sink recording the announced key sequence. It never fetches:
/// the client fetches on demand as it would without a pipeline, so the
/// run is the sequential one and only the announcements are observed.
struct RecordKeys(Mutex<(u64, Fnv)>);

impl PrefetchSink for RecordKeys {
    fn announce(&self, keys: &[FetchKey]) -> usize {
        let mut g = self.0.lock().unwrap();
        for key in keys {
            let (tag, u) = match *key {
                FetchKey::Timeline(u) => (b'T', u),
                FetchKey::Connections(u) => (b'C', u),
            };
            g.0 += 1;
            g.1.bytes(&[tag]);
            g.1.bytes(&u.0.to_le_bytes());
        }
        keys.len()
    }

    fn drain(&self) -> usize {
        0
    }

    fn reset(&self) -> Vec<FetchKey> {
        Vec::new()
    }
}

#[derive(Clone, Copy)]
struct Case {
    name: &'static str,
    algorithm: Algorithm,
    count: bool,
    budget: u64,
    chains: usize,
    step_cap: Option<usize>,
    /// Checkpoint cadence of the hashed stream, in safe points.
    every: u64,
    record_keys: bool,
}

/// `(name, algorithm, chains, step cap, cadence, record keys, AVG budget)`.
type Row = (
    &'static str,
    Algorithm,
    usize,
    Option<usize>,
    u64,
    bool,
    u64,
);

fn cases() -> Vec<Case> {
    let day = ViewKind::level(Duration::DAY);
    let ma_srw = Algorithm::MaSrw { interval: None };
    let tarw_1d = Algorithm::MaTarw {
        interval: Some(Duration::DAY),
    };
    let tarw_pilot = Algorithm::MaTarw { interval: None };
    let mhrw = Algorithm::Mhrw { view: day };
    let mr = Algorithm::MarkRecapture {
        view: ViewKind::TermInduced,
    };
    let bfs = Algorithm::Snowball {
        view: day,
        order: CrawlOrder::Bfs,
    };
    let dfs = Algorithm::Snowball {
        view: day,
        order: CrawlOrder::Dfs,
    };
    let (full, term) = (Algorithm::SrwFullGraph, Algorithm::SrwTermInduced);
    // At its AVG budget the 32-chain row runs out before any chain leaves
    // burn-in, so that row pins the budget freeze, one checkpoint per
    // round. M&R estimates COUNT only, so it has no AVG budget.
    let rows: [Row; 10] = [
        ("ma-srw", ma_srw, 1, None, 16, false, 1_500),
        ("ma-srw-x32", ma_srw, 32, Some(200), 1, true, 1_640),
        ("ma-tarw-1d", tarw_1d, 1, None, 1, false, 1_620),
        ("ma-tarw-pilot", tarw_pilot, 1, None, 1, false, 1_500),
        ("mhrw", mhrw, 1, None, 16, false, 1_500),
        ("mr", mr, 1, None, 16, false, 0),
        ("bfs", bfs, 1, None, 16, true, 1_500),
        ("dfs", dfs, 1, None, 16, false, 1_500),
        ("srw-full", full, 1, None, 16, false, 1_500),
        ("srw-term", term, 1, None, 16, false, 1_500),
    ];
    let mut out = Vec::new();
    for (name, algorithm, chains, step_cap, every, record_keys, avg_budget) in rows {
        for (count, budget) in [(true, COVER_BUDGET), (false, avg_budget)] {
            if budget == 0 {
                continue;
            }
            out.push(Case {
                name,
                algorithm,
                count,
                budget,
                chains,
                step_cap,
                every,
                record_keys,
            });
        }
    }
    out
}

impl Case {
    fn label(&self) -> String {
        format!("{}/{}", self.name, if self.count { "count" } else { "avg" })
    }

    fn keyword(&self) -> &'static str {
        if self.count {
            "privacy"
        } else {
            "new york"
        }
    }

    fn query(&self, s: &Scenario) -> AggregateQuery {
        let kw = s.keyword(self.keyword()).expect("keyword in catalog");
        let q = if self.count {
            AggregateQuery::count(kw)
        } else {
            AggregateQuery::avg(UserMetric::FollowerCount, kw)
        };
        q.in_window(s.window)
    }

    /// Runs the row, returning its report plus the checkpoint and key
    /// recorders.
    fn run(
        &self,
        s: &Scenario,
        every: u64,
        resume: Option<&WalkerCheckpoint>,
    ) -> (RunReport, HashCheckpoints, RecordKeys) {
        let cps = HashCheckpoints::new();
        let keys = RecordKeys(Mutex::new((0, Fnv::new())));
        let mut analyzer =
            MicroblogAnalyzer::new(&s.platform, ApiProfile::twitter()).with_chains(self.chains);
        if let Some(cap) = self.step_cap {
            analyzer = analyzer.with_step_cap(cap);
        }
        if self.record_keys {
            analyzer = analyzer.with_prefetch(&keys);
        }
        let mut ctl = if resume.is_some() {
            CheckpointCtl::disabled()
        } else {
            CheckpointCtl::new(every, &cps)
        };
        let report = analyzer.run_recoverable(
            &self.query(s),
            self.budget,
            self.algorithm,
            SEED,
            None,
            &RetryPolicy::none(),
            Tracer::disabled(),
            &mut ctl,
            resume,
        );
        (report, cps, keys)
    }
}

fn outcome_line(report: &RunReport) -> String {
    match &report.outcome {
        Ok(e) => format!(
            "ok value={:#018x} se={} cost={} samples={} instances={} charged={}",
            e.value.to_bits(),
            e.std_err
                .map_or_else(|| "none".to_string(), |s| format!("{:#018x}", s.to_bits())),
            e.cost,
            e.samples,
            e.instances,
            report.charged
        ),
        Err(e) => format!("err {e} charged={}", report.charged),
    }
}

fn row_line(case: &Case, s: &Scenario) -> String {
    let (report, cps, keys) = case.run(s, case.every, None);
    let (n, hash, _) = &*cps.0.lock().unwrap();
    let mut line = format!(
        "{}: {} | cps={n} cp_fnv={:#018x}",
        case.label(),
        outcome_line(&report),
        hash.0
    );
    if case.record_keys {
        let (k, khash) = *keys.0.lock().unwrap();
        line.push_str(&format!(" keys={k} keys_fnv={:#018x}", khash.0));
    }
    line
}

#[test]
fn runs_match_the_golden_table() {
    let s = twitter_2013(Scale::Tiny, 2014);
    let observed: Vec<String> = cases().iter().map(|c| row_line(c, &s)).collect();
    let expected: Vec<String> = GOLDEN.iter().map(|l| l.to_string()).collect();
    if observed != expected {
        let table: String = observed.iter().map(|l| format!("    \"{l}\",\n")).collect();
        for (i, line) in observed.iter().enumerate() {
            if expected.get(i) != Some(line) {
                eprintln!(
                    "row {i} differs:\n  expected {:?}\n  observed {line}",
                    expected.get(i)
                );
            }
        }
        panic!("golden table mismatch; observed table:\n{table}");
    }
}

/// One committed mid-run checkpoint per sampler-state variant, with the
/// row it was cut from.
const FIXTURES: [(&str, &str); 6] = [
    ("srw", "ma-srw/count"),
    ("multi_srw", "ma-srw-x32/count"),
    ("mhrw", "mhrw/avg"),
    ("snowball", "bfs/count"),
    ("tarw", "ma-tarw-1d/count"),
    ("pilot", "ma-tarw-pilot/avg"),
];

fn variant_of(state: &SamplerState) -> &'static str {
    match state {
        SamplerState::Srw(_) => "srw",
        SamplerState::MultiSrw(_) => "multi_srw",
        SamplerState::Mhrw(_) => "mhrw",
        SamplerState::Snowball(_) => "snowball",
        SamplerState::Tarw(_) => "tarw",
        SamplerState::Pilot(_) => "pilot",
    }
}

fn fixture_path(variant: &str) -> String {
    format!(
        "{}/tests/fixtures/golden_{variant}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn case_named(label: &str) -> Case {
    cases()
        .into_iter()
        .find(|c| c.label() == label)
        .unwrap_or_else(|| panic!("no row {label}"))
}

#[test]
fn parent_checkpoints_resume_to_their_rows() {
    let s = twitter_2013(Scale::Tiny, 2014);
    for (variant, label) in FIXTURES {
        let json = std::fs::read_to_string(fixture_path(variant))
            .unwrap_or_else(|e| panic!("fixture {variant}: {e}"));
        let cp: WalkerCheckpoint = serde_json::from_str(&json).expect("fixture parses");
        assert_eq!(
            variant_of(&cp.sampler),
            variant,
            "fixture holds its variant"
        );
        let expected = GOLDEN
            .iter()
            .find(|l| l.starts_with(&format!("{label}: ")))
            .unwrap_or_else(|| panic!("no golden row {label}"));
        let expected_outcome = expected[label.len() + 2..]
            .split(" | ")
            .next()
            .expect("row has an outcome");
        let (report, _, _) = case_named(label).run(&s, 0, Some(&cp));
        assert_eq!(
            outcome_line(&report),
            expected_outcome,
            "{variant} checkpoint (steps={}) must resume to row {label}",
            cp.steps
        );
    }
}

/// Writes the resume fixtures: the middle checkpoint of the required
/// variant from each fixture row's run at [`FIXTURE_EVERY`]. Only runs
/// when asked to, via `--ignored` and `GOLDEN_WRITE_FIXTURES=1`.
#[test]
#[ignore = "writes tests/fixtures; run explicitly to regenerate"]
fn write_resume_fixtures() {
    if std::env::var_os("GOLDEN_WRITE_FIXTURES").is_none() {
        return;
    }
    let s = twitter_2013(Scale::Tiny, 2014);
    for (variant, label) in FIXTURES {
        let (_, cps, _) = case_named(label).run(&s, FIXTURE_EVERY, None);
        let all = &cps.0.lock().unwrap().2;
        let of_variant: Vec<&WalkerCheckpoint> = all
            .iter()
            .filter(|cp| variant_of(&cp.sampler) == variant)
            .collect();
        assert!(
            !of_variant.is_empty(),
            "{label} emitted no {variant} checkpoint"
        );
        let cp = of_variant[of_variant.len() / 2];
        let json = serde_json::to_string(cp).expect("checkpoint serializes");
        std::fs::write(fixture_path(variant), json + "\n").expect("fixture written");
    }
}
