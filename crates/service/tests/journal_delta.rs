//! Delta checkpoint records: a job's first checkpoint is journaled
//! whole, each later one as the keys it added, and replay folds them
//! back into exactly the checkpoint the walker last emitted.

use microblog_analyzer::checkpoint::{CheckpointCtl, CheckpointSink, LatestCheckpoint};
use microblog_analyzer::walker::snowball::CrawlOrder;
use microblog_analyzer::{
    AggregateQuery, Algorithm, MicroblogAnalyzer, ViewKind, WalkerCheckpoint,
};
use microblog_api::{ApiProfile, RetryPolicy};
use microblog_obs::Tracer;
use microblog_platform::scenario::{twitter_2013, Scale, Scenario};
use microblog_platform::{Duration, UserId};
use microblog_service::journal::{decode_records, replay, DecodedJournal};
use microblog_service::{JobSpec, Journal, JournalRecord, TelemetryClock, TelemetryMode};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ma-journal-delta-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> (Journal, microblog_service::journal::ReplaySummary) {
    let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
    Journal::open(dir, clock).expect("journal opens")
}

/// The records in the journal file, in order.
fn records(journal: &Journal) -> Vec<JournalRecord> {
    let bytes = std::fs::read(journal.path()).expect("journal reads");
    decode_records(&bytes).records
}

/// The record kinds in the journal file, in order.
fn kinds(journal: &Journal) -> Vec<&'static str> {
    records(journal)
        .iter()
        .map(|r| match r {
            JournalRecord::Admit { .. } => "admit",
            JournalRecord::Reserve { .. } => "reserve",
            JournalRecord::Checkpoint { .. } => "whole",
            JournalRecord::CheckpointDelta { .. } => "delta",
            JournalRecord::Settle { .. } => "settle",
            JournalRecord::Interrupted { .. } => "interrupted",
        })
        .collect()
}

fn tiny() -> &'static Scenario {
    static WORLD: OnceLock<Scenario> = OnceLock::new();
    WORLD.get_or_init(|| twitter_2013(Scale::Tiny, 2014))
}

fn ma_srw() -> Algorithm {
    Algorithm::MaSrw {
        interval: Some(Duration::DAY),
    }
}

fn admit(job: u64) -> JournalRecord {
    JournalRecord::Admit {
        job,
        spec: JobSpec::new(count_query(tiny()), ma_srw(), 600, job),
    }
}

fn count_query(s: &Scenario) -> AggregateQuery {
    AggregateQuery::count(s.keyword("privacy").expect("world has 'privacy'")).in_window(s.window)
}

/// Sink journaling every checkpoint of one job while keeping the latest.
struct JournalAndLatest<'a> {
    journal: &'a Journal,
    job: u64,
    latest: LatestCheckpoint,
}

impl CheckpointSink for JournalAndLatest<'_> {
    fn record(&self, cp: &WalkerCheckpoint) {
        self.journal
            .append_checkpoint(self.job, cp)
            .expect("checkpoint appends");
        self.latest.record(cp);
    }
}

/// Runs `algorithm` on `s` at cadence `every`, journaling its checkpoints
/// as `job`; returns the last checkpoint and how many were emitted.
fn run_journaled(
    s: &Scenario,
    journal: &Journal,
    job: u64,
    algorithm: Algorithm,
    budget: u64,
    every: u64,
) -> (WalkerCheckpoint, u64) {
    let query = count_query(s);
    journal
        .append(&JournalRecord::Admit {
            job,
            spec: JobSpec::new(query.clone(), algorithm, budget, job),
        })
        .expect("admit appends");
    let sink = JournalAndLatest {
        journal,
        job,
        latest: LatestCheckpoint::new(),
    };
    let analyzer = MicroblogAnalyzer::new(&s.platform, ApiProfile::twitter());
    let mut ctl = CheckpointCtl::new(every, &sink);
    let _ = analyzer.run_recoverable(
        &query,
        budget,
        algorithm,
        job,
        None,
        &RetryPolicy::none(),
        Tracer::disabled(),
        &mut ctl,
        None,
    );
    let last = sink.latest.take().expect("the run emits checkpoints");
    (last, sink.latest.count())
}

/// One real mid-walk checkpoint from a Tiny-world run.
fn tiny_checkpoint() -> &'static WalkerCheckpoint {
    static CP: OnceLock<WalkerCheckpoint> = OnceLock::new();
    CP.get_or_init(|| {
        let dir = tempdir("tiny");
        let (journal, _) = open(&dir);
        let (cp, _) = run_journaled(tiny(), &journal, 0, ma_srw(), 600, 50);
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(cp.client.timelines.len() > 2, "the walk memoized timelines");
        cp
    })
}

#[test]
fn replay_rebuilds_every_samplers_last_checkpoint() {
    let s = twitter_2013(Scale::Small, 2014);
    let day = Duration::DAY;
    let samplers = [
        Algorithm::MaSrw {
            interval: Some(day),
        },
        Algorithm::MaTarw {
            interval: Some(day),
        },
        Algorithm::Mhrw {
            view: ViewKind::level(day),
        },
        Algorithm::MarkRecapture {
            view: ViewKind::level(day),
        },
        Algorithm::Snowball {
            view: ViewKind::TermInduced,
            order: CrawlOrder::Bfs,
        },
        Algorithm::SrwFullGraph,
    ];
    let dir = tempdir("samplers");
    let mut last = Vec::new();
    {
        let (journal, _) = open(&dir);
        for (job, &algorithm) in samplers.iter().enumerate() {
            let (cp, emitted) = run_journaled(&s, &journal, job as u64, algorithm, 20_000, 100);
            assert!(emitted > 1, "{algorithm:?} emitted {emitted} checkpoint(s)");
            last.push((cp, emitted));
        }
        // Within one run a memo only grows: one whole record per job,
        // every later checkpoint a delta.
        let kinds = kinds(&journal);
        let whole = kinds.iter().filter(|k| **k == "whole").count();
        let deltas = kinds.iter().filter(|k| **k == "delta").count() as u64;
        assert_eq!(whole, samplers.len());
        assert_eq!(
            deltas,
            last.iter().map(|(_, n)| n - 1).sum::<u64>(),
            "every later checkpoint is a delta"
        );
    }
    let (_, summary) = open(&dir);
    assert_eq!(summary.recovered.len(), samplers.len());
    for (recovered, (cp, _)) in summary.recovered.iter().zip(&last) {
        assert_eq!(
            recovered.checkpoint.as_deref(),
            Some(cp),
            "job {} ({})",
            recovered.job,
            cp.algorithm
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_delta_without_a_base_recovers_no_checkpoint() {
    let decoded = DecodedJournal {
        records: vec![
            admit(4),
            JournalRecord::CheckpointDelta {
                job: 4,
                delta: Box::new(tiny_checkpoint().clone()),
            },
        ],
        valid_len: 0,
        dropped_bytes: 0,
    };
    let summary = replay(&decoded);
    assert_eq!(summary.recovered.len(), 1);
    assert!(
        summary.recovered[0].checkpoint.is_none(),
        "the job restarts from scratch"
    );
}

#[test]
fn a_checkpoint_missing_a_base_key_is_written_whole() {
    let base = tiny_checkpoint();
    let mut dropped = base.clone();
    dropped.client.timelines.remove(1);
    let mut regrown = dropped.clone();
    regrown.client.timelines.push(UserId(u32::MAX));
    regrown.steps += 1;

    let dir = tempdir("missing");
    let (journal, _) = open(&dir);
    journal.append(&admit(9)).unwrap();
    journal.append_checkpoint(9, base).unwrap();
    journal.append_checkpoint(9, base).unwrap();
    journal.append_checkpoint(9, &dropped).unwrap();
    journal.append_checkpoint(9, &regrown).unwrap();
    assert_eq!(
        kinds(&journal),
        ["admit", "whole", "delta", "whole", "delta"]
    );
    let Some(JournalRecord::CheckpointDelta { delta, .. }) = records(&journal).pop() else {
        panic!("the last record is a delta");
    };
    assert_eq!(delta.client.timelines, [UserId(u32::MAX)]);
    drop(journal);

    let (_, summary) = open(&dir);
    assert_eq!(summary.recovered[0].checkpoint.as_deref(), Some(&regrown));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_settled_job_ids_next_checkpoint_is_whole() {
    let cp = tiny_checkpoint();
    let dir = tempdir("settle");
    let (journal, _) = open(&dir);
    journal.append_checkpoint(2, cp).unwrap();
    journal.append_checkpoint(2, cp).unwrap();
    journal
        .append(&JournalRecord::Settle { job: 2, used: 600 })
        .unwrap();
    journal.append_checkpoint(2, cp).unwrap();
    journal
        .append(&JournalRecord::Interrupted { job: 2 })
        .unwrap();
    journal.append_checkpoint(2, cp).unwrap();
    assert_eq!(
        kinds(&journal),
        ["whole", "delta", "settle", "whole", "interrupted", "whole"]
    );
    drop(journal);

    // A fresh handle (a restart) has no bases either.
    let (journal, _) = open(&dir);
    journal.append_checkpoint(2, cp).unwrap();
    journal.append_checkpoint(2, cp).unwrap();
    assert_eq!(kinds(&journal)[6..], ["whole", "delta"]);
    let _ = std::fs::remove_dir_all(&dir);
}
