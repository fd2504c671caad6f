//! Property tests for journal decode/replay under corruption.
//!
//! The journal's contract: whatever bytes land on disk — a torn tail
//! mid-record, a truncated checkpoint, a bit-flipped checksum — decode
//! never panics, recovery sees a clean *prefix* of what was written,
//! and settlement replay can never double-charge (duplicate settles
//! count once, corrupted settles don't count at all).

use microblog_analyzer::checkpoint::{CheckpointCtl, CheckpointSink};
use microblog_analyzer::query::parse::parse_query;
use microblog_analyzer::{Algorithm, MicroblogAnalyzer, WalkerCheckpoint};
use microblog_api::{ApiProfile, RetryPolicy};
use microblog_obs::Tracer;
use microblog_platform::scenario::{twitter_2013, Scale, Scenario};
use microblog_service::journal::{crc32, decode_records, replay};
use microblog_service::{JobSpec, JournalRecord};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

fn world() -> &'static Scenario {
    static WORLD: OnceLock<Scenario> = OnceLock::new();
    WORLD.get_or_init(|| twitter_2013(Scale::Tiny, 2014))
}

fn spec(budget: u64, seed: u64) -> JobSpec {
    JobSpec::new(
        parse_query(
            "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'",
            world().platform.keywords(),
        )
        .expect("query parses"),
        Algorithm::MaTarw { interval: None },
        budget,
        seed,
    )
}

#[derive(Debug, Default)]
struct CaptureFirst(Mutex<Option<WalkerCheckpoint>>);

impl CheckpointSink for CaptureFirst {
    fn record(&self, cp: &WalkerCheckpoint) {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(cp.clone());
        }
    }
}

/// A real walker checkpoint (the largest, most structured record kind),
/// captured once from a tiny run.
fn checkpoint() -> &'static WalkerCheckpoint {
    static CP: OnceLock<WalkerCheckpoint> = OnceLock::new();
    CP.get_or_init(|| {
        let s = world();
        let analyzer = MicroblogAnalyzer::new(&s.platform, ApiProfile::twitter());
        let sink = CaptureFirst::default();
        let mut ctl = CheckpointCtl::new(1, &sink);
        let query = parse_query(
            "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'",
            s.platform.keywords(),
        )
        .expect("query parses");
        let _ = analyzer.run_recoverable(
            &query,
            800,
            Algorithm::MaTarw { interval: None },
            3,
            None,
            &RetryPolicy::none(),
            Tracer::disabled(),
            &mut ctl,
            None,
        );
        let cp = sink
            .0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("a 800-call run emits at least one checkpoint at cadence 1");
        cp
    })
}

/// Builds a record from a generator triple; `kind` picks the variant.
fn record(kind: u8, job: u64, amount: u64) -> JournalRecord {
    match kind % 6 {
        0 => JournalRecord::Admit {
            job,
            spec: spec(1_000 + amount, job),
        },
        1 => JournalRecord::Reserve {
            job,
            amount: 1_000 + amount,
        },
        2 => JournalRecord::Checkpoint {
            job,
            checkpoint: Box::new(checkpoint().clone()),
        },
        3 => JournalRecord::Settle { job, used: amount },
        4 => JournalRecord::Interrupted { job },
        _ => JournalRecord::CheckpointDelta {
            job,
            delta: Box::new(checkpoint().clone()),
        },
    }
}

/// Encodes records exactly as `Journal::append` frames them on disk:
/// `[len: u32 LE][crc32: u32 LE][JSON payload]`.
fn encode(records: &[JournalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in records {
        let payload = serde_json::to_string(r).expect("records serialize");
        let payload = payload.as_bytes();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
    }
    buf
}

fn json(r: &JournalRecord) -> String {
    serde_json::to_string(r).expect("records serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Cutting the byte stream anywhere — mid-header, mid-checksum,
    // mid-checkpoint-payload — decodes to an exact record prefix and
    // replays without panicking or inventing settlement.
    #[test]
    fn truncation_yields_a_clean_prefix(
        seed_records in proptest::collection::vec((0u8..6, 0u64..4, 0u64..2_000), 1..10),
        cut_frac in 0.0f64..1.0,
    ) {
        let records: Vec<JournalRecord> =
            seed_records.iter().map(|&(k, j, a)| record(k, j, a)).collect();
        let bytes = encode(&records);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let decoded = decode_records(&bytes[..cut]);

        // Every surviving record is byte-faithful, in order.
        prop_assert!(decoded.records.len() <= records.len());
        for (got, want) in decoded.records.iter().zip(&records) {
            prop_assert_eq!(json(got), json(want));
        }
        prop_assert_eq!(
            decoded.valid_len + decoded.dropped_bytes,
            cut as u64,
            "every byte is either replayed or reported dropped"
        );

        // Replay of the prefix never settles more than the full log.
        let full = replay(&decode_records(&bytes));
        let cutr = replay(&decoded);
        prop_assert!(cutr.consumed <= full.consumed);
        prop_assert!(cutr.settled_jobs <= full.settled_jobs);
    }

    // Flipping any single bit is always caught by the frame CRC (or a
    // malformed header): decode stops cleanly, the records before the
    // flip survive verbatim, and settlement never grows.
    #[test]
    fn bit_flips_never_panic_or_inflate_settlement(
        seed_records in proptest::collection::vec((0u8..6, 0u64..4, 0u64..2_000), 1..8),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let records: Vec<JournalRecord> =
            seed_records.iter().map(|&(k, j, a)| record(k, j, a)).collect();
        let mut bytes = encode(&records);
        let full = replay(&decode_records(&bytes));
        let at = ((bytes.len().saturating_sub(1)) as f64 * flip_frac) as usize;
        bytes[at] ^= 1 << bit;

        let decoded = decode_records(&bytes);
        let damaged = replay(&decoded);
        prop_assert!(damaged.consumed <= full.consumed);
        prop_assert!(damaged.settled_jobs <= full.settled_jobs);

        // Records wholly before the flipped byte are untouched; they
        // must decode verbatim.
        let mut intact = 0usize;
        let mut offset = 0usize;
        for r in &records {
            let frame = 8 + json(r).len();
            if offset + frame <= at {
                intact += 1;
                offset += frame;
            } else {
                break;
            }
        }
        prop_assert!(decoded.records.len() >= intact);
        for (got, want) in decoded.records.iter().take(intact).zip(&records) {
            prop_assert_eq!(json(got), json(want));
        }
    }

    // Arbitrary garbage bytes: decode and replay must never panic and
    // must never fabricate settled jobs.
    #[test]
    fn arbitrary_bytes_never_panic(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let decoded = decode_records(&garbage);
        let summary = replay(&decoded);
        // Fabricating a record from noise requires a valid length, a
        // matching CRC, *and* a parseable JSON payload.
        prop_assert!(summary.records as usize == decoded.records.len());
        prop_assert!(decoded.valid_len + decoded.dropped_bytes == garbage.len() as u64);
    }

    // Duplicate settles — a crash between journaling a settle and
    // advancing past it can replay the same record — always count
    // exactly once.
    #[test]
    fn duplicate_settles_count_once(amount in 1u64..5_000, dups in 1usize..5) {
        let mut records = vec![
            record(0, 0, amount), // admit
            record(1, 0, amount), // reserve
        ];
        for _ in 0..=dups {
            records.push(JournalRecord::Settle { job: 0, used: amount });
        }
        let summary = replay(&decode_records(&encode(&records)));
        prop_assert_eq!(summary.settled_jobs, 1);
        prop_assert_eq!(summary.consumed, amount, "settles are idempotent");
        prop_assert!(summary.recovered.is_empty());
    }
}
