//! Pins the exact JSON bytes of every journal record variant and of the
//! `serve` wire format, so a serializer change cannot move a byte of
//! what the journal stores or what clients read.
//!
//! Each row is `(name, length, FNV-1a 64, CRC-32)` of one compact
//! encoding, written by the commit before the serializer rewrite. The
//! records cover every [`JournalRecord`] variant, with a
//! [`JournalRecord::Checkpoint`] and a [`JournalRecord::CheckpointDelta`]
//! per [`SamplerState`] variant, and an `Admit` whose spec carries a
//! retry policy; the response carries a float estimate and an error
//! string that needs escapes. The last row pins a journal file holding
//! every record, framing included. On a mismatch the test prints the
//! observed table in source form; never paste it in to make a change
//! pass.

use microblog_analyzer::checkpoint::{
    AccumState, InstanceState, MhrwState, MultiChainState, MultiSrwState, PilotState,
    SnowballState, SrwState, TarwState,
};
use microblog_analyzer::walker::snowball::CrawlOrder;
use microblog_analyzer::{
    Aggregate, AggregateQuery, Algorithm, Estimate, RngState, SamplerState, ViewKind,
    WalkerCheckpoint,
};
use microblog_api::cache::CacheStats;
use microblog_api::resilient::BreakerConfig;
use microblog_api::{ClientState, CostMeter, ResilienceStats, RetryPolicy};
use microblog_platform::metric::ProfilePredicate;
use microblog_platform::{Duration, Gender, KeywordId, TimeWindow, Timestamp, UserId, UserMetric};
use microblog_service::journal::crc32;
use microblog_service::{
    JobSpec, Journal, JournalRecord, QueryResponse, TelemetryClock, TelemetryMode,
};
use std::sync::Arc;

/// The table, as written by the commit before the serializer rewrite.
const PINNED: &[(&str, usize, u64, u32)] = &[
    ("admit-retry", 579, 0x14878bc0456c447a, 0x1e24810c),
    ("admit-default", 214, 0x7cfcb568397dd243, 0x97f4c15d),
    ("reserve", 36, 0xa9e5081e1e737507, 0x28443d2f),
    ("checkpoint-srw", 1048, 0x5aaee91c905a65a9, 0xfa4c9745),
    ("delta-srw", 1040, 0x14a9043a9e4a6761, 0x4d441db8),
    ("checkpoint-multi-srw", 1984, 0x9fbdfeb1146e2a75, 0x990c7090),
    ("delta-multi-srw", 1976, 0xc197145d8f7d857d, 0xbe0aaa5f),
    ("checkpoint-mhrw", 852, 0xe4aaacd442c8f9f7, 0x6c275dda),
    ("delta-mhrw", 844, 0x89337857a125e7ff, 0x164208a4),
    ("checkpoint-snowball", 616, 0xe0c7e50242fddd89, 0x694a3cdf),
    ("delta-snowball", 608, 0xfe1cea38e244d881, 0x29a9831d),
    ("checkpoint-tarw", 744, 0xeb76a2e817d3d524, 0xbcb2c580),
    ("delta-tarw", 736, 0x6ed8b0180142633c, 0x142da062),
    ("checkpoint-pilot", 560, 0x004f970eae514457, 0x29942c4b),
    ("delta-pilot", 552, 0x380929fd90173fff, 0xca2c18ba),
    ("settle", 29, 0x8432538f9c6040db, 0xc657b68a),
    ("interrupted", 44, 0xe41caefeaa6afffd, 0x663528fe),
    ("response", 570, 0x4ad10882d5b3955a, 0x7197933b),
    ("journal-file", 12598, 0x9d4792beed22a150, 0xe4a09c3b),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn query() -> AggregateQuery {
    AggregateQuery {
        aggregate: Aggregate::RatioOfSums {
            numerator: UserMetric::KeywordPostLikes,
            denominator: UserMetric::KeywordPostCount,
        },
        keyword: KeywordId(3),
        window: Some(TimeWindow::new(
            Timestamp(-86_400),
            Timestamp(1_700_000_000),
        )),
        predicates: vec![
            ProfilePredicate::GenderIs(Gender::Female),
            ProfilePredicate::MinFollowers(10),
            ProfilePredicate::AgeDisclosed,
            ProfilePredicate::MinAge(21),
        ],
    }
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration(2),
        max_backoff: Duration::MINUTE,
        deadline: Some(Duration(90)),
        retry_budget: Some(40),
        breaker: Some(BreakerConfig {
            failure_threshold: 6,
            cooldown: Duration(300),
        }),
        jitter_seed: u64::MAX,
    }
}

fn rng(salt: u32) -> RngState {
    RngState {
        key: (0..8)
            .map(|i| 0x9e37_79b9u32.wrapping_mul(i + salt))
            .collect(),
        stream: u64::from(salt),
        counter: 1 << 40,
        index: 17,
    }
}

fn client() -> ClientState {
    ClientState {
        searches: vec![KeywordId(3)],
        timelines: vec![UserId(0), UserId(7), UserId(4_000_000_000)],
        connections: vec![UserId(7), UserId(19)],
        stats: CacheStats {
            local_hits: 120,
            shared_hits: 9,
            misses: 31,
            actual_calls: 40,
            saved_calls: 11,
        },
        meter: CostMeter {
            search: 1,
            connections: 33,
            timeline: 17,
        },
        charged: 51,
    }
}

fn accum(samples: u64) -> AccumState {
    let mut accum = AccumState {
        s0_bits: 0.5f64.to_bits(),
        s_match_bits: (1.0f64 / 3.0).to_bits(),
        s_num_bits: f64::MAX.to_bits(),
        s_den_bits: (-2.25f64).to_bits(),
        samples,
        ..AccumState::default()
    };
    accum.collisions.seen = vec![(UserId(7).0, 2), (UserId(19).0, 1)];
    accum.collisions.collisions = 1;
    accum.collisions.sum_degree_bits = 12.0f64.to_bits();
    accum.collisions.sum_inv_degree_bits = 0.75f64.to_bits();
    accum.collisions.samples = 3;
    accum
}

fn srw(current: u32) -> SrwState {
    SrwState {
        current: UserId(current),
        step_in_chain: 12,
        total_steps: 4_012,
        kept: 3,
        accum: accum(3),
        batch: (2, 1.5f64.to_bits(), 0.0f64.to_bits()),
        batch_accum: AccumState::default(),
    }
}

/// One sampler state per variant.
fn samplers() -> Vec<(&'static str, SamplerState)> {
    let mhrw_collisions = accum(2).collisions;
    vec![
        ("srw", SamplerState::Srw(srw(7))),
        (
            "multi-srw",
            SamplerState::MultiSrw(MultiSrwState {
                chains: vec![
                    MultiChainState {
                        rng: rng(1),
                        walk: srw(19),
                        done: false,
                    },
                    MultiChainState {
                        rng: rng(2),
                        walk: srw(0),
                        done: true,
                    },
                ],
            }),
        ),
        (
            "mhrw",
            SamplerState::Mhrw(MhrwState {
                current: UserId(19),
                step: 7,
                total_steps: 9_000,
                sum_num_bits: 42.0f64.to_bits(),
                sum_den_bits: 0.1f64.to_bits(),
                sum_match_bits: 2.0f64.to_bits(),
                samples: 2,
                collisions: mhrw_collisions,
                batch: (0, 0, 0),
                batch_vals: vec![(1.0f64.to_bits(), 2.0f64.to_bits())],
            }),
        ),
        (
            "snowball",
            SamplerState::Snowball(SnowballState {
                frontier: vec![UserId(19), UserId(7)],
                visited: vec![UserId(0), UserId(7), UserId(19)],
                sum_num_bits: 3.5f64.to_bits(),
                sum_den_bits: 1.0f64.to_bits(),
                matches_count: 2,
                samples: 3,
            }),
        ),
        (
            "tarw",
            SamplerState::Tarw(TarwState {
                interval_secs: 86_400,
                next_instance: 2,
                instances: vec![
                    InstanceState {
                        num_bits: 10.0f64.to_bits(),
                        den_bits: 4.0f64.to_bits(),
                        count_bits: 4.0f64.to_bits(),
                        used: 4,
                    },
                    InstanceState::default(),
                ],
                up_cache: Some(vec![(UserId(7), 0.25f64.to_bits(), 3)]),
                down_cache: None,
            }),
        ),
        (
            "pilot",
            SamplerState::Pilot(PilotState {
                done: vec![
                    (7_200, 1.0f64.to_bits(), 0.5f64.to_bits()),
                    (-1, 0, u64::MAX),
                ],
            }),
        ),
    ]
}

fn checkpoint(algorithm: &str, sampler: SamplerState) -> Box<WalkerCheckpoint> {
    Box::new(WalkerCheckpoint {
        algorithm: algorithm.to_string(),
        seed: 11,
        steps: 4_000,
        rng: rng(0),
        client: client(),
        sampler,
    })
}

/// Every record the pin covers, named.
fn records() -> Vec<(String, JournalRecord)> {
    let mut records = vec![
        (
            "admit-retry".to_string(),
            JournalRecord::Admit {
                job: 5,
                spec: JobSpec::new(
                    query(),
                    Algorithm::Mhrw {
                        view: ViewKind::LevelByLevel {
                            interval: Duration::DAY,
                            keep_intra: 1e21,
                        },
                    },
                    20_000,
                    41,
                )
                .with_retry(retry()),
            },
        ),
        (
            "admit-default".to_string(),
            JournalRecord::Admit {
                job: 6,
                spec: JobSpec::new(
                    AggregateQuery::avg(UserMetric::FollowerCount, KeywordId(0)),
                    Algorithm::Snowball {
                        view: ViewKind::TermInduced,
                        order: CrawlOrder::Bfs,
                    },
                    2_500,
                    0,
                ),
            },
        ),
        (
            "reserve".to_string(),
            JournalRecord::Reserve {
                job: 5,
                amount: 20_000,
            },
        ),
    ];
    for (name, sampler) in samplers() {
        records.push((
            format!("checkpoint-{name}"),
            JournalRecord::Checkpoint {
                job: 5,
                checkpoint: checkpoint("MA-SRW", sampler.clone()),
            },
        ));
        let mut delta = checkpoint("M&R", sampler);
        delta.client.searches.clear();
        delta.client.timelines = vec![UserId(4_000_000_000)];
        records.push((
            format!("delta-{name}"),
            JournalRecord::CheckpointDelta { job: 5, delta },
        ));
    }
    records.push((
        "settle".to_string(),
        JournalRecord::Settle { job: 5, used: 0 },
    ));
    records.push((
        "interrupted".to_string(),
        JournalRecord::Interrupted { job: u64::MAX },
    ));
    records
}

fn response() -> QueryResponse {
    QueryResponse {
        id: Some(7),
        status: "degraded".to_string(),
        estimate: Some(Estimate {
            value: 1234.5678,
            std_err: Some(0.1 + 0.2),
            cost: 2_000,
            samples: 412,
            instances: 1,
        }),
        error: Some("breaker \"timeline\" open\\retry\n\tgave up \u{1} é 😀".to_string()),
        cache: Some(CacheStats {
            local_hits: 5,
            shared_hits: 0,
            misses: 3,
            actual_calls: 3,
            saved_calls: 0,
        }),
        resilience: Some(ResilienceStats {
            attempts: 9,
            retries: 2,
            fatal_errors: 1,
            trail: vec!["deadline \"90s\" exceeded".to_string()],
            ..ResilienceStats::default()
        }),
        queue_wait_micros: Some(0),
        exec_micros: None,
    }
}

/// The observed `(name, length, fnv, crc)` rows.
fn observed() -> Vec<(String, usize, u64, u32)> {
    fn row(name: String, bytes: &[u8]) -> (String, usize, u64, u32) {
        (name, bytes.len(), fnv1a(bytes), crc32(bytes))
    }
    let mut rows = Vec::new();
    let records = records();
    for (name, record) in &records {
        let json = serde_json::to_string(record).expect("records serialize");
        let back: JournalRecord = serde_json::from_str(&json).expect("records parse");
        assert_eq!(
            serde_json::to_string(&back).expect("records serialize"),
            json,
            "{name} re-encodes to the same bytes after a round trip"
        );
        rows.push(row(name.clone(), json.as_bytes()));
    }
    let wire = serde_json::to_string(&response()).expect("responses serialize");
    rows.push(row("response".to_string(), wire.as_bytes()));

    let dir = std::env::temp_dir().join(format!("ma-journal-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
    let (journal, _) = Journal::open(&dir, clock).expect("journal opens");
    for (_, record) in &records {
        journal.append(record).expect("record appends");
    }
    journal.sync().expect("journal syncs");
    let file = std::fs::read(journal.path()).expect("journal reads");
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    rows.push(row("journal-file".to_string(), &file));
    rows
}

#[test]
fn records_and_responses_encode_to_the_pinned_bytes() {
    let observed = observed();
    let matches = observed.len() == PINNED.len()
        && observed
            .iter()
            .zip(PINNED)
            .all(|((name, len, fnv, crc), pinned)| (name.as_str(), *len, *fnv, *crc) == *pinned);
    if !matches {
        let mut table = String::from("const PINNED: &[(&str, usize, u64, u32)] = &[\n");
        for (name, len, fnv, crc) in &observed {
            table.push_str(&format!(
                "    (\"{name}\", {len}, {fnv:#018x}, {crc:#010x}),\n"
            ));
        }
        table.push_str("];");
        panic!("encodings differ from the pinned table; observed:\n{table}");
    }
}
