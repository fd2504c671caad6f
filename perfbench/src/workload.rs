//! The three workloads: world, service configuration and query mix.
//!
//! All three share the shape of the run — a fresh service with a cold
//! shared cache over world seed 2014, driven closed-loop by as many
//! analysts as it has workers — and differ in where the work lands:
//!
//! - `remote`: Tiny world behind a 50 ms simulated RTT, MA-SRW through
//!   the fetch pipeline. The fetch stack (scheduler, coalescer, shared
//!   cache, RTT) sets latency and API traffic.
//! - `local`: Small world in memory, six samplers, default service.
//!   Walker step loops and client memos set CPU and throughput.
//! - `durable`: `local` plus a write-ahead journal (1,000-step
//!   checkpoints) and 5% transient faults the retry policy absorbs.

use crate::boundary::Boundary;
use crate::stats::SplitMix;
use microblog_analyzer::walker::snowball::CrawlOrder;
use microblog_analyzer::{AggregateQuery, Algorithm, MicroblogAnalyzer, ViewKind};
use microblog_api::{ApiProfile, InflightPolicy};
use microblog_platform::scenario::{twitter_2013, Scale};
use microblog_platform::{
    ApiBackend, Duration, FaultPlan, FaultyPlatform, KeywordId, Platform, SlowBackend, TimeWindow,
    UserMetric,
};
use microblog_service::{JobSpec, Service, ServiceConfig, TelemetryMode};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// World seed shared by every workload.
pub const WORLD_SEED: u64 = 2014;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Remote,
    Local,
    Durable,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "remote" => Some(Workload::Remote),
            "local" => Some(Workload::Local),
            "durable" => Some(Workload::Durable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Remote => "remote",
            Workload::Local => "local",
            Workload::Durable => "durable",
        }
    }

    fn scale(self) -> Scale {
        match self {
            Workload::Remote => Scale::Tiny,
            Workload::Local | Workload::Durable => Scale::Small,
        }
    }

    /// Service workers, and so closed-loop analysts.
    pub fn workers(self) -> usize {
        match self {
            Workload::Remote => 4,
            Workload::Local | Workload::Durable => 2,
        }
    }

    /// Per-query API budget.
    pub fn budget(self) -> u64 {
        match self {
            Workload::Remote => 2_500,
            Workload::Local | Workload::Durable => 20_000,
        }
    }

    /// Queries per cold-service round: whole blocks of the mix. On
    /// `remote`, a round's cold starts (its first half-block) are an
    /// eighth of it, so the median lands among warm queries and the tail
    /// among cold ones; on `local` and `durable`, every sampler meets
    /// every keyword once every two rounds, and a round stays short on a
    /// slow host.
    pub fn round_len(self) -> usize {
        match self {
            Workload::Remote => 4 * 24,
            Workload::Local | Workload::Durable => 6 * 9,
        }
    }

    /// Interleaved chains and per-chain step cap of SRW-family jobs.
    fn chains_and_cap(self) -> (usize, Option<usize>) {
        match self {
            Workload::Remote => (32, Some(200)),
            Workload::Local | Workload::Durable => (1, None),
        }
    }

    /// An analyzer configured as the service runs each job, over `backend`.
    pub fn analyzer<'p>(self, backend: &'p dyn ApiBackend) -> MicroblogAnalyzer<'p> {
        let (chains, cap) = self.chains_and_cap();
        let analyzer =
            MicroblogAnalyzer::with_backend(backend, ApiProfile::twitter()).with_chains(chains);
        match cap {
            Some(cap) => analyzer.with_step_cap(cap),
            None => analyzer,
        }
    }

    /// The boundary-wrapped platform backend: RTT, faults or neither.
    fn boundary(self, platform: &Arc<Platform>, seed: u64, traced: bool) -> Boundary {
        let boundary = match self {
            Workload::Remote => {
                Boundary::new(Arc::new(SlowBackend::new(Arc::clone(platform), 50)), true)
            }
            Workload::Local => Boundary::new(Arc::clone(platform) as Arc<dyn ApiBackend>, false),
            Workload::Durable => Boundary::new(
                Arc::new(FaultyPlatform::new(
                    Arc::clone(platform),
                    FaultPlan::transient(seed, 0.05),
                )),
                false,
            ),
        };
        if traced {
            boundary.traced()
        } else {
            boundary
        }
    }

    fn config(
        self,
        backend: Arc<dyn ApiBackend>,
        journal: Option<PathBuf>,
        traced: bool,
    ) -> ServiceConfig {
        let (chains, step_cap) = self.chains_and_cap();
        let telemetry = if traced {
            TelemetryMode::Wall
        } else {
            TelemetryMode::default()
        };
        let base = ServiceConfig {
            workers: self.workers(),
            backend: Some(backend),
            telemetry,
            journal,
            chains,
            step_cap,
            ..ServiceConfig::default()
        };
        match self {
            // The pipeline as its introduction measured it; coalescing
            // is part of the workload, not just today's default.
            Workload::Remote => ServiceConfig {
                pipeline: true,
                inflight: InflightPolicy::Fixed(256),
                coalesce: true,
                ..base
            },
            Workload::Local | Workload::Durable => base,
        }
    }
}

/// The world a run estimates over.
pub struct World {
    pub platform: Arc<Platform>,
    /// Scenario keywords, in catalog order.
    pub keywords: Vec<KeywordId>,
    pub window: TimeWindow,
}

impl World {
    pub fn build(workload: Workload) -> World {
        let scenario = twitter_2013(workload.scale(), WORLD_SEED);
        World {
            platform: Arc::new(scenario.platform),
            keywords: scenario.keyword_ids,
            window: scenario.window,
        }
    }
}

/// A started service and the boundary it calls the platform through.
pub struct Running {
    pub boundary: Arc<Boundary>,
    pub service: Service,
}

impl Running {
    /// Starts a fresh service, with a cold shared cache, over `world`.
    pub fn start(
        workload: Workload,
        world: &World,
        seed: u64,
        traced: bool,
        journal_dir: Option<&Path>,
    ) -> Running {
        let boundary = Arc::new(workload.boundary(&world.platform, seed, traced));
        let config = workload.config(
            Arc::clone(&boundary) as Arc<dyn ApiBackend>,
            journal_dir.map(Path::to_path_buf),
            traced,
        );
        let service = Service::start(Arc::clone(&world.platform), ApiProfile::twitter(), config)
            .expect("journal directory opens");
        Running { boundary, service }
    }
}

/// One set-up, in seconds: world generation plus `Service::start`
/// (journal open included).
pub fn time_setup(workload: Workload, seed: u64, journal_dir: Option<&Path>) -> f64 {
    let started = Instant::now();
    let world = World::build(workload);
    let run = Running::start(workload, &world, seed, false, journal_dir);
    let secs = started.elapsed().as_secs_f64();
    run.service.shutdown();
    secs
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampler {
    MaSrw,
    MaTarw,
    Mhrw,
    Mr,
    Bfs,
    SrwFull,
}

impl Sampler {
    pub const ALL: [Sampler; 6] = [
        Sampler::MaSrw,
        Sampler::MaTarw,
        Sampler::Mhrw,
        Sampler::Mr,
        Sampler::Bfs,
        Sampler::SrwFull,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Sampler::MaSrw => "ma-srw",
            Sampler::MaTarw => "ma-tarw",
            Sampler::Mhrw => "mhrw",
            Sampler::Mr => "mr",
            Sampler::Bfs => "bfs",
            Sampler::SrwFull => "srw-full",
        }
    }

    fn algorithm(self) -> Algorithm {
        let day = Duration::DAY;
        match self {
            Sampler::MaSrw => Algorithm::MaSrw {
                interval: Some(day),
            },
            Sampler::MaTarw => Algorithm::MaTarw {
                interval: Some(day),
            },
            Sampler::Mhrw => Algorithm::Mhrw {
                view: ViewKind::level(day),
            },
            Sampler::Mr => Algorithm::MarkRecapture {
                view: ViewKind::level(day),
            },
            Sampler::Bfs => Algorithm::Snowball {
                view: ViewKind::TermInduced,
                order: CrawlOrder::Bfs,
            },
            Sampler::SrwFull => Algorithm::SrwFullGraph,
        }
    }
}

/// One query of a mix.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub sampler: Sampler,
    /// Index into [`World::keywords`].
    pub keyword: usize,
    /// AVG(followers) when set, COUNT otherwise.
    pub avg: bool,
    /// Estimator seed.
    pub seed: u64,
}

impl Query {
    pub fn aggregate(&self, world: &World) -> AggregateQuery {
        let kw = world.keywords[self.keyword];
        let query = if self.avg {
            AggregateQuery::avg(UserMetric::FollowerCount, kw)
        } else {
            AggregateQuery::count(kw)
        };
        query.in_window(world.window)
    }

    pub fn algorithm(&self) -> Algorithm {
        self.sampler.algorithm()
    }

    pub fn spec(&self, world: &World, budget: u64) -> JobSpec {
        JobSpec::new(self.aggregate(world), self.algorithm(), budget, self.seed)
    }
}

/// The seeded query stream of a workload. The composition is fixed; the
/// seed picks the order, the keyword assigned to each slot, the
/// aggregate and the estimator seeds.
///
/// - `remote`: blocks of 24 — every keyword once as COUNT and once as
///   AVG, MA-SRW throughout — in two halves that each visit every keyword
///   once, in seeded order.
/// - `local`, `durable`: blocks of 9 — the cheap samplers (MA-TARW, BFS,
///   SRW over the full graph) twice each, the free-spinning ones (MA-SRW,
///   MHRW, M&R) once each — in seeded order. Each sampler walks its own
///   seeded permutation of the keywords and alternates COUNT and AVG
///   (M&R is COUNT only), so every window sees the same share of each
///   sampler and the median and tail latencies sit in different cost
///   modes.
pub struct Mix {
    workload: Workload,
    keywords: usize,
    rng: SplitMix,
    pending: Vec<Query>,
    /// Per sampler: keyword permutation, cursor, next aggregate.
    lanes: Vec<(Vec<usize>, usize, bool)>,
}

impl Mix {
    pub fn new(workload: Workload, keywords: usize, seed: u64) -> Mix {
        let mut rng = SplitMix::new(seed);
        let lanes = Sampler::ALL
            .iter()
            .map(|_| {
                let mut order: Vec<usize> = (0..keywords).collect();
                rng.shuffle(&mut order);
                (order, 0, rng.next_u64() & 1 == 0)
            })
            .collect();
        Mix {
            workload,
            keywords,
            rng,
            pending: Vec::new(),
            lanes,
        }
    }

    fn refill(&mut self) {
        let mut block: Vec<Query> = match self.workload {
            Workload::Remote => {
                // Two halves, each asking about every keyword once: the
                // first half of a round's first block holds its cold
                // starts, the second asks each keyword's other aggregate.
                let avg: Vec<bool> = (0..self.keywords)
                    .map(|_| self.rng.next_u64() & 1 == 0)
                    .collect();
                let mut halves = [(0..self.keywords).collect::<Vec<_>>(), Vec::new()];
                self.rng.shuffle(&mut halves[0]);
                halves[1] = halves[0].clone();
                self.rng.shuffle(&mut halves[1]);
                halves
                    .iter()
                    .zip([false, true])
                    .flat_map(|(half, flip)| half.iter().map(move |&keyword| (keyword, flip)))
                    .map(|(keyword, flip)| Query {
                        sampler: Sampler::MaSrw,
                        keyword,
                        avg: avg[keyword] != flip,
                        seed: 0,
                    })
                    .collect()
            }
            Workload::Local | Workload::Durable => {
                let slots = [
                    Sampler::MaTarw,
                    Sampler::MaTarw,
                    Sampler::Bfs,
                    Sampler::Bfs,
                    Sampler::SrwFull,
                    Sampler::SrwFull,
                    Sampler::MaSrw,
                    Sampler::Mhrw,
                    Sampler::Mr,
                ];
                let mut block: Vec<Query> = slots.iter().map(|&s| self.lane_query(s)).collect();
                self.rng.shuffle(&mut block);
                block
            }
        };
        for q in &mut block {
            q.seed = self.rng.next_u64() >> 16;
        }
        // Served from the back.
        block.reverse();
        self.pending = block;
    }

    fn lane_query(&mut self, sampler: Sampler) -> Query {
        let lane_index = Sampler::ALL
            .iter()
            .position(|&s| s == sampler)
            .expect("sampler has a lane");
        let keywords = self.keywords;
        let (order, cursor, avg) = &mut self.lanes[lane_index];
        if *cursor == keywords {
            self.rng.shuffle(order);
            *cursor = 0;
        }
        let keyword = order[*cursor];
        *cursor += 1;
        let this_avg = *avg && sampler != Sampler::Mr;
        *avg = !*avg;
        Query {
            sampler,
            keyword,
            avg: this_avg,
            seed: 0,
        }
    }

    /// The next `n` queries of the stream.
    pub fn take(&mut self, n: usize) -> Vec<Query> {
        (0..n)
            .map(|_| {
                if self.pending.is_empty() {
                    self.refill();
                }
                self.pending.pop().expect("refilled block is non-empty")
            })
            .collect()
    }
}
