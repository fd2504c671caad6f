//! Answer checking against isolated runs, and ground truth.
//!
//! The service layers a shared cache, a coalescer, a fetch scheduler,
//! faults and retries between a job and the platform, and each of them
//! promises to leave the estimate untouched. The check holds them to it:
//! an answered job's estimate bits and charged count must equal a run of
//! the same spec by a lone `MicroblogAnalyzer` over the raw platform.

use crate::boundary::Boundary;
use crate::drive::Record;
use crate::workload::{Query, Workload, World};
use microblog_analyzer::{Estimate, EstimateError, MicroblogAnalyzer};
use microblog_api::{ApiProfile, RetryPolicy};
use microblog_platform::ApiBackend;
use microblog_service::{JobOutcome, ServiceError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One isolated run of a query, with the spans the benchmark took
/// around it.
pub struct Isolated {
    pub outcome: Result<Estimate, EstimateError>,
    pub charged: u64,
    /// The `MicroblogAnalyzer::run` span.
    pub run_ns: u64,
    /// Boundary spans inside it.
    pub backend_ns: u64,
}

impl Isolated {
    /// Walker self time: the run span minus the platform calls in it.
    pub fn self_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.backend_ns)
    }
}

/// Runs queries the way a lone analyst would: one analyzer, no shared
/// cache, the raw platform behind a traced boundary.
pub struct Isolator {
    workload: Workload,
    boundary: Boundary,
}

impl Isolator {
    pub fn new(workload: Workload, world: &World) -> Isolator {
        Isolator {
            workload,
            boundary: Boundary::new(Arc::clone(&world.platform) as Arc<dyn ApiBackend>, false)
                .traced(),
        }
    }

    pub fn run(&self, world: &World, query: &Query) -> Isolated {
        let analyzer = self.workload.analyzer(&self.boundary);
        let busy = self.boundary.busy_ns();
        let started = Instant::now();
        let report = analyzer.run(
            &query.aggregate(world),
            self.workload.budget(),
            query.algorithm(),
            query.seed,
            None,
            &RetryPolicy::resilient(),
        );
        let run_ns = started.elapsed().as_nanos() as u64;
        Isolated {
            outcome: report.outcome,
            charged: report.charged,
            run_ns,
            backend_ns: self.boundary.busy_ns() - busy,
        }
    }
}

/// Compares a service outcome with the isolated run of the same spec.
pub fn verify(record: &Record, isolated: &Isolated, budget: u64) -> Result<(), String> {
    let what = format!(
        "{} kw#{} {} seed {}",
        record.query.sampler.name(),
        record.query.keyword,
        if record.query.avg { "AVG" } else { "COUNT" },
        record.query.seed
    );
    match (&record.outcome, &isolated.outcome) {
        (Ok(JobOutcome::Complete(out)), Ok(est)) => {
            if out.estimate.value.to_bits() != est.value.to_bits() {
                return Err(format!(
                    "{what}: estimate {} differs from isolated {}",
                    out.estimate.value, est.value
                ));
            }
            if out.charged != isolated.charged {
                return Err(format!(
                    "{what}: charged {} differs from isolated {}",
                    out.charged, isolated.charged
                ));
            }
            if out.charged > budget {
                return Err(format!(
                    "{what}: charged {} over budget {budget}",
                    out.charged
                ));
            }
            Ok(())
        }
        (
            Ok(JobOutcome::Failed {
                error: ServiceError::Estimation(error),
                charged,
                ..
            }),
            Err(isolated_error),
        ) if error == isolated_error && *charged == isolated.charged => Ok(()),
        (Err(_), _) => Ok(()),
        (Ok(outcome), _) => Err(format!(
            "{what}: service outcome {:?} does not match isolated {:?} ({} charged)",
            outcome_summary(outcome),
            isolated.outcome.as_ref().map(|e| e.value),
            isolated.charged
        )),
    }
}

fn outcome_summary(outcome: &JobOutcome) -> String {
    match outcome {
        JobOutcome::Complete(out) => format!("complete {}", out.estimate.value),
        JobOutcome::Degraded(out) => format!("degraded {}", out.estimate.value),
        JobOutcome::Failed { error, .. } => format!("failed: {error}"),
    }
}

/// Exact answers, computed once per (keyword, aggregate).
pub struct Truths {
    cache: HashMap<(usize, bool), Option<f64>>,
}

impl Truths {
    pub fn new() -> Truths {
        Truths {
            cache: HashMap::new(),
        }
    }

    pub fn get(&mut self, world: &World, query: &Query) -> Option<f64> {
        *self
            .cache
            .entry((query.keyword, query.avg))
            .or_insert_with(|| {
                MicroblogAnalyzer::new(&world.platform, ApiProfile::twitter())
                    .ground_truth(&query.aggregate(world))
            })
    }

    /// `|estimate − truth| / truth` of an answered record, when the
    /// truth is non-zero.
    pub fn relative_error(&mut self, world: &World, record: &Record) -> Option<f64> {
        let Ok(JobOutcome::Complete(out)) = &record.outcome else {
            return None;
        };
        let truth = self.get(world, &record.query)?;
        (truth != 0.0).then(|| out.estimate.relative_error(truth))
    }
}
