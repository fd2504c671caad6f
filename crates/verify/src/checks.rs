//! The invariant checks replayed over a decoded trace.
//!
//! The runtime's money invariants — every charge attributed, every
//! reservation settled exactly once, checkpoints that never run
//! backwards, breakers that only move along their state machine — are
//! all *observable* in the structured trace. This module replays a
//! `.jsonl` stream and asserts them, so CI catches a violation the
//! moment the code that emits the trace regresses.
//!
//! Live-telemetry streams (`stats` frames from `ma-cli serve
//! --stats-every`) carry their own money invariant: every `window`
//! event reports per-counter deltas *and* cumulative totals, and the
//! deltas must telescope — each total equals the previous total plus
//! the delta, so the sum of all deltas equals the final total.
//!
//! Coverage is checked as well as conservation: every `estimate` span
//! that ends `ok` must enclose a `walk` span, the one the sampler driver
//! opens around every sampler's steps — an estimate no walk produced
//! means a sampler escaped the driver, and its time the walk stage.
//!
//! Concurrency caveat: charge→job attribution and breaker state are
//! per-worker facts, but the trace is a single interleaved stream. When
//! two `job` spans overlap, the auditor cannot tell whose charge (or
//! walk) is whose, so the span-conservation, walk-coverage, tick-order
//! and breaker checks are skipped (reported in [`Audit::skipped`]); the
//! settle, checkpoint, vocabulary and attribution checks are
//! interleaving-proof and always run.

use crate::frame::Frame;
use microblog_obs::schema;
use microblog_obs::{Category, EventKind, WalkPhase};
use std::collections::BTreeMap;

/// One invariant violation, anchored to a 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// 1-based line in the trace file.
    pub line: usize,
    /// Stable check identifier (e.g. `settle-once`).
    pub check: &'static str,
    /// What went wrong.
    pub message: String,
}

/// The outcome of auditing one trace stream.
#[derive(Clone, Debug, Default)]
pub struct Audit {
    /// Frames decoded successfully.
    pub frames: usize,
    /// All violations, in line order.
    pub violations: Vec<Violation>,
    /// Checks skipped because `job` spans overlap (concurrent trace).
    pub skipped: Vec<&'static str>,
    /// Total charged calls across all `charge` events.
    pub charged_calls: u64,
    /// Charged calls with `source == "fresh"` (actual backend fetches).
    pub fresh_calls: u64,
    /// `job` spans whose charge conservation was verified.
    pub conserved_jobs: usize,
    /// `stats`/`window` events whose counter conservation was verified.
    pub stats_windows: usize,
}

impl Audit {
    /// No violations found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One completed `job` span.
struct JobRun {
    job_id: u64,
    start_seq: u64,
    end_seq: u64,
    end_line: usize,
    charged: u64,
    outcome: String,
    resumed: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Breaker {
    Closed,
    Open,
    HalfOpen,
}

/// Replays `input` (one JSON frame per line) and audits every invariant.
pub fn audit(input: &str) -> Audit {
    let mut audit = Audit::default();
    let mut frames: Vec<(usize, Frame)> = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        match Frame::decode(line) {
            Ok(f) => frames.push((line_no, f)),
            Err(e) => audit.violations.push(Violation {
                line: line_no,
                check: "decode",
                message: format!("malformed frame: {e}"),
            }),
        }
    }
    audit.frames = frames.len();

    // Pass 1: does any pair of `job` spans overlap? Attribution of
    // charges to spans (and breaker state) is only sound when they
    // don't.
    let concurrent = job_spans_overlap(&frames);
    if concurrent {
        audit.skipped = vec![
            "job-conservation",
            "walk-coverage",
            "breaker-legality",
            "tick-order",
        ];
    }

    let mut last_seq: Option<u64> = None;
    let mut last_tick: Option<u64> = None;
    // span id -> (line, cat, name)
    let mut open_spans: BTreeMap<u64, (usize, Category, String)> = BTreeMap::new();
    // Open `job` spans: span id -> (job_id, start_seq, resumed)
    let mut open_jobs: BTreeMap<u64, (u64, u64, bool)> = BTreeMap::new();
    // Open `estimate` spans: span id -> whether a `walk` span opened
    // inside it.
    let mut open_estimates: BTreeMap<u64, bool> = BTreeMap::new();
    let mut job_runs: Vec<JobRun> = Vec::new();
    // All charge events, as (seq, calls).
    let mut charges: Vec<(u64, u64)> = Vec::new();
    // job_id -> (line, used, reason) of each settle.
    let mut settles: BTreeMap<u64, Vec<(usize, u64, String)>> = BTreeMap::new();
    // job_id -> last checkpoint steps counter.
    let mut checkpoint_charged: BTreeMap<u64, u64> = BTreeMap::new();
    let mut breakers: BTreeMap<String, Breaker> = BTreeMap::new();
    // Stats conservation: per conserved key, the running sum of window
    // deltas and the last cumulative total seen.
    let mut last_win: Option<u64> = None;
    let mut stats_delta_sums = vec![0u64; schema::STATS_CONSERVED_KEYS.len()];
    let mut stats_last_totals = vec![None::<u64>; schema::STATS_CONSERVED_KEYS.len()];
    let mut stats_last_line = 0usize;

    for (line, f) in &frames {
        let line = *line;
        let mut fail = |check: &'static str, message: String| {
            audit.violations.push(Violation {
                line,
                check,
                message,
            });
        };

        // -- stream ordering ------------------------------------------
        if let Some(prev) = last_seq {
            if f.seq <= prev {
                fail(
                    "seq-order",
                    format!("seq {} does not increase past {prev}", f.seq),
                );
            }
        }
        last_seq = Some(f.seq);
        if !concurrent {
            if let Some(prev) = last_tick {
                if f.tick < prev {
                    fail(
                        "tick-order",
                        format!("tick {} runs backwards from {prev}", f.tick),
                    );
                }
            }
            last_tick = Some(f.tick);
        }

        // -- vocabulary -----------------------------------------------
        let name_ok = match f.kind {
            EventKind::Event => schema::is_event(f.cat, &f.name),
            EventKind::SpanStart | EventKind::SpanEnd => schema::is_span(f.cat, &f.name),
        };
        if !name_ok {
            fail(
                "vocab",
                format!(
                    "`{}` is not a known {} {} name",
                    f.name,
                    f.cat.as_str(),
                    match f.kind {
                        EventKind::Event => "event",
                        _ => "span",
                    }
                ),
            );
            continue;
        }

        // -- span pairing ---------------------------------------------
        match f.kind {
            EventKind::SpanStart => {
                let Some(id) = f.span else {
                    fail(
                        "span-pairing",
                        format!("span_start `{}` has no span id", f.name),
                    );
                    continue;
                };
                if let Some((opened, _, prev)) = open_spans.get(&id) {
                    let msg = format!("span id {id} reused while `{prev}` (line {opened}) is open");
                    fail("span-pairing", msg);
                    continue;
                }
                open_spans.insert(id, (line, f.cat, f.name.clone()));
                match (f.cat, f.name.as_str()) {
                    (Category::Job, "estimate") => {
                        open_estimates.insert(id, false);
                    }
                    (Category::Job, "walk") => open_estimates.values_mut().for_each(|w| *w = true),
                    _ => {}
                }
                if f.cat == Category::Job && f.name == "job" {
                    let job_id = f.u64_field("job_id").unwrap_or(u64::MAX);
                    let resumed = f.u64_field("resumed").unwrap_or(0) == 1;
                    open_jobs.insert(id, (job_id, f.seq, resumed));
                    // Each job runs on a fresh client: breakers reset.
                    breakers.clear();
                }
            }
            EventKind::SpanEnd => {
                let Some(id) = f.span else {
                    fail(
                        "span-pairing",
                        format!("span_end `{}` has no span id", f.name),
                    );
                    continue;
                };
                match open_spans.remove(&id) {
                    None => fail(
                        "span-pairing",
                        format!("span_end `{}` (id {id}) closes nothing", f.name),
                    ),
                    Some((_, cat, name)) if cat != f.cat || name != f.name => fail(
                        "span-pairing",
                        format!(
                            "span id {id} opened as {}/{name} but closed as {}/{}",
                            cat.as_str(),
                            f.cat.as_str(),
                            f.name
                        ),
                    ),
                    Some(_) => {}
                }
                let walked = open_estimates.remove(&id);
                if walked == Some(false) && !concurrent && f.str_field("outcome") == Some("ok") {
                    fail(
                        "walk-coverage",
                        format!("estimate span (id {id}) ended ok without enclosing a walk span"),
                    );
                }
                if let Some((job_id, start_seq, resumed)) = open_jobs.remove(&id) {
                    job_runs.push(JobRun {
                        job_id,
                        start_seq,
                        end_seq: f.seq,
                        end_line: line,
                        charged: f.u64_field("charged").unwrap_or(0),
                        outcome: f.str_field("outcome").unwrap_or("<missing>").to_string(),
                        resumed,
                    });
                }
            }
            EventKind::Event => {
                if f.span.is_some() {
                    fail(
                        "span-pairing",
                        format!("point event `{}` carries a span id", f.name),
                    );
                }
            }
        }

        // -- per-event invariants -------------------------------------
        match (f.cat, f.name.as_str()) {
            (Category::Charge, "charge") => {
                let calls = f.u64_field("calls").unwrap_or(0);
                if calls == 0 {
                    fail(
                        "charge-attribution",
                        "charge without positive `calls`".into(),
                    );
                }
                if f.str_field("endpoint").is_none() {
                    fail("charge-attribution", "charge without `endpoint`".into());
                }
                if f.phase == WalkPhase::Idle {
                    fail(
                        "charge-attribution",
                        format!("{calls} call(s) charged in idle phase — unattributed spend"),
                    );
                }
                match f.str_field("source") {
                    Some("fresh") => audit.fresh_calls += calls,
                    Some("shared") => {}
                    other => fail(
                        "charge-attribution",
                        format!("charge source {other:?} is not `fresh` or `shared`"),
                    ),
                }
                audit.charged_calls += calls;
                charges.push((f.seq, calls));
            }
            (Category::Job, "settle") => {
                let job_id = f.u64_field("job_id").unwrap_or(u64::MAX);
                let used = f.u64_field("used").unwrap_or(0);
                let reason = f.str_field("reason").unwrap_or("<missing>").to_string();
                if !matches!(
                    reason.as_str(),
                    "completed" | "panic" | "send_failed" | "torn_tail" | "requeue_raced"
                ) {
                    fail("settle-once", format!("unknown settle reason `{reason}`"));
                }
                settles
                    .entry(job_id)
                    .or_default()
                    .push((line, used, reason));
            }
            (Category::Checkpoint, "checkpoint") => {
                // `steps` is a per-phase marker and may legally reset at
                // a phase boundary; `charged` (cumulative budget spend
                // at capture) is the counter that must be monotone — a
                // later checkpoint claiming less spend would refund
                // already-consumed budget on resume.
                let job_id = f.u64_field("job_id").unwrap_or(u64::MAX);
                let charged = f.u64_field("charged").unwrap_or(0);
                if let Some(&prev) = checkpoint_charged.get(&job_id) {
                    if charged < prev {
                        fail(
                            "checkpoint-monotone",
                            format!(
                                "job {job_id} checkpoint charged counter fell from {prev} to {charged} — a resume from this checkpoint would re-spend settled budget"
                            ),
                        );
                    }
                }
                checkpoint_charged.insert(job_id, charged);
            }
            (Category::Stats, "window") => {
                audit.stats_windows += 1;
                stats_last_line = line;
                let win = f.u64_field("win").unwrap_or(u64::MAX);
                if let Some(prev) = last_win {
                    if win <= prev {
                        fail(
                            "stats-conservation",
                            format!("window index {win} does not increase past {prev}"),
                        );
                    }
                }
                last_win = Some(win);
                for (i, key) in schema::STATS_CONSERVED_KEYS.iter().enumerate() {
                    let delta = f.u64_field(&format!("d_{key}"));
                    let total = f.u64_field(&format!("t_{key}"));
                    let (Some(delta), Some(total)) = (delta, total) else {
                        fail(
                            "stats-conservation",
                            format!("window is missing its `d_{key}`/`t_{key}` counters"),
                        );
                        continue;
                    };
                    // Telescoping: each window's total is the previous
                    // total plus this window's delta (zero before the
                    // first window — streams start with fresh counters).
                    let expected = stats_last_totals[i].unwrap_or(0).saturating_add(delta);
                    if total != expected {
                        fail(
                            "stats-conservation",
                            format!(
                                "`t_{key}` is {total} but the previous total plus `d_{key}` gives {expected} — the window lost or double-counted traffic"
                            ),
                        );
                    }
                    stats_delta_sums[i] = stats_delta_sums[i].saturating_add(delta);
                    stats_last_totals[i] = Some(total);
                }
            }
            (
                Category::Resilience,
                name @ ("breaker_open" | "breaker_probe" | "breaker_close" | "breaker_fast_fail"),
            ) if !concurrent => {
                let endpoint = f.str_field("endpoint").unwrap_or("<missing>").to_string();
                let state = breakers.entry(endpoint.clone()).or_insert(Breaker::Closed);
                let legal = match (name, *state) {
                    ("breaker_open", Breaker::Closed | Breaker::HalfOpen) => {
                        *state = Breaker::Open;
                        true
                    }
                    ("breaker_probe", Breaker::Open) => {
                        *state = Breaker::HalfOpen;
                        true
                    }
                    ("breaker_close", Breaker::HalfOpen) => {
                        *state = Breaker::Closed;
                        true
                    }
                    ("breaker_fast_fail", Breaker::Open) => true,
                    _ => false,
                };
                if !legal {
                    fail(
                        "breaker-legality",
                        format!("`{name}` on `{endpoint}` is illegal in state {:?}", *state),
                    );
                }
            }
            _ => {}
        }
    }

    // -- end-of-stream checks -----------------------------------------
    for (id, (line, cat, name)) in &open_spans {
        audit.violations.push(Violation {
            line: *line,
            check: "span-pairing",
            message: format!("span {}/{name} (id {id}) never closed", cat.as_str()),
        });
    }

    // Settle exactly once per job id.
    for (job_id, list) in &settles {
        if list.len() > 1 {
            let (line, _, _) = list[1];
            audit.violations.push(Violation {
                line,
                check: "settle-once",
                message: format!(
                    "job {job_id} settled {} times — a reservation can settle at most once",
                    list.len()
                ),
            });
        }
    }

    // Per-job settlement and conservation against the final run of each
    // job id (a crash requeue re-runs the same id in a new span).
    let mut final_runs: BTreeMap<u64, &JobRun> = BTreeMap::new();
    for run in &job_runs {
        let slot = final_runs.entry(run.job_id).or_insert(run);
        if run.end_seq > slot.end_seq {
            *slot = run;
        }
    }
    for (job_id, run) in &final_runs {
        let crashed = run.outcome.starts_with("crash:");
        match settles.get(job_id).map(Vec::as_slice) {
            None | Some([]) if !crashed => audit.violations.push(Violation {
                line: run.end_line,
                check: "settle-once",
                message: format!(
                    "job {job_id} finished (`{}`) but its reservation was never settled — {} charged call(s) dropped from the ledger",
                    run.outcome, run.charged
                ),
            }),
            // A worker-side settle after a crash is illegal — the
            // reservation travels with the requeued job. Supervisor
            // settles (torn tail, shutdown racing the requeue) are the
            // legal exception: the job is parked for journal recovery.
            Some([(line, used, reason), ..])
                if crashed && matches!(reason.as_str(), "completed" | "panic") =>
            {
                audit.violations.push(Violation {
                    line: *line,
                    check: "settle-once",
                    message: format!(
                        "job {job_id} crashed (`{}`) yet settled ({reason}, used {used}) — the reservation must travel with the requeued job",
                        run.outcome
                    ),
                });
            }
            Some([(line, used, reason), ..])
                if matches!(reason.as_str(), "completed" | "panic") && *used != run.charged =>
            {
                audit.violations.push(Violation {
                    line: *line,
                    check: "settle-once",
                    message: format!(
                        "job {job_id} settled {used} call(s) but its span reported {} charged",
                        run.charged
                    ),
                });
            }
            _ => {}
        }
    }

    // Charge conservation inside each non-resumed job span.
    if !concurrent {
        for run in &job_runs {
            if run.resumed || run.outcome.starts_with("crash:") {
                continue;
            }
            let actual: u64 = charges
                .iter()
                .filter(|(seq, _)| *seq > run.start_seq && *seq < run.end_seq)
                .map(|(_, calls)| calls)
                .sum();
            let ok = if run.outcome == "panic" {
                // Nothing could be refunded: the full reservation is
                // treated as consumed, so charged may exceed actual.
                run.charged >= actual
            } else {
                run.charged == actual
            };
            if ok {
                audit.conserved_jobs += 1;
            } else {
                audit.violations.push(Violation {
                    line: run.end_line,
                    check: "job-conservation",
                    message: format!(
                        "job {} reported {} charged call(s) but its span contains {actual} — the meter and the trace disagree",
                        run.job_id, run.charged
                    ),
                });
            }
        }
    }

    // Stats conservation over the whole stream: the deltas of every
    // window must sum to the final cumulative total of the same key.
    for (i, key) in schema::STATS_CONSERVED_KEYS.iter().enumerate() {
        if let Some(total) = stats_last_totals[i] {
            if stats_delta_sums[i] != total {
                audit.violations.push(Violation {
                    line: stats_last_line,
                    check: "stats-conservation",
                    message: format!(
                        "`{key}` window deltas sum to {} but the final cumulative total is {total}",
                        stats_delta_sums[i]
                    ),
                });
            }
        }
    }

    // Coalescing can only ever lower the fresh-fetch count below the
    // charged count; the reverse means calls hit the backend unmetered.
    if audit.fresh_calls > audit.charged_calls {
        audit.violations.push(Violation {
            line: frames.last().map_or(1, |(l, _)| *l),
            check: "charge-attribution",
            message: format!(
                "{} fresh backend call(s) exceed {} charged — unmetered traffic",
                audit.fresh_calls, audit.charged_calls
            ),
        });
    }

    audit.violations.sort_by_key(|v| v.line);
    audit
}

/// Do any two `job` spans overlap in sequence order?
fn job_spans_overlap(frames: &[(usize, Frame)]) -> bool {
    let mut depth = 0u32;
    for (_, f) in frames {
        if f.cat != Category::Job || f.name != "job" {
            continue;
        }
        match f.kind {
            EventKind::SpanStart => {
                depth += 1;
                if depth > 1 {
                    return true;
                }
            }
            EventKind::SpanEnd => depth = depth.saturating_sub(1),
            EventKind::Event => {}
        }
    }
    false
}
