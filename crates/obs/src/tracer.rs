//! The instrumentation handle: cheap to clone, free when disabled.
//!
//! A [`Tracer`] is an `Option<Arc<…>>` around a sink, a clock and the
//! ambient attribution state. Disabled tracers ([`Tracer::disabled`],
//! also `Default`) are a `None` — every operation is a branch and a
//! return, so instrumented hot loops cost nothing when tracing is off.
//!
//! Attribution works by *ambient context*: a walker publishes its
//! current [`WalkPhase`] (and, for MA-TARW, its level) on the tracer, and
//! every event recorded afterwards — including charge events recorded
//! layers below in the metered client stack — carries that phase. The
//! client stack never needs to know what a burn-in is, yet `ma-cli trace
//! --summary` can still say "62% of this job's calls were spent in
//! burn-in".

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::clock::TelemetryClock;
use crate::event::{EventKind, EventName, FieldValue, Name, SpanName, TraceEvent, WalkPhase};
use crate::sink::TraceSink;

/// Sentinel for "no level published" in the ambient level cell. Real
/// levels are `level_of_time` quotients, which can be large (an
/// unbounded query window puts the origin at a far-past sentinel) but
/// never reach `i64::MIN`.
const NO_LEVEL: i64 = i64::MIN;

struct TracerCore {
    sink: Arc<dyn TraceSink>,
    clock: Arc<TelemetryClock>,
    seq: AtomicU64,
    next_span: AtomicU64,
    phase: AtomicUsize,
    level: AtomicI64,
}

/// A handle for emitting trace events; see the module docs. Clones share
/// the same sink, clock, sequence counter and ambient phase/level.
#[derive(Clone, Default)]
pub struct Tracer {
    core: Option<Arc<TracerCore>>,
}

impl Tracer {
    /// A tracer that records nothing; every operation is a no-op.
    pub fn disabled() -> Self {
        Tracer { core: None }
    }

    /// A tracer writing to `sink`, timestamping with `clock`.
    pub fn new(sink: Arc<dyn TraceSink>, clock: Arc<TelemetryClock>) -> Self {
        Tracer {
            core: Some(Arc::new(TracerCore {
                sink,
                clock,
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                phase: AtomicUsize::new(WalkPhase::Idle.index()),
                level: AtomicI64::new(NO_LEVEL),
            })),
        }
    }

    /// Whether events are recorded at all. Instrumentation with a
    /// nontrivial setup cost (string formatting, trace conversion)
    /// should check this first; plain numeric emits don't need to.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The clock timestamps come from, when enabled. The service engine
    /// reuses it for queue/exec telemetry so traces and metrics share
    /// one tick stream.
    pub fn clock(&self) -> Option<&Arc<TelemetryClock>> {
        self.core.as_ref().map(|c| &c.clock)
    }

    /// Publishes the ambient walk phase attributed to subsequent events.
    pub fn set_phase(&self, phase: WalkPhase) {
        if let Some(core) = &self.core {
            core.phase.store(phase.index(), Ordering::Relaxed);
        }
    }

    /// The currently-published walk phase.
    pub fn phase(&self) -> WalkPhase {
        match &self.core {
            Some(core) => {
                let idx = core.phase.load(Ordering::Relaxed);
                WalkPhase::ALL.get(idx).copied().unwrap_or_default()
            }
            None => WalkPhase::Idle,
        }
    }

    /// Publishes (or clears) the ambient MA-TARW level.
    pub fn set_level(&self, level: Option<i64>) {
        if let Some(core) = &self.core {
            core.level
                .store(level.unwrap_or(NO_LEVEL), Ordering::Relaxed);
        }
    }

    /// Records a point event in the current phase/level context.
    pub fn emit(&self, name: EventName, fields: &[(&'static str, FieldValue)]) {
        self.push(EventKind::Event, name.0, None, fields);
    }

    /// Opens a span and returns its id (0 when disabled; passing 0 back
    /// to [`Tracer::span_end`] is a harmless no-op-tagged edge).
    pub fn span_start(&self, name: SpanName, fields: &[(&'static str, FieldValue)]) -> u64 {
        let Some(core) = &self.core else { return 0 };
        let id = core.next_span.fetch_add(1, Ordering::Relaxed);
        self.push(EventKind::SpanStart, name.0, Some(id), fields);
        id
    }

    /// Closes the span opened under `id`.
    pub fn span_end(&self, name: SpanName, id: u64, fields: &[(&'static str, FieldValue)]) {
        self.push(EventKind::SpanEnd, name.0, Some(id), fields);
    }

    /// Records one edge of a registered name. A disabled tracer returns
    /// at the first branch.
    fn push(
        &self,
        kind: EventKind,
        name: Name,
        span: Option<u64>,
        fields: &[(&'static str, FieldValue)],
    ) {
        let Some(core) = &self.core else { return };
        let level_raw = core.level.load(Ordering::Relaxed);
        let event = TraceEvent {
            tick: core.clock.now().as_micros() as u64,
            seq: core.seq.fetch_add(1, Ordering::Relaxed),
            kind,
            category: name.category,
            name: name.name,
            span,
            phase: self.phase(),
            level: (level_raw != NO_LEVEL).then_some(level_raw),
            fields: fields.to_vec(),
        };
        core.sink.record(event);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("phase", &self.phase())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{TelemetryClock, TelemetryMode};
    use crate::recorder::RingRecorder;

    fn traced() -> (Tracer, Arc<RingRecorder>) {
        let recorder = Arc::new(RingRecorder::default());
        let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
        (Tracer::new(recorder.clone(), clock), recorder)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.set_phase(WalkPhase::Walk);
        assert_eq!(tracer.phase(), WalkPhase::Idle);
        tracer.emit(EventName::STEP, &[]);
        assert_eq!(tracer.span_start(SpanName::JOB, &[]), 0);
    }

    #[test]
    fn events_carry_ambient_phase_and_level() {
        let (tracer, recorder) = traced();
        tracer.emit(EventName::CHARGE, &[("calls", FieldValue::U64(1))]);
        tracer.set_phase(WalkPhase::Up);
        tracer.set_level(Some(3));
        tracer.emit(EventName::CHARGE, &[("calls", FieldValue::U64(2))]);
        tracer.set_level(None);
        tracer.emit(EventName::CHARGE, &[("calls", FieldValue::U64(3))]);

        let events = recorder.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].phase, WalkPhase::Idle);
        assert_eq!(events[0].level, None);
        assert_eq!(events[1].phase, WalkPhase::Up);
        assert_eq!(events[1].level, Some(3));
        assert_eq!(events[2].level, None);
    }

    #[test]
    fn ticks_and_seqs_strictly_increase() {
        let (tracer, recorder) = traced();
        for _ in 0..5 {
            tracer.emit(EventName::STEP, &[]);
        }
        let events = recorder.drain();
        for pair in events.windows(2) {
            assert!(pair[0].tick < pair[1].tick);
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn spans_pair_by_id() {
        let (tracer, recorder) = traced();
        let id = tracer.span_start(SpanName::JOB, &[]);
        tracer.emit(EventName::MISS, &[]);
        tracer.span_end(SpanName::JOB, id, &[]);
        let events = recorder.drain();
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[2].kind, EventKind::SpanEnd);
        assert_eq!(events[0].span, events[2].span);
        assert!(id > 0);
    }

    #[test]
    fn clones_share_state() {
        let (tracer, recorder) = traced();
        let clone = tracer.clone();
        clone.set_phase(WalkPhase::BurnIn);
        tracer.emit(EventName::STEP, &[]);
        assert_eq!(recorder.drain()[0].phase, WalkPhase::BurnIn);
    }
}
