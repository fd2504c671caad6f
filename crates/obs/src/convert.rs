//! Turning recorded [`WalkTrace`]s into trace events.
//!
//! The graph crate's walk functions return a [`WalkTrace`] — a vector of
//! [`Visit`]s — rather than emitting events step by step; pilot walks in
//! the interval selector use them. This module replays such a trace into
//! a [`Tracer`] so offline walks appear in the same event stream as live
//! instrumented ones, without duplicating visit bookkeeping.

use microblog_graph::{Visit, WalkTrace};

use crate::event::{EventName, FieldValue};
use crate::tracer::Tracer;

/// Emits one `visit` event per trace entry, in step order, under the
/// tracer's current phase/level context. The `step` field is the
/// position in the trace (0 is the start node).
pub fn emit_walk_trace(tracer: &Tracer, trace: &WalkTrace) {
    if !tracer.is_enabled() {
        return;
    }
    for (step, visit) in trace.visits.iter().enumerate() {
        emit_visit(tracer, step, visit);
    }
}

/// Emits a single `visit` event.
pub fn emit_visit(tracer: &Tracer, step: usize, visit: &Visit) {
    tracer.emit(
        EventName::VISIT,
        &[
            ("step", FieldValue::U64(step as u64)),
            ("node", FieldValue::U64(u64::from(visit.node))),
            ("degree", FieldValue::U64(visit.degree as u64)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{TelemetryClock, TelemetryMode};
    use crate::event::WalkPhase;
    use crate::recorder::RingRecorder;
    use std::sync::Arc;

    #[test]
    fn replays_every_visit_in_order() {
        let recorder = Arc::new(RingRecorder::default());
        let clock = Arc::new(TelemetryClock::new(TelemetryMode::Logical));
        let tracer = Tracer::new(recorder.clone(), clock);
        tracer.set_phase(WalkPhase::Pilot);

        let trace = WalkTrace {
            visits: vec![Visit { node: 4, degree: 2 }, Visit { node: 9, degree: 3 }],
        };
        emit_walk_trace(&tracer, &trace);

        let events = recorder.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].u64_field("step"), Some(0));
        assert_eq!(events[0].u64_field("node"), Some(4));
        assert_eq!(events[1].u64_field("degree"), Some(3));
        assert!(events.iter().all(|e| e.phase == WalkPhase::Pilot));
    }

    #[test]
    fn disabled_tracer_short_circuits() {
        let trace = WalkTrace {
            visits: vec![Visit { node: 1, degree: 1 }],
        };
        emit_walk_trace(&Tracer::disabled(), &trace);
    }
}
