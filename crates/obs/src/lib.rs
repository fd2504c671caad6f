//! # microblog-obs
//!
//! A dependency-free structured-tracing subsystem for the
//! MICROBLOG-ANALYZER stack.
//!
//! The paper's currency is *API calls per unit of accuracy*, and the
//! service's end-of-job totals cannot explain where inside a walk the
//! budget went. This crate provides the missing step-level view:
//!
//! * [`event`] — the [`TraceEvent`] record: a span or point event with a
//!   category, a name, a walk [`WalkPhase`] / level attribution, and typed
//!   key-value fields; and the registered names ([`EventName`],
//!   [`SpanName`]) that are the only names a [`Tracer`] records.
//! * [`clock`] — the [`TelemetryClock`] that timestamps every record.
//!   The default [`TelemetryMode::Logical`] is a monotone atomic counter,
//!   so two runs with the same seed produce **bit-identical** traces —
//!   traces are golden-testable and replay-diffable.
//! * [`sink`] — the [`TraceSink`] trait events flow into, with
//!   [`NullSink`] for the disabled path.
//! * [`recorder`] — [`RingRecorder`], a bounded, per-category-sharded
//!   ring buffer with deterministic counter-based sampling (no RNG, no
//!   wall time — sampling decisions replay identically too).
//! * [`tracer`] — [`Tracer`], the cheap cloneable handle instrumentation
//!   code holds. It carries ambient *walk phase* and *level* state so a
//!   charge recorded deep in the client stack is attributed to the walk
//!   phase that caused it.
//! * [`histogram`] — log-linear bucket math over plain `[u64; BUCKETS]`
//!   counts, shared by the windowed histograms and the service totals
//!   (which keep theirs under the stats hub's lock).
//! * [`window`] — rotating-window time series on the logical clock:
//!   [`WindowedSeries`] for rates/gauges and [`WindowedHistogram`] for
//!   per-window latency percentiles, feeding the live stats stream.
//! * [`export`] — hand-rolled JSON-lines serialization with a fixed field
//!   order, so byte-identical traces really are byte-identical.
//! * [`convert`] — turning a [`microblog_graph::WalkTrace`] into trace
//!   events without re-implementing visit bookkeeping.
//!
//! The crate is deliberately dependency-free apart from the workspace's
//! own `microblog-graph`: tracing must never perturb what it measures, so
//! everything here is `std` atomics, mutexed ring buffers, plain bucket
//! arrays and string formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod convert;
pub mod event;
pub mod export;
pub mod histogram;
pub mod recorder;
pub mod schema;
pub mod sink;
pub mod tracer;
pub mod window;

pub use clock::{TelemetryClock, TelemetryMode};
pub use event::{Category, EventKind, EventName, FieldValue, SpanName, TraceEvent, WalkPhase};
pub use export::{render_jsonl, to_json_line};
pub use histogram::render_buckets;
pub use recorder::{RecorderConfig, RecorderStats, RingRecorder};
pub use sink::{NullSink, TraceSink};
pub use tracer::Tracer;
pub use window::{sparkline, WindowStats, WindowedHistogram, WindowedSeries};
