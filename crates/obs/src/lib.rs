//! `teda-obs` — dependency-free observability for the serving stack.
//!
//! Three pieces (see `src/README.md` for the full contract):
//!
//! * [`hist`] — lock-free log-bucketed histograms: recording is one
//!   relaxed atomic increment, snapshots merge associatively, and
//!   quantile estimates are bounded by their bucket.
//! * [`trace`] — per-request span trees with deterministic ids,
//!   collected into a bounded ring and reassemblable across nodes.
//! * [`registry`] — the per-node surface tying both together: the
//!   Prometheus-style exposition ([`Registry::to_prometheus`]) behind the
//!   `METRICS` wire verb, and the span trees behind `TRACE-DUMP`.
//!
//! The determinism contract: observation never perturbs results. A
//! disabled registry hands out disabled histograms and inert trace
//! contexts, so the instrumented request path differs only by a
//! branch; all measured durations flow *out* of the pipeline into
//! exposition, never back into a score, rank, or merge decision. All
//! `Instant` reads live in this crate ([`clock`]), keeping the
//! `wallclock_in_scoring` lint green everywhere else.

pub mod clock;
pub mod hist;
pub mod registry;
pub mod trace;

pub use clock::{StageTimer, Stopwatch};
pub use hist::{bucket_bounds, bucket_of, HistSnapshot, Histogram, BUCKETS};
pub use registry::{stage, Registry, TRACE_RING_CAPACITY};
pub use trace::{static_name, Span, SpanGuard, Trace, TraceCtx, TraceRing};
