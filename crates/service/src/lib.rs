//! `teda-service` — the long-running annotation service.
//!
//! The paper frames annotation as search-engine-bounded work: "querying
//! a Web search engine is a costly operation" (§5), and real engines
//! meter a daily query allowance. The batch engine,
//! [`BatchAnnotator`](teda_core::pipeline::BatchAnnotator), treats that
//! concern offline — whole corpus in, whole corpus out. This crate turns
//! the engine into an *online service*: callers submit one table at a
//! time, a scheduler fans requests out over a worker pool, and admission
//! control sheds load when the queue or the query budget is exhausted,
//! instead of letting latency and memory grow without bound.
//!
//! Four pieces (std threads + channels only — the offline-build
//! constraint rules out an async runtime, and annotation work is
//! CPU/latency-bound anyway, so a thread per worker is the right shape):
//!
//! * [`ServiceConfig`] — the knobs: worker count, submission-queue
//!   depth, per-request and pooled query budgets, the DRR
//!   `fair_quantum`, and the bounded query-cache configuration
//!   ([`teda_core::cache::CacheConfig`]) applied to the underlying
//!   engine.
//! * [`AnnotationService`] — the scheduler: a bounded submission queue
//!   feeding a worker pool that drives
//!   [`BatchAnnotator::annotate_table`](teda_core::pipeline::BatchAnnotator::annotate_table).
//!   Its one way in is [`submit`](AnnotationService::submit), which
//!   takes a [`SubmitRequest`] (a bare `Arc<Table>` converts into one);
//!   under [`Wait::Shed`] a full queue or an empty budget sheds the
//!   request with a typed [`Rejection`].
//! * **Per-client fairness** — every submission runs as the
//!   [`ClientId`] its [`SubmitRequest::client`] names
//!   ([`ClientId::ANONYMOUS`] by default; `submit_stream` takes one per
//!   stream). The shared query pool feeds per-client token buckets by
//!   deficit round-robin: when the pool runs dry, refunds and `add_budget` refills are granted to
//!   *waiting* clients one quantum per rotation, so a bulk ingester
//!   with unbounded queued demand cannot starve an interactive caller
//!   — its big reservations simply accumulate across rounds while
//!   small requests clear in one. Uncontended, the pool behaves exactly
//!   like a single global counter.
//! * [`ServiceStats`] — the report: accepted/shed accounting, p50/p99
//!   latency, shed rate, the cache hit rates of both memo layers, and
//!   per-client counters ([`ClientStats`]).
//!
//! Two admission modes front the same scheduler, both through `submit`:
//!
//! * **request/response** — [`Wait::Shed`], the open-loop path above:
//!   never blocks, sheds under pressure. Right for interactive callers
//!   who can retry.
//! * **streaming** — [`Wait::Block`], which
//!   [`submit_stream`](AnnotationService::submit_stream) uses to
//!   annotate a whole [`teda_core::stream::TableSource`] with a
//!   bounded in-flight window, metering admission per table *as the
//!   source yields*: a full queue or a dry query pool pauses the pull
//!   (backpressure into the parser or feed) instead of shedding, and
//!   results reach the [`teda_core::stream::AnnotationSink`] in stream
//!   order, bit-identical to the offline batch path. Right for corpus
//!   ingestion, where dropping tables is data loss.
//!
//! Determinism note: the service inherits the batch engine's invariant —
//! annotations are a pure function of the table (plus config/seed), so
//! scheduling order, cache evictions and worker interleaving change
//! *when* a result arrives and how many engine calls it costs, never the
//! result itself.

mod fairness;
mod live;
mod scheduler;
mod stats;

pub use fairness::ClientId;
pub use live::LiveCorpus;
pub use scheduler::{
    AnnotationService, Rejection, RequestFailed, RequestHandle, RequestOutcome, ServiceConfig,
    SubmitRequest, Wait,
};
pub use stats::{ClientStats, LatencySummary, ServiceStats, StageStats};
// The persistence layer's error type, surfaced by
// `AnnotationService::snapshot_now` (and mapped onto the wire by the
// `SNAPSHOT` verb) — re-exported so callers need not depend on
// `teda-store` to name it.
pub use teda_store::StoreError;
// The live-corpus compaction knobs and report, re-exported for the
// same reason: `start_live` callers tune and observe them.
pub use teda_store::{CompactionReport, TierPolicy};
