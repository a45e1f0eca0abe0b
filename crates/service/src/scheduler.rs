//! The request scheduler: bounded queue, worker pool, admission control.
//!
//! Shape: [`AnnotationService::submit`] is the one way in. It runs on
//! the caller's thread and takes a [`SubmitRequest`] (table, client,
//! trace, [`Wait`] mode): the job is either enqueued on a bounded
//! `std::sync::mpsc::sync_channel`, rejected with a typed [`Rejection`],
//! or — under [`Wait::Block`] — held on the caller's thread until there
//! is room. [`AnnotationService::submit_stream`] drives a whole
//! [`TableSource`] through it. Worker threads pull jobs off the shared
//! receiver and drive [`BatchAnnotator::annotate_table`]; each job
//! carries a one-slot reply channel its [`RequestHandle`] waits on.
//!
//! Admission control mirrors the paper's query-allowance concern (§5):
//! a request's worst-case query need is its cell count (pre-processing
//! and the memo only ever lower real engine traffic), so the scheduler
//! can reject oversized requests up front and meter a shared query pool
//! without ever running them. The pool reservation is returned once the
//! request completes and its true candidate count is known.
//!
//! The pool is **client-aware** (see [`crate::fairness`]): every
//! submission runs as the [`SubmitRequest::client`] it names (a bare
//! `Arc<Table>` runs as [`ClientId::ANONYMOUS`]), reservations draw
//! from per-client token buckets refilled by deficit round-robin, and
//! [`ServiceStats`] reports per-client counters — a bulk ingester sharing the pool with an
//! interactive caller can no longer starve it.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use teda_core::cache::CacheConfig;
use teda_core::pipeline::{BatchAnnotator, TableAnnotations};
use teda_core::stream::{
    AnnotatedTable, AnnotationSink, IntoArcTable, SourceError, StreamSummary, TableSource,
};
use teda_obs::{stage, Counter, Histogram, Registry, StageTimer, TraceCtx};
use teda_tabular::Table;

use crate::fairness::{Admission, Cancelled, ClientId};
use crate::stats::{LatencySummary, ServiceStats, StageStats};

/// Scheduler and budget knobs of an [`AnnotationService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads. `0` uses the machine's available parallelism.
    pub workers: usize,
    /// Bounded submission-queue depth; a full queue sheds new requests.
    pub queue_depth: usize,
    /// Per-request admission bound: requests whose worst-case query need
    /// (cell count) exceeds this are rejected outright.
    pub max_queries_per_request: Option<u64>,
    /// Shared query pool (the paper's daily allowance): submissions
    /// reserve their worst-case need and are shed when the pool runs
    /// dry; unused reservation is returned on completion.
    pub query_pool: Option<u64>,
    /// Bounded-cache configuration applied to the annotator's query
    /// cache (capacity / TTL / shards). `None` keeps the annotator's
    /// existing cache.
    pub cache: Option<CacheConfig>,
    /// Bound on the distinct-address geocoding memo. The default caps it
    /// at 65,536 addresses so a service running for days cannot grow the
    /// memo without limit; `None` leaves it unbounded (corpus-run
    /// behaviour). Flushes only cost extra geocoder calls.
    pub geo_memo_capacity: Option<usize>,
    /// Deficit-round-robin quantum of the per-client fairness layer:
    /// tokens granted to each waiting client per rotation when a dry
    /// pool is refilled. Smaller values interleave clients more finely;
    /// the default (64) lets a typical interactive table through in one
    /// round. Only meaningful when `query_pool` is set.
    pub fair_quantum: u64,
    /// Bound on the per-client fairness registry: beyond this many
    /// distinct [`ClientId`]s, the least-recently-active *idle* client
    /// is forgotten (its bucket tokens return to the pool; parked
    /// waiters are never evicted), so one-id-per-request abuse cannot
    /// grow the admission state without bound. The default (1,024)
    /// comfortably covers named tenants.
    pub max_tracked_clients: usize,
    /// Persistence home (`teda-store`): when set, the service restores
    /// the query-cache snapshot from `<dir>/cache.snap` at start (any
    /// corruption degrades to a cold cache, never a panic) and writes a
    /// fresh snapshot on graceful shutdown — plus on demand through
    /// [`AnnotationService::snapshot_now`] (the wire `SNAPSHOT` verb).
    /// `None` disables persistence.
    pub store_dir: Option<std::path::PathBuf>,
    /// Serve the base corpus straight off the mmap'd snapshot file
    /// instead of decoding it to the heap
    /// ([`LiveCorpus::open_for`](crate::live::LiveCorpus::open_for)
    /// consults this): cold start becomes O(index + delta), page text
    /// hydrates lazily per hit, and N service processes over the same
    /// store directory share one page-cache copy of the corpus.
    /// Results are bit-identical either way. [`ServiceStats`] reports
    /// the mapping's resident-bytes and hydration counters when on.
    pub mmap_corpus: bool,
    /// Telemetry master switch. `true` (the default) wires a recording
    /// [`teda_obs::Registry`] through the pipeline: per-stage latency
    /// histograms, per-request trace spans, and the `METRICS` /
    /// `TRACE-DUMP` wire exposition. `false` installs a no-op registry
    /// — every recording site costs one predictable branch and no
    /// clock read. Results are bit-identical either way (`exp_obs`
    /// asserts it); with telemetry off, [`ServiceStats::latency`] and
    /// the per-stage histograms read as zero.
    pub telemetry: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_depth: 64,
            max_queries_per_request: None,
            query_pool: None,
            cache: None,
            geo_memo_capacity: Some(65_536),
            fair_quantum: 64,
            max_tracked_clients: 1_024,
            store_dir: None,
            mmap_corpus: false,
            telemetry: true,
        }
    }
}

/// How [`AnnotationService::submit`] waits when the query pool or the
/// submission queue is full.
#[derive(Debug, Clone, Copy)]
pub enum Wait<'a> {
    /// Never block: a dry pool or a full queue sheds the request with a
    /// typed [`Rejection`]. Right for interactive callers who can retry
    /// (the wire `TRY` verb).
    Shed,
    /// Block until capacity frees up — backpressure instead of shedding
    /// (the wire `ANNOTATE` verb, [`AnnotationService::submit_stream`]).
    /// With `Some(flag)`, a caller parked on a dry pool gives up with
    /// [`Rejection::Cancelled`] once the flag is raised and
    /// [`AnnotationService::wake_blocked_submitters`] is called.
    Block(Option<&'a AtomicBool>),
}

/// One submission to [`AnnotationService::submit`].
///
/// A bare `Arc<Table>` converts into the common case — anonymous,
/// [`Wait::Shed`], freshly minted trace — and struct-update syntax
/// changes the rest:
/// `SubmitRequest { client, wait: Wait::Block(None), ..table.into() }`.
pub struct SubmitRequest<'a> {
    /// The table to annotate.
    pub table: Arc<Table>,
    /// Whose token bucket the reservation draws from and whose counters
    /// in [`ServiceStats::clients`] the request lands in.
    pub client: ClientId,
    /// The trace the queue-wait and annotate spans land in. `None` mints
    /// a `"request"` trace on the service's registry; the wire server's
    /// `TRACE <id>` requests pass
    /// [`Registry::trace_with_id`](teda_obs::Registry::trace_with_id) so
    /// the spans complete under the caller's id, and
    /// [`TraceCtx::disabled`] traces nothing.
    pub trace: Option<TraceCtx>,
    /// Shed or block when capacity runs out.
    pub wait: Wait<'a>,
}

impl From<Arc<Table>> for SubmitRequest<'_> {
    fn from(table: Arc<Table>) -> Self {
        SubmitRequest {
            table,
            client: ClientId::ANONYMOUS,
            trace: None,
            wait: Wait::Shed,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded submission queue is full — shed, try again later.
    QueueFull,
    /// The shared query pool cannot cover the request's worst case.
    BudgetExhausted,
    /// The request alone exceeds the per-request query budget.
    RequestTooLarge {
        /// Worst-case queries the table may need (its cell count).
        need: u64,
        /// The configured per-request bound.
        budget: u64,
    },
    /// The service is shutting down; no new work is accepted.
    ShuttingDown,
    /// A [`Wait::Block`] submission observed its raised cancel flag while
    /// parked on a dry pool (see
    /// [`AnnotationService::wake_blocked_submitters`]).
    Cancelled,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull => write!(f, "submission queue full"),
            Rejection::BudgetExhausted => write!(f, "query pool exhausted"),
            Rejection::RequestTooLarge { need, budget } => {
                write!(f, "request needs up to {need} queries, budget is {budget}")
            }
            Rejection::ShuttingDown => write!(f, "service shutting down"),
            Rejection::Cancelled => write!(f, "submission cancelled"),
        }
    }
}

/// The completed annotation of one submitted table.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The annotations, bit-identical to a direct
    /// [`BatchAnnotator::annotate_table`] call on the same table.
    pub annotations: TableAnnotations,
    /// Submit-to-completion latency (queue wait included).
    pub latency: Duration,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
}

/// The request's worker unwound (engine panic) or the service dropped
/// the job during shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestFailed;

/// A ticket for one accepted submission.
#[derive(Debug)]
pub struct RequestHandle {
    reply: Receiver<Result<RequestOutcome, RequestFailed>>,
}

impl RequestHandle {
    /// Blocks until the request completes.
    pub fn wait(self) -> Result<RequestOutcome, RequestFailed> {
        self.reply.recv().unwrap_or(Err(RequestFailed))
    }

    /// Non-blocking poll; `None` while the request is still queued or
    /// running.
    pub fn try_wait(&self) -> Option<Result<RequestOutcome, RequestFailed>> {
        self.reply.try_recv().ok()
    }
}

/// One queued unit of work.
struct Job {
    table: Arc<Table>,
    client: ClientId,
    enqueued: Instant,
    reserved: u64,
    reply: SyncSender<Result<RequestOutcome, RequestFailed>>,
    /// Monotonic submission ticket — the key of the in-flight registry.
    ticket: u64,
    /// Where the queue-wait and annotate spans land; the worker
    /// finishes the tree on completion.
    trace: JobTrace,
}

/// A job's trace.
enum JobTrace {
    /// The caller's context (inert when the caller disabled tracing).
    Given(TraceCtx),
    /// A `"request"` trace under an id reserved at submit, so ids follow
    /// submission order, and rooted at the instant submit began. The
    /// worker starts it: a trace allocated and freed on one thread costs
    /// a fraction of one handed across threads.
    Minted { id: u64, origin: Instant },
    /// Telemetry is off.
    Off,
}

/// State shared between the submit path and the workers.
struct Shared {
    annotator: BatchAnnotator,
    /// Client-aware pool metering: shared allowance + per-client token
    /// buckets + per-client counters (see [`crate::fairness`]). Parked
    /// blocking submitters wait on its condvar; refunds wake them.
    admission: Admission,
    // The node's counters, each registered on `obs` under its field
    // name.
    /// Submission attempts, accepted or not.
    submitted: Arc<Counter>,
    /// Requests that ran to completion.
    completed: Arc<Counter>,
    /// Requests whose worker panicked (completed with an error outcome).
    failed: Arc<Counter>,
    /// Requests shed because the submission queue was full.
    shed_queue: Arc<Counter>,
    /// Requests shed because the pooled query budget was exhausted.
    shed_budget: Arc<Counter>,
    /// Requests rejected because their worst-case query need exceeded
    /// the per-request budget.
    rejected_oversize: Arc<Counter>,
    /// Tables admitted through [`AnnotationService::submit_stream`].
    stream_tables: Arc<Counter>,
    /// Times a blocking submission stalled on a full queue or an empty
    /// query pool — each one is backpressure applied to a source
    /// instead of a shed table.
    backpressure_waits: Arc<Counter>,
    /// Live corpus updates published while serving (each one swapped
    /// the search backend and invalidated the query memo).
    corpus_refreshes: Arc<Counter>,
    /// The node's observability surface: counters, stage histograms,
    /// the trace ring, exposition. A no-op registry when telemetry is
    /// off (its counters still count).
    obs: Arc<Registry>,
    /// Stage histograms cached at start so the completion path records
    /// with one atomic increment — never the registry's lookup lock.
    hist_request: Arc<Histogram>,
    hist_queue_wait: Arc<Histogram>,
    hist_annotate: Arc<Histogram>,
    /// Accepted-but-unfinished requests: ticket → submit instant.
    /// Tickets are monotonic, so the first entry is the oldest request
    /// still in flight — [`ServiceStats::inflight_oldest_ms`] reads it,
    /// which is how a wedged worker shows up in stats *while* it is
    /// wedged instead of only after its latency lands.
    inflight: Mutex<BTreeMap<u64, Instant>>,
    next_ticket: AtomicU64,
}

impl Shared {
    /// Registers an accepted submission in the in-flight map. Poisoning
    /// is recovered, not propagated: entries are independent
    /// `(ticket, Instant)` pairs with no cross-entry invariant.
    fn note_inflight(&self, ticket: u64) {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(ticket, Instant::now());
    }

    /// Retires a submission from the in-flight map (completion, panic,
    /// or an enqueue that failed after registering).
    fn clear_inflight(&self, ticket: u64) {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&ticket);
    }
}

/// The long-running annotation service: a bounded submission queue in
/// front of a worker pool driving one shared [`BatchAnnotator`].
pub struct AnnotationService {
    shared: Arc<Shared>,
    /// `None` after shutdown began (closes the queue).
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    config: ServiceConfig,
    /// Set by [`start_live`](Self::start_live): the updatable corpus
    /// behind the engine, driving `add_pages`/`remove_pages`.
    live: Option<Arc<crate::live::LiveCorpus>>,
}

impl AnnotationService {
    /// Starts the worker pool over `annotator`. When `config.cache` is
    /// set, the annotator's query cache is replaced with the bounded
    /// configuration first; likewise `config.geo_memo_capacity` bounds
    /// the address memo.
    pub fn start(annotator: BatchAnnotator, mut config: ServiceConfig) -> Self {
        let annotator = match config.cache {
            Some(cache) => annotator.with_cache_config(cache),
            None => annotator,
        };
        let annotator = match config.geo_memo_capacity {
            Some(capacity) => annotator.with_geo_memo_capacity(capacity),
            None => annotator,
        };
        // Warm start: restore the persisted query memo, TTL clocks
        // rebased. A missing snapshot is a cold start; *any* damage
        // (bad magic, wrong version, failed CRC, truncation) degrades
        // to a cold cache — restore can turn misses into hits, never a
        // start into a crash. Stale `.tmp` crash leftovers are swept
        // first so an interrupted snapshot cannot linger forever.
        let restored = match &config.store_dir {
            Some(dir) => {
                let _ = teda_store::clean_stale_tmps(dir);
                match teda_store::load_cache_snapshot(&dir.join(teda_store::CACHE_FILE)) {
                    Ok(entries) => annotator.cache().restore_entries(entries) as u64,
                    Err(_) => 0,
                }
            }
            None => 0,
        };
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        // Write the resolution back so `config()` reports the true pool
        // size rather than the `0 = auto` sentinel.
        config.workers = workers;
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let obs = if config.telemetry {
            Registry::new("service")
        } else {
            Registry::noop("service")
        };
        // Query-cache entries restored from the store (warm start); 0
        // when no store is configured or the snapshot was damaged.
        obs.counter("restored_cache_entries").add(restored);
        // A cluster router's counters, zero until
        // `attach_cluster_telemetry` registers the router's own.
        for name in ["shard_fanouts", "partial_results", "replica_retries"] {
            obs.counter(name);
        }
        let shared = Arc::new(Shared {
            annotator,
            admission: Admission::new(
                config.query_pool,
                config.fair_quantum,
                config.max_tracked_clients,
            ),
            submitted: obs.counter("submitted"),
            completed: obs.counter("completed"),
            failed: obs.counter("failed"),
            shed_queue: obs.counter("shed_queue"),
            shed_budget: obs.counter("shed_budget"),
            rejected_oversize: obs.counter("rejected_oversize"),
            stream_tables: obs.counter("stream_tables"),
            backpressure_waits: obs.counter("backpressure_waits"),
            corpus_refreshes: obs.counter("corpus_refreshes"),
            hist_request: obs.histogram(stage::REQUEST),
            hist_queue_wait: obs.histogram(stage::QUEUE_WAIT),
            hist_annotate: obs.histogram(stage::ANNOTATE),
            obs,
            inflight: Mutex::new(BTreeMap::new()),
            next_ticket: AtomicU64::new(1),
        });
        // The engine's query cache reports into the same registry:
        // `cache_lookup` for memoized answers, `search` for the leader
        // engine calls behind misses, and its `cache.*` counters; the
        // geocoding memo adds its `geocode.*` counters and the
        // snippet-class memo its `classify.*` counters.
        shared.annotator.cache().attach_obs(&shared.obs);
        shared.annotator.geo_memo().attach_obs(&shared.obs);
        shared.annotator.class_memo().attach_obs(&shared.obs);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("teda-service-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn service worker")
            })
            .collect();
        AnnotationService {
            shared,
            tx: Some(tx),
            workers: handles,
            config,
            live: None,
        }
    }

    /// Registers the counters of a cluster router fronting this
    /// service — its registry, `ClusterRouter::telemetry` — on this
    /// node, so scatter-gather accounting (`shard_fanouts`,
    /// `partial_results`, `replica_retries`) appears in
    /// [`stats`](Self::stats) and on the `STATS` and `METRICS` wire
    /// verbs. A later attach replaces an earlier router's counters.
    pub fn attach_cluster_telemetry(&self, router: Arc<Registry>) {
        for (name, _) in router.counters() {
            self.shared
                .obs
                .register_counter(name, &router.counter(name));
        }
    }

    /// Starts the service over a [`LiveCorpus`](crate::live::LiveCorpus):
    /// same scheduler, plus [`add_pages`](Self::add_pages) /
    /// [`remove_pages`](Self::remove_pages) publishing corpus updates
    /// to the running engine. The caller builds `annotator` over the
    /// live corpus's backend (e.g.
    /// `BingSim::instant(live.backend())`) so searches follow every
    /// swap; this constructor cannot enforce that wiring, only the
    /// update half.
    pub fn start_live(
        annotator: BatchAnnotator,
        config: ServiceConfig,
        live: Arc<crate::live::LiveCorpus>,
    ) -> Self {
        let mut service = Self::start(annotator, config);
        live.attach_obs(&service.shared.obs);
        service.live = Some(live);
        service
    }

    /// The live corpus, when started with one.
    pub fn live_corpus(&self) -> Option<&Arc<crate::live::LiveCorpus>> {
        self.live.as_ref()
    }

    /// Adds `pages` to the live corpus: journaled to the store,
    /// searchable by the very next query, no restart. The query memo
    /// is cleared — memoized results describe the pre-update corpus,
    /// and a restore/hit must never resurrect them.
    /// [`StoreError::NotConfigured`](teda_store::StoreError::NotConfigured)
    /// without a live corpus.
    pub fn add_pages(
        &self,
        pages: Vec<teda_websim::WebPage>,
    ) -> Result<teda_store::CompactionReport, teda_store::StoreError> {
        let live = self
            .live
            .as_ref()
            .ok_or(teda_store::StoreError::NotConfigured)?;
        let report = live.add_pages(pages)?;
        self.shared.annotator.cache().clear();
        self.shared.corpus_refreshes.inc();
        Ok(report)
    }

    /// Removes every live page whose URL is listed, with the same
    /// publication and memo-invalidation semantics as
    /// [`add_pages`](Self::add_pages).
    pub fn remove_pages(
        &self,
        urls: Vec<String>,
    ) -> Result<teda_store::CompactionReport, teda_store::StoreError> {
        let live = self
            .live
            .as_ref()
            .ok_or(teda_store::StoreError::NotConfigured)?;
        let report = live.remove_pages(urls)?;
        self.shared.annotator.cache().clear();
        self.shared.corpus_refreshes.inc();
        Ok(report)
    }

    /// The effective configuration (workers resolved at start).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The underlying batch annotator (cache inspection, configuration).
    pub fn annotator(&self) -> &BatchAnnotator {
        &self.shared.annotator
    }

    /// The node's observability registry — stage histograms, completed
    /// traces, and the `METRICS`/`TRACE-DUMP`/`STATS JSON` exposition
    /// backends. A no-op registry when the service runs with
    /// `telemetry: false`.
    pub fn obs(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.obs)
    }

    /// Submits one table for annotation — the service's one way in.
    ///
    /// A bare `Arc<Table>` converts into an anonymous, shedding request
    /// under a freshly minted `"request"` trace; spell out a
    /// [`SubmitRequest`] to name the client, bring a trace, or block.
    /// The table rides behind an `Arc`, so a rejection costs nothing and
    /// callers keep their copy.
    ///
    /// Admission runs in a fixed order:
    ///
    /// 1. a table whose worst-case query need (its cell count) exceeds
    ///    `max_queries_per_request` is [`Rejection::RequestTooLarge`] in
    ///    either mode — it could never be admitted;
    /// 2. the need is reserved from the client's token bucket and the
    ///    shared pool. [`Wait::Shed`] fails fast with
    ///    [`Rejection::BudgetExhausted`]; [`Wait::Block`] *parks* the
    ///    caller (condvar under the admission mutex, no polling) until
    ///    completions refund their unused reservation or
    ///    [`add_budget`](Self::add_budget) refills the allowance. Refills
    ///    reach waiting clients by deficit round-robin, so concurrent
    ///    bulk callers cannot starve this one. On a permanently dry pool
    ///    a blocked caller waits indefinitely, unless its cancel flag is
    ///    raised and [`wake_blocked_submitters`](Self::wake_blocked_submitters)
    ///    is called — then it returns [`Rejection::Cancelled`];
    /// 3. the job is queued. A full queue sheds with
    ///    [`Rejection::QueueFull`] under [`Wait::Shed`] and stalls the
    ///    caller under [`Wait::Block`] — the backpressure
    ///    [`submit_stream`](Self::submit_stream) relies on. A service
    ///    that is shutting down rejects with [`Rejection::ShuttingDown`]
    ///    in either mode.
    pub fn submit<'a>(
        &self,
        request: impl Into<SubmitRequest<'a>>,
    ) -> Result<RequestHandle, Rejection> {
        let SubmitRequest {
            table,
            client,
            trace,
            wait,
        } = request.into();
        let trace = match (trace, self.shared.obs.is_enabled()) {
            (Some(ctx), _) => JobTrace::Given(ctx),
            (None, true) => JobTrace::Minted {
                id: self.shared.obs.reserve_trace_id(),
                origin: Instant::now(),
            },
            (None, false) => JobTrace::Off,
        };
        self.shared.submitted.inc();
        let need = (table.n_rows() * table.n_cols()) as u64;

        if let Some(budget) = self.config.max_queries_per_request {
            if need > budget {
                self.shared.rejected_oversize.inc();
                self.shared.admission.note_rejected(&client);
                return Err(Rejection::RequestTooLarge { need, budget });
            }
        }
        // Both reservations count the attempt (and a shed, stall or
        // cancellation) against the client in the same critical section.
        let blocking = match wait {
            Wait::Shed => {
                if !self.shared.admission.try_reserve(&client, need) {
                    self.shared.shed_budget.inc();
                    return Err(Rejection::BudgetExhausted);
                }
                false
            }
            Wait::Block(cancel) => {
                let stalled = self
                    .shared
                    .admission
                    .reserve_blocking(&client, need, cancel)
                    .map_err(|Cancelled| Rejection::Cancelled)?;
                if stalled {
                    self.shared.backpressure_waits.inc();
                }
                true
            }
        };

        self.enqueue(&client, table, need, blocking, trace)
    }

    /// Wakes every submitter parked on a dry pool. Harmless for
    /// [`Wait::Block(None)`](Wait::Block) waiters (a spurious wake-up:
    /// they re-check the pool and re-park); a waiter whose cancel flag
    /// is raised aborts with [`Rejection::Cancelled`].
    pub fn wake_blocked_submitters(&self) {
        self.shared.admission.kick();
    }

    /// The tail of [`submit`](Self::submit): hand the reserved job to
    /// the worker queue, shedding (non-blocking) or stalling (blocking)
    /// when it is full.
    fn enqueue(
        &self,
        client: &ClientId,
        table: Arc<Table>,
        need: u64,
        blocking: bool,
        trace: JobTrace,
    ) -> Result<RequestHandle, Rejection> {
        let Some(tx) = &self.tx else {
            self.refund(need);
            self.shared.admission.note_shed(client);
            return Err(Rejection::ShuttingDown);
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let ticket = self.shared.next_ticket.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            table,
            client: client.clone(),
            enqueued: Instant::now(),
            reserved: need,
            reply: reply_tx,
            ticket,
            trace,
        };
        // Register before the handoff: a request is "in flight" from
        // the moment it is accepted, and the worker that retires the
        // ticket cannot outrun an insert that happens first. Every
        // failed handoff below deregisters.
        self.shared.note_inflight(ticket);
        match tx.try_send(job) {
            Ok(()) => Ok(RequestHandle { reply: reply_rx }),
            Err(TrySendError::Full(job)) if blocking => {
                // Queue full: block until a worker frees a slot. The
                // stall is what throttles a streaming source.
                self.shared.backpressure_waits.inc();
                match tx.send(job) {
                    Ok(()) => Ok(RequestHandle { reply: reply_rx }),
                    Err(_) => {
                        self.shared.clear_inflight(ticket);
                        self.refund(need);
                        self.shared.admission.note_shed(client);
                        Err(Rejection::ShuttingDown)
                    }
                }
            }
            Err(TrySendError::Full(_)) => {
                self.shared.clear_inflight(ticket);
                self.refund(need);
                self.shared.shed_queue.inc();
                self.shared.admission.note_shed(client);
                Err(Rejection::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.shared.clear_inflight(ticket);
                self.refund(need);
                self.shared.admission.note_shed(client);
                Err(Rejection::ShuttingDown)
            }
        }
    }

    /// Annotates an entire [`TableSource`] through the service as
    /// `client`: tables are admitted one at a time as the source yields
    /// them (per-table metering against the client's token bucket, same
    /// budgets as [`submit`](Self::submit)), at most `max_in_flight`
    /// requests are outstanding, and results reach the sink **in stream
    /// order**, bit-identical to the offline batch path.
    ///
    /// Each table goes through [`submit`](Self::submit) with
    /// [`Wait::Block`]: when the queue or the pool is full the *source
    /// stops being pulled* — backpressure propagates into the parser or
    /// feed — instead of shedding whole corpora the way a shedding
    /// `submit` loop would. Per-table failures (source errors, oversized
    /// tables, worker panics) occupy their stream position as sink
    /// errors; the stream continues.
    pub fn submit_stream<S, K>(
        &self,
        client: &ClientId,
        mut source: S,
        sink: &mut K,
        max_in_flight: usize,
    ) -> StreamSummary
    where
        S: TableSource,
        S::Item: IntoArcTable,
        K: AnnotationSink<Arc<Table>>,
    {
        let window = max_in_flight.max(1);
        let mut pending: VecDeque<PendingStream> = VecDeque::with_capacity(window);
        let mut emitted = 0usize;
        let mut summary = StreamSummary::default();

        loop {
            // The window is full: settle the oldest request before
            // pulling (and admitting) anything more.
            while pending.len() >= window {
                let next = pending.pop_front().expect("window non-empty");
                deliver_stream(sink, emitted, next, &mut summary);
                emitted += 1;
            }
            // Before (potentially) blocking on the source again, flush
            // every front entry that is already resolved — a slow or
            // idle source must not withhold finished results from the
            // sink.
            loop {
                // Poll the front without popping: try_wait consumes the
                // reply, so a ready outcome must be delivered now.
                let ready = match pending.front() {
                    None => break,
                    Some(PendingStream::Failed(_)) => None,
                    Some(PendingStream::Running(_, handle)) => match handle.try_wait() {
                        Some(outcome) => Some(outcome),
                        None => break, // oldest still running: stop here
                    },
                };
                let entry = pending.pop_front().expect("front checked above");
                match (entry, ready) {
                    (PendingStream::Running(table, _), Some(outcome)) => {
                        deliver_outcome(sink, emitted, table, outcome, &mut summary);
                    }
                    (entry @ PendingStream::Failed(_), _) => {
                        deliver_stream(sink, emitted, entry, &mut summary);
                    }
                    (PendingStream::Running(..), None) => unreachable!("broke above"),
                }
                emitted += 1;
            }
            let Some(item) = source.next_table() else {
                break;
            };
            let entry = match item {
                Ok(item) => {
                    let table = item.into_arc_table();
                    match self.submit(SubmitRequest {
                        client: client.clone(),
                        wait: Wait::Block(None),
                        ..Arc::clone(&table).into()
                    }) {
                        Ok(handle) => {
                            self.shared.stream_tables.inc();
                            PendingStream::Running(table, handle)
                        }
                        Err(rejection) => PendingStream::Failed(SourceError::msg(format!(
                            "table rejected: {rejection}"
                        ))),
                    }
                }
                Err(error) => PendingStream::Failed(error),
            };
            pending.push_back(entry);
            summary.peak_in_flight = summary.peak_in_flight.max(pending.len());
        }
        while let Some(next) = pending.pop_front() {
            deliver_stream(sink, emitted, next, &mut summary);
            emitted += 1;
        }
        summary
    }

    /// Returns `n` reserved queries to the pool (no-op when unmetered).
    fn refund(&self, n: u64) {
        self.shared.admission.refund(n);
    }

    /// Tops the query pool up by `n` (the daily-allowance refill). No-op
    /// when the service runs unmetered.
    pub fn add_budget(&self, n: u64) {
        self.refund(n);
    }

    /// Queries currently reservable, if metered: the shared pool plus
    /// the tokens parked in client buckets.
    pub fn remaining_budget(&self) -> Option<u64> {
        self.shared.admission.remaining()
    }

    /// Persists the current query-cache contents to
    /// `<store_dir>/cache.snap` (atomic temp-file + rename), returning
    /// how many entries the snapshot holds. In-flight searches are
    /// skipped; entry ages ride along so the next start rebases their
    /// TTL clocks. Errors are typed: [`teda_store::StoreError::NotConfigured`]
    /// when the service runs without a `store_dir`, I/O failures
    /// otherwise — this is also the wire `SNAPSHOT` verb's backend.
    pub fn snapshot_now(&self) -> Result<usize, teda_store::StoreError> {
        let hist = self.shared.obs.histogram(stage::SNAPSHOT);
        let _timer = StageTimer::start(&hist);
        let Some(dir) = &self.config.store_dir else {
            return Err(teda_store::StoreError::NotConfigured);
        };
        std::fs::create_dir_all(dir).map_err(|e| teda_store::StoreError::io(dir, e))?;
        let entries = self.shared.annotator.cache().export_entries();
        teda_store::save_cache_snapshot(&dir.join(teda_store::CACHE_FILE), &entries)?;
        Ok(entries.len())
    }

    /// A point-in-time report of the service counters. Latency
    /// percentiles come from the request-stage histogram — all
    /// completions since start, each value reported as its log-bucket
    /// upper bound (within 2× of exact; see `teda-obs`). All-zero when
    /// the service runs with `telemetry: false`.
    pub fn stats(&self) -> ServiceStats {
        let request = self.shared.hist_request.snapshot();
        let latency = LatencySummary {
            p50: Duration::from_micros(request.quantile(0.50)),
            p99: Duration::from_micros(request.quantile(0.99)),
            max: Duration::from_micros(request.max_bound()),
        };
        // Copy the oldest submit instant out and compute its age
        // outside the lock, so stats polling holds it for two reads. A
        // poisoned map (panic mid-insert) is recovered: worst case one
        // stale ticket.
        let (inflight, oldest_started) = {
            let map = self
                .shared
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (map.len() as u64, map.values().next().copied())
        };
        let inflight_oldest_ms = oldest_started
            .map(|t0| t0.elapsed().as_millis() as u64)
            .unwrap_or(0);
        let stages = self
            .shared
            .obs
            .snapshots()
            .into_iter()
            .map(|(stage, snap)| StageStats {
                count: snap.count(),
                p50_us: snap.quantile(0.50),
                p99_us: snap.quantile(0.99),
                max_us: snap.max_bound(),
                stage,
            })
            .collect();
        let map_stats = self
            .live
            .as_ref()
            .and_then(|live| live.map_stats())
            .unwrap_or_default();
        ServiceStats {
            counters: self.shared.obs.counters(),
            mapped_bytes: map_stats.mapped_bytes,
            resident_bytes: map_stats.resident_bytes,
            page_hydrations: map_stats.hydrations,
            inflight,
            inflight_oldest_ms,
            latency,
            stages,
            clients: self.shared.admission.client_stats(),
        }
    }

    /// Stops accepting work, drains the queue, joins the workers,
    /// persists the query-cache snapshot (when a `store_dir` is
    /// configured — the graceful-shutdown warm handoff to the next
    /// process) and returns the final report. A failed snapshot write
    /// never blocks shutdown: the next start simply comes up cold.
    pub fn shutdown(mut self) -> ServiceStats {
        self.tx = None; // closes the queue; workers exit after draining
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let _ = self.snapshot_now();
        self.stats()
    }
}

impl Drop for AnnotationService {
    fn drop(&mut self) {
        self.tx = None;
        // A non-empty worker list means `shutdown` never ran: this drop
        // owns the teardown, including the warm-handoff snapshot. After
        // `shutdown` the list is already drained and the snapshot
        // already written — repeating the full-cache export and fsync
        // here would double the shutdown I/O for nothing.
        let owns_teardown = !self.workers.is_empty();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if owns_teardown && self.config.store_dir.is_some() {
            let _ = self.snapshot_now();
        }
    }
}

/// One outstanding stream position: an admitted request (plus the table
/// for the sink) or an already-known failure holding the slot.
enum PendingStream {
    Running(Arc<Table>, RequestHandle),
    Failed(SourceError),
}

/// Settles one stream position into the sink, waiting if the request is
/// still running.
fn deliver_stream<K: AnnotationSink<Arc<Table>>>(
    sink: &mut K,
    index: usize,
    entry: PendingStream,
    summary: &mut StreamSummary,
) {
    match entry {
        PendingStream::Running(table, handle) => {
            let outcome = handle.wait();
            deliver_outcome(sink, index, table, outcome, summary);
        }
        PendingStream::Failed(error) => {
            summary.errors += 1;
            sink.on_error(index, error);
        }
    }
}

/// Settles an already-resolved request outcome into the sink.
fn deliver_outcome<K: AnnotationSink<Arc<Table>>>(
    sink: &mut K,
    index: usize,
    table: Arc<Table>,
    outcome: Result<RequestOutcome, RequestFailed>,
    summary: &mut StreamSummary,
) {
    match outcome {
        Ok(outcome) => {
            summary.annotated += 1;
            sink.on_annotated(AnnotatedTable {
                index,
                table,
                annotations: outcome.annotations,
            });
        }
        Err(RequestFailed) => {
            summary.errors += 1;
            sink.on_error(
                index,
                SourceError::msg("annotation worker failed (engine panic)"),
            );
        }
    }
}

/// One worker: pull jobs until the queue closes.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the receiver lock only for the handoff; annotation runs
        // unlocked so workers process jobs concurrently. A poisoned
        // receiver lock is recovered: `recv` owns no partial state, so
        // a sibling's panic must not starve the queue.
        let job = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        let Ok(job) = job else { break };
        // Two clock reads per request, taken with telemetry on or off:
        // they give the queue wait and the latency the caller is told,
        // and every span and stage timing is placed from them. Both are
        // read whether the engine returns or unwinds.
        let dequeued = Instant::now();
        let queue_wait = dequeued.saturating_duration_since(job.enqueued);
        shared.hist_queue_wait.record(queue_wait.as_micros() as u64);
        let trace = match job.trace {
            JobTrace::Given(ctx) => ctx,
            JobTrace::Minted { id, origin } => shared.obs.trace_from(id, "request", origin),
            JobTrace::Off => TraceCtx::disabled(),
        };
        let started_us = trace.offset_us(dequeued);
        trace.add_span(stage::QUEUE_WAIT, trace.offset_us(job.enqueued), started_us);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.annotator.annotate_table(&job.table)
        }));
        let done = Instant::now();
        shared
            .hist_annotate
            .record(done.saturating_duration_since(dequeued).as_micros() as u64);
        trace.add_span(stage::ANNOTATE, started_us, trace.offset_us(done));
        match outcome {
            Ok(annotations) => {
                // Return the unused share of the worst-case reservation:
                // the true query need is the candidate-cell count.
                shared.admission.on_complete(
                    &job.client,
                    job.reserved
                        .saturating_sub(annotations.queried_cells as u64),
                );
                let latency = done.saturating_duration_since(job.enqueued);
                shared.completed.inc();
                shared.hist_request.record(latency.as_micros() as u64);
                shared.clear_inflight(job.ticket);
                trace.finish_at(done);
                let _ = job.reply.try_send(Ok(RequestOutcome {
                    annotations,
                    latency,
                    queue_wait,
                }));
            }
            Err(_) => {
                // The engine unwound mid-request: the reservation is not
                // refunded (true usage unknown), the caller is told.
                shared.failed.inc();
                shared.admission.on_failed(&job.client);
                shared.clear_inflight(job.ticket);
                trace.finish_at(done);
                let _ = job.reply.try_send(Err(RequestFailed));
            }
        }
    }
}

// Compile-time proof the service handle can be shared across submitter
// threads (open-loop load generators).
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<AnnotationService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use teda_classifier::naive_bayes::NaiveBayesConfig;
    use teda_classifier::{Dataset, NaiveBayes};
    use teda_core::config::AnnotatorConfig;
    use teda_core::model::{AnyModel, SnippetClassifier, TypeLabels};
    use teda_kb::EntityType;
    use teda_tabular::ColumnType;
    use teda_text::FeatureExtractor;
    use teda_websim::{SearchEngine, SearchResult};

    /// Engine: restaurant snippets for known names; optionally slow;
    /// panics on a trigger substring (worker-panic regression tests).
    struct Scripted {
        delay: Duration,
        panic_on: Option<&'static str>,
    }

    impl SearchEngine for Scripted {
        fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            if let Some(trigger) = self.panic_on {
                assert!(
                    !query.contains(trigger),
                    "scripted engine panic on {trigger:?}"
                );
            }
            let q = query.to_lowercase();
            if !(q.contains("melisse") || q.contains("bayona")) {
                return Vec::new();
            }
            (0..k)
                .map(|i| SearchResult {
                    url: format!("http://scripted/{i}"),
                    title: "t".into(),
                    snippet: "menu cuisine dining chef tasting".into(),
                })
                .collect()
        }
    }

    fn classifier() -> SnippetClassifier {
        let mut fx = FeatureExtractor::new();
        let rest = fx.fit_transform("menu cuisine dining chef tasting");
        let other = fx.fit_transform("random generic website words");
        let mut data = Dataset::new(2, fx.dim());
        for _ in 0..8 {
            data.push(rest.clone(), 0);
            data.push(other.clone(), 1);
        }
        let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
        SnippetClassifier::new(
            fx,
            AnyModel::Bayes(nb),
            TypeLabels::with_other(vec![EntityType::Restaurant]),
        )
    }

    fn annotator(delay: Duration) -> BatchAnnotator {
        annotator_panicking(delay, None)
    }

    fn annotator_panicking(delay: Duration, panic_on: Option<&'static str>) -> BatchAnnotator {
        BatchAnnotator::new(
            Arc::new(Scripted { delay, panic_on }),
            classifier(),
            AnnotatorConfig {
                targets: vec![EntityType::Restaurant],
                ..AnnotatorConfig::default()
            },
        )
    }

    fn restaurant_table(tag: &str) -> Arc<Table> {
        Arc::new(
            Table::builder(2)
                .column_type(1, ColumnType::Location)
                .row(vec!["Melisse", &format!("1104 Wilshire Blvd {tag}")])
                .unwrap()
                .row(vec!["Bayona", "430 Dauphine St"])
                .unwrap()
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn service_results_match_direct_annotation() {
        let direct = annotator(Duration::ZERO);
        let table = restaurant_table("a");
        let reference = direct.annotate_table(&table);

        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let outcome = service
            .submit(Arc::clone(&table))
            .expect("queue has room")
            .wait()
            .expect("request completes");
        assert_eq!(outcome.annotations, reference, "service changed a result");
        assert!(outcome.latency >= outcome.queue_wait);
        let stats = service.shutdown();
        assert_eq!(stats.counter("submitted"), 1);
        assert_eq!(stats.counter("completed"), 1);
        assert_eq!(stats.shed(), 0);
    }

    #[test]
    fn full_queue_sheds_with_queue_full() {
        // One slow worker, queue depth 1: a burst must shed.
        let service = AnnotationService::start(
            annotator(Duration::from_millis(60)),
            ServiceConfig {
                workers: 1,
                queue_depth: 1,
                ..ServiceConfig::default()
            },
        );
        let mut accepted = Vec::new();
        let mut shed = 0u64;
        for i in 0..12 {
            match service.submit(restaurant_table(&i.to_string())) {
                Ok(handle) => accepted.push(handle),
                Err(Rejection::QueueFull) => shed += 1,
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert!(shed > 0, "burst into a depth-1 queue must shed");
        for handle in accepted {
            handle.wait().expect("accepted requests complete");
        }
        let stats = service.shutdown();
        assert_eq!(stats.counter("shed_queue"), shed);
        assert_eq!(stats.counter("completed") + stats.counter("shed_queue"), 12);
        assert!(stats.shed_rate() > 0.0);
    }

    #[test]
    fn oversized_requests_are_rejected_up_front() {
        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                max_queries_per_request: Some(3),
                ..ServiceConfig::default()
            },
        );
        // 2×2 table: worst case 4 queries > budget 3.
        let err = service.submit(restaurant_table("big")).unwrap_err();
        assert_eq!(
            err,
            Rejection::RequestTooLarge { need: 4, budget: 3 },
            "{err}"
        );
        let stats = service.shutdown();
        assert_eq!(stats.counter("rejected_oversize"), 1);
        assert_eq!(stats.counter("completed"), 0);
    }

    #[test]
    fn query_pool_sheds_and_refunds() {
        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                query_pool: Some(5),
                ..ServiceConfig::default()
            },
        );
        // 4 cells reserved from a pool of 5 — a second concurrent
        // submission cannot fit.
        let first = service.submit(restaurant_table("a")).expect("fits");
        let second = service.submit(restaurant_table("b"));
        let outcome = first.wait().expect("completes");
        match second {
            Ok(handle) => {
                // The first request may already have completed (and
                // refunded) before the second submission — then it fits.
                handle.wait().expect("completes");
            }
            Err(rej) => assert_eq!(rej, Rejection::BudgetExhausted),
        }
        // After completion the unused reservation came back: 2 of the 4
        // cells are Location-column cells that never query.
        assert_eq!(outcome.annotations.queried_cells, 2);
        let remaining = service.remaining_budget().expect("metered");
        assert!(
            remaining >= 1,
            "unused worst-case reservation must be refunded, got {remaining}"
        );
        service.add_budget(10);
        assert!(service.remaining_budget().unwrap() >= 11);
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let service = AnnotationService::start(
            annotator(Duration::from_millis(20)),
            ServiceConfig {
                workers: 2,
                queue_depth: 16,
                ..ServiceConfig::default()
            },
        );
        let handles: Vec<RequestHandle> = (0..6)
            .map(|i| service.submit(restaurant_table(&i.to_string())).unwrap())
            .collect();
        let stats = service.shutdown();
        assert_eq!(
            stats.counter("completed"),
            6,
            "queued work drains before exit"
        );
        for handle in handles {
            handle.wait().expect("drained requests still answer");
        }
        assert!(stats.latency.p99 >= stats.latency.p50);
    }

    #[test]
    fn submit_stream_matches_offline_and_preserves_order() {
        use teda_core::stream::VecSource;

        let tables: Vec<Table> = (0..8)
            .map(|i| Arc::try_unwrap(restaurant_table(&i.to_string())).unwrap())
            .collect();
        let reference: Vec<TableAnnotations> = annotator(Duration::ZERO).annotate_corpus(&tables);

        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 3,
                ..ServiceConfig::default()
            },
        );
        let mut sink = teda_core::stream::Collect::new();
        let summary =
            service.submit_stream(&ClientId::ANONYMOUS, VecSource::new(tables), &mut sink, 3);
        assert_eq!(summary.annotated, 8);
        assert_eq!(summary.errors, 0);
        assert!(summary.peak_in_flight <= 3);
        let results = sink.into_annotations().expect("no errors");
        assert_eq!(results, reference, "streamed service diverged from batch");
        let stats = service.shutdown();
        assert_eq!(stats.counter("stream_tables"), 8);
        assert_eq!(stats.shed(), 0, "streaming must not shed");
    }

    #[test]
    fn submit_stream_applies_backpressure_instead_of_shedding() {
        use teda_core::stream::VecSource;

        // Depth-1 queue, one slow worker: a 10-table stream overwhelms
        // the queue immediately. submit() would shed most of the burst;
        // submit_stream must block the source and complete everything.
        let service = AnnotationService::start(
            annotator(Duration::from_millis(15)),
            ServiceConfig {
                workers: 1,
                queue_depth: 1,
                ..ServiceConfig::default()
            },
        );
        let tables: Vec<Table> = (0..10)
            .map(|i| Arc::try_unwrap(restaurant_table(&i.to_string())).unwrap())
            .collect();
        let mut sink = teda_core::stream::Collect::new();
        let summary =
            service.submit_stream(&ClientId::ANONYMOUS, VecSource::new(tables), &mut sink, 4);
        assert_eq!(summary.annotated, 10, "backpressure must not drop tables");
        assert_eq!(summary.errors, 0);
        let stats = service.shutdown();
        assert_eq!(stats.shed(), 0, "blocking admission never sheds");
        assert_eq!(stats.counter("completed"), 10);
        assert!(
            stats.counter("backpressure_waits") > 0,
            "a depth-1 queue under a 10-table stream must stall the source"
        );
    }

    #[test]
    fn submit_stream_waits_out_an_exhausted_pool() {
        use std::sync::atomic::AtomicBool;
        use teda_core::stream::VecSource;

        // Pool covers exactly one 4-cell table at a time; each completed
        // table permanently consumes its queried cells, so a long stream
        // outlives the initial allowance and must pause until the
        // periodic refill (the paper's daily allowance) tops it up —
        // pause, not shed.
        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                query_pool: Some(4),
                ..ServiceConfig::default()
            },
        );
        let tables: Vec<Table> = (0..5)
            .map(|i| Arc::try_unwrap(restaurant_table(&i.to_string())).unwrap())
            .collect();
        let done = AtomicBool::new(false);
        let summary = std::thread::scope(|s| {
            s.spawn(|| {
                // The refill loop standing in for the daily allowance.
                while !done.load(Ordering::Relaxed) {
                    service.add_budget(2);
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
            let mut sink = teda_core::stream::Collect::new();
            let summary =
                service.submit_stream(&ClientId::ANONYMOUS, VecSource::new(tables), &mut sink, 2);
            done.store(true, Ordering::Relaxed);
            assert_eq!(sink.into_annotations().unwrap().len(), 5);
            summary
        });
        assert_eq!(summary.annotated, 5, "refills must admit the stream");
        let stats = service.shutdown();
        assert_eq!(
            stats.counter("shed_budget"),
            0,
            "budget pauses, never sheds, here"
        );
    }

    #[test]
    fn oversized_stream_tables_fail_in_place_without_sinking_the_stream() {
        use teda_core::stream::VecSource;

        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                max_queries_per_request: Some(4),
                ..ServiceConfig::default()
            },
        );
        let big = Table::builder(2)
            .column_type(1, ColumnType::Location)
            .row(vec!["Melisse", "a"])
            .unwrap()
            .row(vec!["Bayona", "b"])
            .unwrap()
            .row(vec!["Melisse", "c"])
            .unwrap()
            .build()
            .unwrap();
        let ok = Arc::try_unwrap(restaurant_table("fits")).unwrap();
        let mut sink = teda_core::stream::Collect::new();
        let summary = service.submit_stream(
            &ClientId::ANONYMOUS,
            VecSource::new(vec![ok.clone(), big, ok]),
            &mut sink,
            2,
        );
        assert_eq!(summary.annotated, 2);
        assert_eq!(summary.errors, 1);
        let results = sink.into_results();
        assert!(results[0].is_ok());
        assert!(
            results[1]
                .as_ref()
                .unwrap_err()
                .message()
                .contains("rejected"),
            "oversize rejection surfaces at its stream position"
        );
        assert!(results[2].is_ok(), "stream continues past the rejection");
        service.shutdown();
    }

    #[test]
    fn bounded_cache_config_is_applied() {
        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                cache: Some(CacheConfig {
                    shards: 4,
                    capacity: Some(8),
                    ttl: None,
                }),
                ..ServiceConfig::default()
            },
        );
        assert_eq!(service.annotator().cache().capacity(), Some(8));
        service.shutdown();
    }

    /// Regression (lock-poisoning wedge): a worker that panics
    /// mid-request must not wedge later submissions or stats polls —
    /// the service keeps accepting, completing, and reporting.
    #[test]
    fn service_survives_a_worker_panic_mid_request() {
        let service = AnnotationService::start(
            annotator_panicking(Duration::ZERO, Some("boom")),
            ServiceConfig {
                workers: 2,
                query_pool: Some(1_000),
                ..ServiceConfig::default()
            },
        );
        let bomb = Arc::new(
            Table::builder(2)
                .column_type(1, ColumnType::Location)
                .row(vec!["Melisse boom", "1104 Wilshire Blvd"])
                .unwrap()
                .build()
                .unwrap(),
        );
        let failed = service
            .submit(bomb)
            .expect("the bomb is admitted — it fails in flight")
            .wait();
        assert_eq!(failed, Err(RequestFailed), "panic surfaces to the caller");

        // The pool must still admit, run and answer fresh requests…
        let outcome = service
            .submit(restaurant_table("after"))
            .expect("service still accepts after a worker panic")
            .wait()
            .expect("service still completes after a worker panic");
        assert_eq!(outcome.annotations.queried_cells, 2);
        // …and the stats path must not be wedged either.
        let stats = service.stats();
        assert_eq!(stats.counter("failed"), 1);
        assert_eq!(stats.counter("completed"), 1);
        let final_stats = service.shutdown();
        assert_eq!(final_stats.counter("failed"), 1);
    }

    /// Regression (lock-poisoning wedge, unit level): the latency path
    /// is now a lock-free histogram, so the one mutex left on the
    /// completion path is the in-flight map — poisoning it directly
    /// must not break submissions, completions, or stats.
    #[test]
    fn poisoned_inflight_map_is_recovered() {
        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let shared = Arc::clone(&service.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.inflight.lock().unwrap();
            panic!("poison the in-flight map");
        })
        .join();
        let outcome = service
            .submit(restaurant_table("poisoned"))
            .expect("submission still accepted")
            .wait()
            .expect("completion path recovers the poisoned map");
        assert!(outcome.latency >= outcome.queue_wait);
        let stats = service.stats();
        assert_eq!(stats.counter("completed"), 1);
        assert_eq!(stats.inflight, 0, "completed ticket must be retired");
        assert_eq!(stats.latency.max, stats.latency.p99.max(stats.latency.max));
        service.shutdown();
    }

    /// Regression (satellite: in-flight visibility): a request that is
    /// admitted but not yet complete used to be invisible — its latency
    /// only landed in the summary *after* completion, so a wedged
    /// worker looked healthy. `inflight` / `inflight_oldest_ms` must
    /// expose it while it runs.
    #[test]
    fn stats_expose_inflight_requests_and_their_age() {
        let service = AnnotationService::start(
            annotator(Duration::from_millis(300)),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(service.stats().inflight, 0);
        assert_eq!(service.stats().inflight_oldest_ms, 0);
        let handle = service.submit(restaurant_table("slow")).expect("admitted");
        // Poll until the slow request shows up as in flight with a
        // growing age — well before its 300 ms engine stall completes.
        let t0 = Instant::now();
        let seen = loop {
            let stats = service.stats();
            if stats.inflight == 1 && stats.inflight_oldest_ms >= 50 {
                break stats;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "in-flight request never surfaced in stats: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(
            seen.counter("completed"),
            0,
            "the request must still be running when observed"
        );
        handle.wait().expect("completes");
        let done = service.shutdown();
        assert_eq!(done.counter("completed"), 1);
        assert_eq!(done.inflight, 0);
        assert_eq!(done.inflight_oldest_ms, 0);
        // The tail latency the old summary would have discarded until
        // completion is now in the histogram too.
        assert!(done.latency.max >= Duration::from_millis(300));
    }

    /// Stage histograms ride along in stats: one entry per recorded
    /// stage, quantile bounds ordered, and a disabled-telemetry service
    /// records nothing while returning identical annotations.
    #[test]
    fn stage_histograms_report_and_telemetry_off_is_bit_identical() {
        let table = restaurant_table("obs");
        let on = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let with_telemetry = on.submit(Arc::clone(&table)).unwrap().wait().unwrap();
        let stats = on.stats();
        for name in [stage::REQUEST, stage::QUEUE_WAIT, stage::ANNOTATE] {
            let s = stats
                .stage(name)
                .unwrap_or_else(|| panic!("stage {name} missing from {:?}", stats.stages));
            assert_eq!(s.count, 1);
            assert!(s.p50_us <= s.p99_us && s.p99_us <= s.max_us);
        }
        assert!(on.obs().trace(1).is_some(), "request 1 leaves a trace");
        on.shutdown();

        let off = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                telemetry: false,
                ..ServiceConfig::default()
            },
        );
        let without = off.submit(table).unwrap().wait().unwrap();
        assert_eq!(
            without.annotations, with_telemetry.annotations,
            "telemetry must never change a result bit"
        );
        let dark = off.stats();
        assert!(dark.stages.iter().all(|s| s.count == 0));
        assert_eq!(dark.latency, LatencySummary::default());
        assert!(off.obs().trace_ids().is_empty());
        off.shutdown();
    }

    /// Regression (busy-wait): a submitter blocked on a dry pool parks
    /// on the condvar and `add_budget` genuinely wakes it — promptly,
    /// with no timeout re-poll needed.
    #[test]
    fn dry_pool_waiter_is_woken_by_add_budget() {
        let service = Arc::new(AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                query_pool: Some(0),
                ..ServiceConfig::default()
            },
        ));
        let svc = Arc::clone(&service);
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let outcome = svc
                .submit(SubmitRequest {
                    wait: Wait::Block(None),
                    ..restaurant_table("parked").into()
                })
                .expect("admitted once the refill lands")
                .wait()
                .expect("completes");
            tx.send(outcome).unwrap();
        });
        // The waiter must still be parked on the bone-dry pool…
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "a dry pool must block the submitter"
        );
        // …and a single refill must release it.
        service.add_budget(4);
        let outcome = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("add_budget must wake the parked submitter");
        waiter.join().unwrap();
        assert_eq!(outcome.annotations.queried_cells, 2);
        let stats = service.stats();
        assert!(
            stats.counter("backpressure_waits") >= 1,
            "the stall must be counted as backpressure"
        );
        // 4 reserved, 2 actually queried → 2 refunded.
        assert_eq!(service.remaining_budget(), Some(2));
        Arc::try_unwrap(service)
            .map_err(|_| "service still shared")
            .unwrap()
            .shutdown();
    }

    /// Per-client fairness end to end: a hog streaming big requests
    /// through a refilled pool cannot lock a trickle client out — the
    /// trickle's request is served from the first refill rounds.
    #[test]
    fn trickle_client_is_served_while_a_hog_streams() {
        let hog = ClientId::new("hog");
        let trickle = ClientId::new("trickle");
        let service = Arc::new(AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 2,
                query_pool: Some(0),
                fair_quantum: 4,
                ..ServiceConfig::default()
            },
        ));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        // Hog: back-to-back blocking submissions, each needing 4 tokens.
        let svc = Arc::clone(&service);
        let hog_id = hog.clone();
        let stop_hog = Arc::clone(&stop);
        let hog_thread = std::thread::spawn(move || {
            let mut done = 0u64;
            while !stop_hog.load(Ordering::Relaxed) {
                let h = svc
                    .submit(SubmitRequest {
                        client: hog_id.clone(),
                        wait: Wait::Block(None),
                        ..restaurant_table("hog").into()
                    })
                    .expect("hog admitted");
                let _ = h.wait();
                done += 1;
            }
            done
        });
        // Refill loop: the daily allowance drip.
        let svc = Arc::clone(&service);
        let stop_refill = Arc::clone(&stop);
        let refill_thread = std::thread::spawn(move || {
            while !stop_refill.load(Ordering::Relaxed) {
                svc.add_budget(8);
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        std::thread::sleep(Duration::from_millis(20)); // hog saturates
        let t0 = Instant::now();
        let outcome = service
            .submit(SubmitRequest {
                client: trickle,
                wait: Wait::Block(None),
                ..restaurant_table("trickle").into()
            })
            .expect("trickle admitted")
            .wait()
            .expect("trickle completes");
        let trickle_latency = t0.elapsed();
        assert_eq!(outcome.annotations.queried_cells, 2);
        assert!(
            trickle_latency < Duration::from_secs(2),
            "DRR must serve the trickle promptly, took {trickle_latency:?}"
        );

        stop.store(true, Ordering::Relaxed);
        service.add_budget(64); // release a possibly-parked hog
        let hog_done = hog_thread.join().unwrap();
        refill_thread.join().unwrap();
        assert!(hog_done > 0, "the hog must actually have been streaming");

        let stats = service.stats();
        let hog_stats = stats.client("hog").expect("hog accounted");
        let trickle_stats = stats.client("trickle").expect("trickle accounted");
        assert!(hog_stats.completed >= hog_done);
        assert_eq!(trickle_stats.submitted, 1);
        assert_eq!(trickle_stats.completed, 1);
        assert!(trickle_stats.granted >= 4);
        Arc::try_unwrap(service)
            .map_err(|_| "service still shared")
            .unwrap()
            .shutdown();
    }

    /// A cancellable submission parked on a dry pool aborts promptly
    /// when its flag is raised and the waiters are kicked — the wire
    /// server's shutdown path.
    #[test]
    fn cancel_flag_unparks_a_dry_pool_waiter() {
        use std::sync::atomic::AtomicBool;

        let service = Arc::new(AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                query_pool: Some(0),
                ..ServiceConfig::default()
            },
        ));
        let cancel = Arc::new(AtomicBool::new(false));
        let svc = Arc::clone(&service);
        let flag = Arc::clone(&cancel);
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let outcome = svc.submit(SubmitRequest {
                client: ClientId::new("conn"),
                wait: Wait::Block(Some(&*flag)),
                ..restaurant_table("c").into()
            });
            tx.send(outcome.map(|_| ()).unwrap_err()).unwrap();
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "the dry pool must park the submission first"
        );
        cancel.store(true, Ordering::Relaxed);
        service.wake_blocked_submitters();
        let rejection = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the kick must unpark the cancelled waiter");
        waiter.join().unwrap();
        assert_eq!(rejection, Rejection::Cancelled);
        let stats = service.stats();
        let conn = stats.client("conn").expect("accounted");
        assert_eq!((conn.submitted, conn.shed, conn.waiting), (1, 1, 0));
        Arc::try_unwrap(service)
            .map_err(|_| "service still shared")
            .unwrap()
            .shutdown();
    }

    /// Graceful-shutdown snapshot + startup restore: a second service
    /// over the same store directory starts warm and serves the first
    /// generation's queries straight from the restored memo.
    #[test]
    fn restart_over_a_store_dir_is_warm() {
        let dir = std::env::temp_dir().join(format!("teda_svc_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            workers: 1,
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };

        let service = AnnotationService::start(annotator(Duration::ZERO), config.clone());
        let table = restaurant_table("warm");
        let first = service
            .submit(Arc::clone(&table))
            .unwrap()
            .wait()
            .expect("completes");
        let cold_misses = service.stats().counter("cache.misses");
        assert!(cold_misses > 0, "the first generation must actually search");
        let stats = service.shutdown(); // writes <dir>/cache.snap
        assert_eq!(
            stats.counter("restored_cache_entries"),
            0,
            "generation one was cold"
        );

        let reborn = AnnotationService::start(annotator(Duration::ZERO), config);
        let warm_stats = reborn.stats();
        assert!(
            warm_stats.counter("restored_cache_entries") >= cold_misses,
            "restore must land every persisted entry, got {} of {}",
            warm_stats.counter("restored_cache_entries"),
            cold_misses
        );
        let again = reborn
            .submit(table)
            .unwrap()
            .wait()
            .expect("completes warm");
        assert_eq!(
            again.annotations, first.annotations,
            "a warm start must not change results"
        );
        let final_stats = reborn.shutdown();
        assert_eq!(
            final_stats.counter("cache.misses"),
            0,
            "every query of the rerun must hit the restored memo"
        );
        assert_eq!(final_stats.counter("cache.hits"), cold_misses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `snapshot_now` without a configured store is a typed error, and
    /// a corrupt snapshot degrades the next start to cold, not a crash.
    #[test]
    fn snapshot_errors_are_typed_and_corruption_degrades_to_cold() {
        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(
            service.snapshot_now(),
            Err(teda_store::StoreError::NotConfigured)
        );
        service.shutdown();

        let dir = std::env::temp_dir().join(format!("teda_svc_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(teda_store::CACHE_FILE),
            b"definitely not a snapshot",
        )
        .unwrap();
        // A stale tmp from a crashed writer must be swept at start too.
        let stale = dir.join(format!("{}.tmp", teda_store::CACHE_FILE));
        std::fs::write(&stale, b"torn half-write").unwrap();
        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                store_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            },
        );
        assert_eq!(
            service.stats().counter("restored_cache_entries"),
            0,
            "cold, not dead"
        );
        assert!(!stale.exists(), "stale .tmp leftovers are swept at start");
        let outcome = service
            .submit(restaurant_table("after-corruption"))
            .unwrap()
            .wait()
            .expect("service works despite the rotten snapshot");
        assert_eq!(outcome.annotations.queried_cells, 2);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one entry point, table-driven: every combination of wait
    /// mode, trace and client admits, annotates, accounts and traces the
    /// same way, and an oversized table is rejected up front in either
    /// mode.
    #[test]
    fn submit_is_one_path_for_every_wait_trace_and_client() {
        let reference = annotator(Duration::ZERO).annotate_table(&restaurant_table("x"));
        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                max_queries_per_request: Some(4),
                ..ServiceConfig::default()
            },
        );
        let big = Arc::new(
            Table::builder(2)
                .row(vec!["Melisse", "1104 Wilshire Blvd"])
                .unwrap()
                .row(vec!["Bayona", "430 Dauphine St"])
                .unwrap()
                .row(vec!["Melisse", "12 Main St"])
                .unwrap()
                .build()
                .unwrap(),
        );
        let cancel = AtomicBool::new(false);
        let mut next_trace_id = 0xC0DE_0000_u64;
        for wait in [Wait::Shed, Wait::Block(None), Wait::Block(Some(&cancel))] {
            for client in [ClientId::ANONYMOUS, ClientId::new("named")] {
                for traced in [false, true] {
                    let label = format!("{wait:?} as {client}, traced: {traced}");
                    let trace_id = traced.then(|| {
                        next_trace_id += 1;
                        next_trace_id
                    });
                    let outcome = service
                        .submit(SubmitRequest {
                            table: restaurant_table("x"),
                            client: client.clone(),
                            trace: trace_id.map(|id| service.obs().trace_with_id(id, "request")),
                            wait,
                        })
                        .unwrap_or_else(|r| panic!("{label}: rejected: {r}"))
                        .wait()
                        .unwrap_or_else(|_| panic!("{label}: failed"));
                    assert_eq!(outcome.annotations, reference, "{label}");
                    if let Some(id) = trace_id {
                        let trace = service
                            .obs()
                            .trace(id)
                            .unwrap_or_else(|| panic!("{label}: trace {id:x} not recorded"));
                        for span in [stage::QUEUE_WAIT, stage::ANNOTATE] {
                            assert!(
                                trace.spans.iter().any(|s| s.name == span),
                                "{label}: no {span} span"
                            );
                        }
                    }

                    let oversize_before = service.stats().counter("rejected_oversize");
                    let rejected = service.submit(SubmitRequest {
                        table: Arc::clone(&big),
                        client: client.clone(),
                        trace: None,
                        wait,
                    });
                    assert_eq!(
                        rejected.map(|_| ()).unwrap_err(),
                        Rejection::RequestTooLarge { need: 6, budget: 4 },
                        "{label}"
                    );
                    assert_eq!(
                        service.stats().counter("rejected_oversize"),
                        oversize_before + 1,
                        "{label}: an oversized table is counted once"
                    );
                }
            }
        }
        let stats = service.shutdown();
        assert_eq!(
            (
                stats.counter("submitted"),
                stats.counter("completed"),
                stats.counter("rejected_oversize")
            ),
            (24, 12, 12)
        );
        // Each client ran 6 admitted and 6 oversized submissions.
        for name in ["anonymous", "named"] {
            let client = stats.client(name).expect("accounted");
            assert_eq!(
                (client.submitted, client.completed, client.shed),
                (12, 6, 6),
                "{name}"
            );
        }
    }

    /// Anonymous and named clients are accounted separately.
    #[test]
    fn per_client_counters_split_by_identity() {
        let service = AnnotationService::start(
            annotator(Duration::ZERO),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let ui = ClientId::new("ui");
        service
            .submit(restaurant_table("anon"))
            .unwrap()
            .wait()
            .unwrap();
        for i in 0..2 {
            service
                .submit(SubmitRequest {
                    client: ui.clone(),
                    ..restaurant_table(&format!("ui{i}")).into()
                })
                .unwrap()
                .wait()
                .unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.counter("submitted"), 3);
        assert_eq!(stats.client("anonymous").unwrap().completed, 1);
        let ui_stats = stats.client("ui").unwrap();
        assert_eq!(ui_stats.submitted, 2);
        assert_eq!(ui_stats.completed, 2);
        assert_eq!(ui_stats.shed, 0);
    }
}
