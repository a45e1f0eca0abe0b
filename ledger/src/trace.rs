//! The traced run's instruments. Every stopwatch sits in this package,
//! around public calls into the program:
//!
//! * [`TimedBackend`] — a timing decorator between the engine and the
//!   search backend (phase a);
//! * [`Scrape`] — `STATS JSON` and `METRICS` read over the wire, the
//!   same exposition an operator scrapes (phase a);
//! * [`submit_loop`] — the stream through `AnnotationService::submit`,
//!   whose outcomes carry exact latency and queue wait (phase b);
//! * [`Replayer`] — a single-thread replay of the per-request pipeline
//!   with a stopwatch around each step, checked bit-identical to
//!   `BatchAnnotator::annotate_table` (phase c).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use teda_core::annotate::{build_cell_query, CellAnnotation};
use teda_core::cache::{CacheConfig, QueryCache};
use teda_core::config::AnnotatorConfig;
use teda_core::model::SnippetClassifier;
use teda_core::pipeline::TableAnnotations;
use teda_core::postprocess::eliminate_spurious;
use teda_core::preprocess::preprocess;
use teda_core::query::build_spatial_context_cached;
use teda_corpus::table_from_csv;
use teda_geo::{GeocodeCache, SimGeocoder};
use teda_kb::EntityType;
use teda_service::AnnotationService;
use teda_tabular::infer::infer_column_types;
use teda_tabular::{CellId, ColumnType, Table};
use teda_websim::{BingSim, PageId, SearchBackend, SearchEngine, SearchResult};
use teda_wire::protocol::render_annotations;
use teda_wire::WireClient;

use crate::catalogue::WORKERS;
use crate::fixture::{Fixture, Request};
use crate::json::Json;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times every `search_results` call the engine makes while recording
/// is on; a relaxed flag check otherwise.
pub struct TimedBackend {
    inner: Arc<dyn SearchBackend>,
    recording: AtomicBool,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn SearchBackend>) -> TimedBackend {
        TimedBackend {
            inner,
            recording: AtomicBool::new(false),
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// `(calls, nanoseconds)` recorded since the last take.
    pub fn take(&self) -> (u64, u64) {
        (
            self.calls.swap(0, Ordering::SeqCst),
            self.nanos.swap(0, Ordering::SeqCst),
        )
    }
}

impl SearchBackend for TimedBackend {
    fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        self.inner.search(query, k)
    }

    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult> {
        if !self.recording.load(Ordering::Relaxed) {
            return self.inner.search_results(query, k);
        }
        let t = Instant::now();
        let results = self.inner.search_results(query, k);
        self.nanos.fetch_add(ns_since(t), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        results
    }

    fn n_docs(&self) -> usize {
        self.inner.n_docs()
    }
}

/// One `STATS JSON` + `METRICS` scrape of the service.
pub struct Scrape {
    stats: Json,
    metrics: String,
}

impl Scrape {
    pub fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let mut client = WireClient::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
        let stats = client
            .stats_json()
            .map_err(|e| format!("STATS JSON: {e}"))?;
        let metrics = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
        Ok(Scrape {
            stats: Json::parse(&stats).map_err(|e| format!("STATS JSON: {e}"))?,
            metrics,
        })
    }

    /// A numeric field of `STATS JSON` (`0` when absent).
    pub fn stat(&self, path: &[&str]) -> f64 {
        self.stats.at(path).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// Observations in the service's stage histogram `stage`, from the
    /// `METRICS` exposition (`0` when the stage never recorded).
    pub fn stage_count(&self, stage: &str) -> f64 {
        let key = format!("teda_stage_us_count{{node=\"service\",stage=\"{stage}\"}} ");
        self.metrics
            .lines()
            .find_map(|line| line.strip_prefix(&key))
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or(0.0)
    }
}

/// What phase b observed: exact in-process latencies.
#[derive(Debug, Default)]
pub struct SubmitOutcome {
    pub latency_ns: Vec<u64>,
    pub queue_wait_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

/// The stream through `AnnotationService::submit` on [`WORKERS`]
/// threads, closed-loop, until `deadline`. With `expect`, each outcome
/// must equal `expect[index]`.
pub fn submit_loop(
    service: &AnnotationService,
    reqs: &[Request],
    pick: &(dyn Fn(u64) -> usize + Sync),
    deadline: Instant,
    expect: Option<&[TableAnnotations]>,
) -> SubmitOutcome {
    let cursor = AtomicU64::new(0);
    let total = Mutex::new(SubmitOutcome::default());
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| {
                let mut out = SubmitOutcome::default();
                while Instant::now() < deadline {
                    let index = pick(cursor.fetch_add(1, Ordering::Relaxed));
                    out.attempted += 1;
                    let outcome = service
                        .submit(Arc::clone(&reqs[index].table))
                        .map_err(|r| r.to_string())
                        .and_then(|h| h.wait().map_err(|_| "request failed".to_string()));
                    match outcome {
                        Ok(o) if expect.is_none_or(|e| e[index] == o.annotations) => {
                            out.latency_ns.push(o.latency.as_nanos() as u64);
                            out.queue_wait_ns.push(o.queue_wait.as_nanos() as u64);
                        }
                        Ok(_) => {
                            eprintln!(
                                "ledger: submit of {} differs from the reference",
                                reqs[index].name
                            );
                            out.failed += 1;
                        }
                        Err(e) => {
                            eprintln!("ledger: submit of {} failed: {e}", reqs[index].name);
                            out.failed += 1;
                        }
                    }
                }
                let mut total = total.lock().expect("submit outcome lock");
                total.latency_ns.extend(out.latency_ns);
                total.queue_wait_ns.extend(out.queue_wait_ns);
                total.attempted += out.attempted;
                total.failed += out.failed;
            });
        }
    });
    total.into_inner().expect("submit outcome lock")
}

/// Summed stage times (nanoseconds) and counts of the replayed tables.
#[derive(Debug, Default)]
pub struct Ledger {
    pub tables: u64,
    pub parse: u64,
    pub infer: u64,
    pub preprocess: u64,
    pub spatial: u64,
    pub build: u64,
    pub lookup: u64,
    pub search: u64,
    pub featurize: u64,
    pub model: u64,
    pub vote: u64,
    pub postprocess: u64,
    pub render: u64,
    /// Wall time of every replayed table, rank probes excluded.
    pub total: u64,
    pub cells: u64,
    pub candidates: u64,
    pub snippets: u64,
    /// Cell annotations before and after post-processing.
    pub annotated: u64,
    pub kept: u64,
    /// Per search call: ranking alone (`SearchBackend::search`), and the
    /// rest of `search_results` (page hydration and result assembly).
    pub rank_ns: Vec<u64>,
    pub hydrate_ns: Vec<u64>,
    /// Every query the replay looked up (`k` is fixed), for the count of
    /// distinct cache keys.
    pub queries: Vec<String>,
}

impl Ledger {
    pub fn stage_sum(&self) -> u64 {
        self.parse
            + self.infer
            + self.preprocess
            + self.spatial
            + self.build
            + self.lookup
            + self.search
            + self.featurize
            + self.model
            + self.vote
            + self.postprocess
            + self.render
    }

    /// Share of replay wall time no stopwatch accounts for.
    pub fn residual_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.stage_sum() as f64 / self.total as f64
    }

    /// Mean microseconds per replayed table.
    pub fn per_table_us(&self, nanos: u64) -> f64 {
        nanos as f64 / 1e3 / self.tables.max(1) as f64
    }

    pub fn share(&self, nanos: u64) -> f64 {
        nanos as f64 / self.total.max(1) as f64
    }

    pub fn distinct_keys(&self) -> usize {
        let mut keys: Vec<&String> = self.queries.iter().collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }
}

/// An engine that times the real call, then probes ranking alone on the
/// backend so hydration can be told apart. The probe runs second, on
/// warm caches; its time is excluded from the ledger.
struct ProbedEngine<'a> {
    engine: &'a BingSim,
    backend: &'a dyn SearchBackend,
    search_ns: Cell<u64>,
    probe_ns: Cell<u64>,
    rank_ns: RefCell<Vec<u64>>,
    hydrate_ns: RefCell<Vec<u64>>,
}

impl SearchEngine for ProbedEngine<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        let t = Instant::now();
        let results = self.engine.search(query, k);
        let full = ns_since(t);
        let t = Instant::now();
        black_box(self.backend.search(query, k));
        let rank = ns_since(t);
        self.search_ns.set(self.search_ns.get() + full);
        self.probe_ns.set(self.probe_ns.get() + rank);
        self.rank_ns.borrow_mut().push(rank);
        self.hydrate_ns.borrow_mut().push(full.saturating_sub(rank));
        results
    }
}

/// The §5.2.1 majority vote over classified snippets, as the batch
/// annotator's plain voting rule computes it.
fn vote(
    types: &[Option<EntityType>],
    cell: CellId,
    config: &AnnotatorConfig,
) -> Option<CellAnnotation> {
    let mut votes: BTreeMap<EntityType, usize> = BTreeMap::new();
    for t in types.iter().flatten() {
        if config.targets.contains(t) {
            *votes.entry(*t).or_insert(0) += 1;
        }
    }
    let (t_max, s_max) = votes
        .into_iter()
        .max_by_key(|&(t, s)| (s, std::cmp::Reverse(t)))?;
    (s_max > config.majority_threshold()).then(|| CellAnnotation {
        cell,
        etype: t_max,
        score: s_max as f64 / config.top_k as f64,
        votes: s_max,
    })
}

/// Replays the per-request pipeline one step at a time: CSV parse,
/// column inference, preprocessing, spatial context, query build, cache,
/// search, featurize, model, vote, post-processing and rendering.
pub struct Replayer {
    engine: BingSim,
    backend: Arc<dyn SearchBackend>,
    classifier: SnippetClassifier,
    geocoder: Arc<SimGeocoder>,
    config: AnnotatorConfig,
    cache: QueryCache,
    geo_memo: GeocodeCache,
}

impl Replayer {
    /// A replayer over `backend` with the service's query-cache bound (the
    /// address memo never fills in a run, so it stays unbounded).
    pub fn new(fixture: &Fixture, backend: Arc<dyn SearchBackend>, cache: CacheConfig) -> Replayer {
        assert!(
            !fixture.config.use_clustering,
            "the replay mirrors the plain voting rule"
        );
        Replayer {
            engine: BingSim::instant(Arc::clone(&backend)),
            backend,
            classifier: fixture.classifier.clone(),
            geocoder: Arc::clone(&fixture.geocoder),
            config: fixture.config.clone(),
            cache: QueryCache::with_config(cache),
            geo_memo: GeocodeCache::default(),
        }
    }

    /// Replays one request, adding its stage times to `ledger`.
    pub fn replay(&self, req: &Request, ledger: &mut Ledger) -> Result<TableAnnotations, String> {
        let cfg = &self.config;
        let probed = ProbedEngine {
            engine: &self.engine,
            backend: self.backend.as_ref(),
            search_ns: Cell::new(0),
            probe_ns: Cell::new(0),
            rank_ns: RefCell::new(Vec::new()),
            hydrate_ns: RefCell::new(Vec::new()),
        };
        let start = Instant::now();

        let t = Instant::now();
        let parsed = table_from_csv(&req.csv, &req.name).map_err(|e| e.message().to_owned())?;
        ledger.parse += ns_since(t);

        let t = Instant::now();
        let inferred;
        let table: &Table = if parsed.column_types().contains(&ColumnType::Unknown) {
            let mut owned = parsed.clone();
            infer_column_types(&mut owned);
            inferred = owned;
            &inferred
        } else {
            &parsed
        };
        ledger.infer += ns_since(t);

        let t = Instant::now();
        let pre = preprocess(table, cfg);
        ledger.preprocess += ns_since(t);

        let t = Instant::now();
        let spatial = cfg.use_disambiguation.then(|| {
            build_spatial_context_cached(table, &self.geocoder, Some(&self.geo_memo), cfg)
        });
        ledger.spatial += ns_since(t);

        let mut annotations = Vec::new();
        for &cell in &pre.candidates {
            let t = Instant::now();
            let query = build_cell_query(table, cell, spatial.as_ref());
            ledger.build += ns_since(t);
            if query.trim().is_empty() {
                continue;
            }

            let (search_before, probe_before) = (probed.search_ns.get(), probed.probe_ns.get());
            let t = Instant::now();
            let results = self.cache.get_or_search(&probed, &query, cfg.top_k);
            let lookup = ns_since(t);
            let search = probed.search_ns.get() - search_before;
            let probe = probed.probe_ns.get() - probe_before;
            ledger.search += search;
            ledger.lookup += lookup.saturating_sub(search + probe);
            ledger.queries.push(query);
            if results.is_empty() {
                continue;
            }

            let t = Instant::now();
            let vectors: Vec<_> = results
                .iter()
                .map(|r| self.classifier.vectorize(&r.snippet))
                .collect();
            ledger.featurize += ns_since(t);

            let t = Instant::now();
            let types: Vec<Option<EntityType>> = vectors
                .iter()
                .map(|x| self.classifier.classify_vector(x))
                .collect();
            ledger.model += ns_since(t);

            let t = Instant::now();
            annotations.extend(vote(&types, cell, cfg));
            ledger.vote += ns_since(t);
            ledger.snippets += results.len() as u64;
        }
        let annotated = annotations.len() as u64;

        let t = Instant::now();
        let cells = if cfg.use_postprocessing {
            eliminate_spurious(table, annotations)
        } else {
            annotations
        };
        ledger.postprocess += ns_since(t);
        let result = TableAnnotations {
            cells,
            skipped_cells: pre.skipped.len(),
            queried_cells: pre.candidates.len(),
        };

        let t = Instant::now();
        black_box(render_annotations(&result));
        ledger.render += ns_since(t);

        ledger.total += ns_since(start).saturating_sub(probed.probe_ns.get());
        ledger.tables += 1;
        ledger.cells += (table.n_rows() * table.n_cols()) as u64;
        ledger.candidates += pre.candidates.len() as u64;
        ledger.annotated += annotated;
        ledger.kept += result.cells.len() as u64;
        ledger.rank_ns.extend(probed.rank_ns.into_inner());
        ledger.hydrate_ns.extend(probed.hydrate_ns.into_inner());
        Ok(result)
    }
}
