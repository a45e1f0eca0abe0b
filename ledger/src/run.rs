//! One benchmark run: set-up, warm-up, the measured window (or the three
//! traced phases), correctness checks, and the result record.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use teda_core::cache::CacheConfig;
use teda_core::evaluate::{count_type, TypeCounts};
use teda_core::pipeline::{BatchAnnotator, TableAnnotations};
use teda_kb::EntityType;
use teda_obs::hist::HistSnapshot;
use teda_websim::WebCorpus;
use teda_wire::protocol::render_annotations;

use crate::catalogue::{MetricDef, Workload, END_TO_END, FIXTURE_SEED, PER_LAYER};
use crate::fixture::{make_requests, stream_pick, Request, Scale, SetupTimes, Stack, WorkDir};
use crate::json::Json;
use crate::load::{drive, each, publish_tick, tick_due, LiveWriter, Outcome, WriterStats};
use crate::stats::{median, percentile};
use crate::trace::{submit_loop, Ledger, Replayer, Scrape, SubmitOutcome};

/// Back-to-back set-ups per run; `setup_s` is their median. A Standard
/// set-up takes a fifth of a second, `serve_large`'s several seconds.
fn setups(workload: Workload) -> usize {
    match workload {
        Workload::ServeLarge => 3,
        _ => 5,
    }
}

/// Tables the `ingest_live` verification pass sends once the writer has
/// stopped.
const VERIFY_TABLES: usize = 64;

/// Residual bound the traced replay must stay under.
pub const MAX_RESIDUAL_SHARE: f64 = 0.10;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    /// Directory the result file is written to.
    pub out: PathBuf,
}

/// What a run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In catalogue order: end-to-end metrics, or per-layer metrics for
    /// a traced run.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Failed correctness checks beyond failed requests.
    pub checks: Vec<String>,
    pub n_docs: usize,
}

pub fn log(msg: &str) {
    eprintln!("ledger: {msg}");
}

/// Measured values by name, ordered by the catalogue when assembled.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn into_metrics(self, defs: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        defs.iter()
            .map(|def| {
                let value = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == def.name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("metric {} was never measured", def.name));
                (def, if value.is_finite() { value } else { 0.0 })
            })
            .collect()
    }
}

fn annotate_all(annotator: &BatchAnnotator, reqs: &[Request]) -> Vec<TableAnnotations> {
    reqs.par_iter()
        .map(|r| annotator.annotate_table(&r.table))
        .collect()
}

fn renders(results: &[TableAnnotations]) -> Vec<String> {
    results.iter().map(render_annotations).collect()
}

/// Micro-averaged F1 over the 12 target types.
fn micro_f1(reqs: &[Request], results: &[TableAnnotations]) -> f64 {
    let mut totals = TypeCounts::default();
    for (req, result) in reqs.iter().zip(results) {
        for etype in EntityType::TARGETS {
            totals.add(count_type(&req.gold, &result.cells, etype));
        }
    }
    totals.prf().f1
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn setup_median(times: &[SetupTimes], step: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(step).collect::<Vec<_>>())
}

/// One stage's observations between two snapshots of a registry.
fn hist_delta(
    after: &[(String, HistSnapshot)],
    before: &[(String, HistSnapshot)],
    stage: &str,
) -> HistSnapshot {
    let find = |snaps: &[(String, HistSnapshot)]| {
        snaps
            .iter()
            .find(|(name, _)| name == stage)
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    };
    let (after, before) = (find(after), find(before));
    let mut delta = HistSnapshot::default();
    for (i, slot) in delta.buckets.iter_mut().enumerate() {
        *slot = after.buckets[i].saturating_sub(before.buckets[i]);
    }
    delta
}

/// Requests attempted and failed across every pass of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
    }
}

/// What the measured part of a run produced.
enum Measured {
    /// The end-to-end window.
    Window(Outcome),
    /// The traced phases a and b.
    Traced(Box<Traced>),
}

struct Traced {
    untraced: Outcome,
    traced: Outcome,
    submitted: SubmitOutcome,
    before: Scrape,
    after: Scrape,
    /// Engine calls the timing decorator saw in the traced window, and
    /// their summed wall time.
    search_calls: u64,
    search_ns: u64,
    scatter: HistSnapshot,
    merge: HistSnapshot,
}

/// Phase a (the wire loop untraced, then traced, between two scrapes)
/// and phase b (the same stream through `submit`), a third of the
/// window each.
fn traced_phases(
    stack: &Stack,
    pool: &[Request],
    pick: &(dyn Fn(u64) -> Option<usize> + Sync),
    seconds: f64,
    expect: Option<&[String]>,
    expect_annotations: Option<&[TableAnnotations]>,
) -> Result<Traced, String> {
    let addr = stack.server.local_addr();
    let timed = stack
        .timed
        .as_ref()
        .expect("traced stacks carry the decorator");
    let third = Duration::from_secs_f64(seconds / 3.0);
    let router_snaps = || {
        stack
            .router
            .as_ref()
            .map(|r| r.obs().snapshots())
            .unwrap_or_default()
    };

    let untraced = drive(addr, pool, pick, Some(Instant::now() + third), expect);
    let before = Scrape::take(addr)?;
    let router_before = router_snaps();
    timed.set_recording(true);
    let traced = drive(addr, pool, pick, Some(Instant::now() + third), expect);
    timed.set_recording(false);
    let (search_calls, search_ns) = timed.take();
    let after = Scrape::take(addr)?;
    let router_after = router_snaps();

    let submit_pick = |pos| pick(pos).expect("the request stream never runs dry");
    let submitted = submit_loop(
        &stack.service,
        pool,
        &submit_pick,
        Instant::now() + third,
        expect_annotations,
    );
    Ok(Traced {
        untraced,
        traced,
        submitted,
        before,
        after,
        search_calls,
        search_ns,
        scatter: hist_delta(&router_after, &router_before, "shard_scatter"),
        merge: hist_delta(&router_after, &router_before, "merge"),
    })
}

/// Runs one workload once. `Err` is a set-up failure: no result.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let w = opts.workload;
    let work = WorkDir::new(w.name());

    let n_setups = setups(w);
    let mut setups = Vec::with_capacity(n_setups);
    let mut stack = None;
    for i in 0..n_setups {
        drop(stack.take());
        let built = Stack::build(w, opts.scale, work.path(), opts.traced)?;
        log(&format!(
            "{} set-up {}/{n_setups}: {:.3} s",
            w.name(),
            i + 1,
            built.times.total
        ));
        setups.push(built.times);
        stack = Some(built);
    }
    let stack = stack.expect("at least one set-up ran");
    let fx = &stack.fixture;
    let addr = stack.server.local_addr();
    let rows = opts.scale.rows();
    let pool = make_requests(&fx.world, opts.seed, "pool", opts.scale.pool_size(w), rows)?;
    let quality = make_requests(
        &fx.world,
        FIXTURE_SEED,
        "quality",
        opts.scale.quality_tables(),
        rows,
    )?;

    // The offline reference: the batch annotator over the single-node
    // heap corpus every served backend must agree with.
    let reference = fx.annotator(fx.web.clone());
    let ref_quality = annotate_all(&reference, &quality);
    let ref_pool = annotate_all(&reference, &pool);
    let expect_quality = renders(&ref_quality);
    let expect_pool = renders(&ref_pool);

    // Warm-up: the quality set (scored for f1), plus the whole pool on
    // serve_warm so every later lookup hits the cache.
    let mut tally = Tally::default();
    let all_quality: Vec<usize> = (0..quality.len()).collect();
    tally.add(&drive(
        addr,
        &quality,
        &each(&all_quality),
        None,
        Some(&expect_quality),
    ));
    if w == Workload::ServeWarm {
        let all_pool: Vec<usize> = (0..pool.len()).collect();
        tally.add(&drive(
            addr,
            &pool,
            &each(&all_pool),
            None,
            Some(&expect_pool),
        ));
    }

    // While the corpus changes, replies cannot be held to a fixed
    // reference; ingest_live is verified once the writer has stopped.
    let live = w == Workload::IngestLive;
    let expect = (!live).then_some(&expect_pool[..]);
    let expect_annotations = (!live).then_some(&ref_pool[..]);
    let (measured, writer) = std::thread::scope(|scope| {
        let (ticks, writer) = if live {
            let (ticks, due) = mpsc::sync_channel(0);
            let writer = LiveWriter::new(&stack.service, &fx.world, opts.seed);
            (Some(ticks), Some(scope.spawn(move || writer.run(due))))
        } else {
            (None, None)
        };
        let pick = |pos| {
            if let Some(ticks) = ticks.as_ref().filter(|_| tick_due(pos)) {
                publish_tick(ticks);
            }
            Some(stream_pick(opts.seed, pos, pool.len()))
        };
        let measured = if opts.traced {
            traced_phases(
                &stack,
                &pool,
                &pick,
                opts.seconds,
                expect,
                expect_annotations,
            )
            .map(|t| Measured::Traced(Box::new(t)))
        } else {
            let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
            Ok(Measured::Window(drive(
                addr,
                &pool,
                &pick,
                Some(deadline),
                expect,
            )))
        };
        // Closing the channel stops the writer.
        drop(ticks);
        (
            measured,
            writer.map(|h| h.join().expect("writer thread panicked")),
        )
    });
    let measured = measured?;

    let mut checks = Vec::new();
    let mut reference = reference;
    if let Some(writer) = &writer {
        if writer.errors > 0 {
            checks.push(format!("{} live updates failed", writer.errors));
        }
        // The final corpus, rebuilt from scratch, is the new reference.
        let corpus = stack
            .service
            .live_corpus()
            .expect("ingest_live serves a live corpus")
            .corpus();
        reference = fx.annotator(Arc::new(WebCorpus::from_pages(corpus.to_pages())));
        let verify = &pool[..VERIFY_TABLES.min(pool.len())];
        let expect_verify = renders(&annotate_all(&reference, verify));
        let all: Vec<usize> = (0..verify.len()).collect();
        tally.add(&drive(
            addr,
            verify,
            &each(&all),
            None,
            Some(&expect_verify),
        ));
    }

    let mut values = Values::default();
    let defs = match measured {
        Measured::Window(window) => {
            tally.add(&window);
            values.set("req_per_s", window.req_per_s());
            values.set(
                "latency_p50_ms",
                window.median_latency_ns(opts.seconds) / 1e6,
            );
            values.set("latency_p95_ms", ms(percentile(&window.latencies_ns, 0.95)));
            values.set("f1_micro", micro_f1(&quality, &ref_quality));
            values.set("setup_s", setup_median(&setups, |s| s.total));
            values.set("peak_rss_mb", peak_rss_mb());
            END_TO_END
        }
        Measured::Traced(t) => {
            tally.add(&t.untraced);
            tally.add(&t.traced);
            tally.attempted += t.submitted.attempted;
            tally.failed += t.submitted.failed;
            let ledger = replay(opts, &stack, &pool, &reference, &mut checks)?;
            let searches = t.after.stage_count("search") - t.before.stage_count("search");
            if searches != t.search_calls as f64 {
                checks.push(format!(
                    "METRICS counted {searches} searches, the decorator {}",
                    t.search_calls
                ));
            }
            layer_values(&mut values, &stack, &setups, &t, &ledger, writer.as_ref());
            PER_LAYER
        }
    };
    Ok(RunResult {
        correct: tally.failed == 0 && checks.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: values.into_metrics(defs),
        checks,
        n_docs: stack.backend.n_docs(),
    })
}

/// Phase c: replays the stream's first tables stage by stage, each
/// checked against `reference`, and checks that the ledger adds up.
fn replay(
    opts: &RunOptions,
    stack: &Stack,
    pool: &[Request],
    reference: &BatchAnnotator,
    checks: &mut Vec<String>,
) -> Result<Ledger, String> {
    let w = opts.workload;
    let replayer = Replayer::new(
        &stack.fixture,
        Arc::clone(&stack.backend),
        CacheConfig {
            capacity: w.cache_capacity(),
            ..CacheConfig::default()
        },
    );
    if w == Workload::ServeWarm {
        // The served cache was warmed with the whole pool; so is this one.
        let mut scratch = Ledger::default();
        for req in pool {
            replayer.replay(req, &mut scratch)?;
        }
    }
    let mut ledger = Ledger::default();
    let mut mismatches = 0;
    for pos in 0..opts.scale.replay_tables() as u64 {
        let req = &pool[stream_pick(opts.seed, pos, pool.len())];
        if replayer.replay(req, &mut ledger)? != reference.annotate_table(&req.table) {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        checks.push(format!(
            "{mismatches} replayed tables differ from BatchAnnotator::annotate_table"
        ));
    }
    let residual = ledger.residual_share();
    if residual >= MAX_RESIDUAL_SHARE {
        checks.push(format!(
            "ledger residual share {residual:.3} is not below {MAX_RESIDUAL_SHARE}"
        ));
    }
    Ok(ledger)
}

fn layer_values(
    v: &mut Values,
    stack: &Stack,
    setups: &[SetupTimes],
    t: &Traced,
    ledger: &Ledger,
    writer: Option<&WriterStats>,
) {
    let delta = |path: &[&str]| t.after.stat(path) - t.before.stat(path);
    let stage = |name: &str| t.after.stage_count(name) - t.before.stage_count(name);
    let per_table = |ns: u64| ledger.per_table_us(ns);

    // wire + CSV
    let rtt_p50 = us(percentile(&t.traced.latencies_ns, 0.50));
    let service_p50 = us(percentile(&t.submitted.latency_ns, 0.50));
    v.set("wire.rtt_us_p50", rtt_p50);
    v.set(
        "wire.rtt_us_p99",
        us(percentile(&t.traced.latencies_ns, 0.99)),
    );
    v.set("wire.overhead_us_p50", rtt_p50 - service_p50);
    v.set(
        "wire.bytes_per_req",
        ratio(t.traced.bytes as f64, t.traced.attempted as f64),
    );
    v.set("tabular.parse_us", per_table(ledger.parse));
    v.set("wire.render_us", per_table(ledger.render));

    // admission + queue
    v.set(
        "service.queue_wait_us_p50",
        us(percentile(&t.submitted.queue_wait_ns, 0.50)),
    );
    v.set(
        "service.queue_wait_us_p99",
        us(percentile(&t.submitted.queue_wait_ns, 0.99)),
    );
    v.set("service.latency_us_p50", service_p50);
    v.set(
        "service.shed",
        delta(&["shed_queue"]) + delta(&["shed_budget"]) + delta(&["rejected_oversize"]),
    );

    // inference, preprocessing, geocoding, query build
    v.set("tabular.infer_us", per_table(ledger.infer));
    v.set("preprocess.us", per_table(ledger.preprocess));
    v.set(
        "preprocess.candidate_share",
        ratio(ledger.candidates as f64, ledger.cells as f64),
    );
    v.set("geo.spatial_us", per_table(ledger.spatial));
    let geo_hits = delta(&["geocode", "hits"]);
    v.set(
        "geo.memo_hit_rate",
        ratio(geo_hits, geo_hits + delta(&["geocode", "misses"])),
    );
    v.set("query.build_us", per_table(ledger.build));

    // query cache. Hits and misses are the registry's `cache_lookup` and
    // `search` stage counts: every publish on ingest_live clears the
    // cache, and with it the cache's own hit and miss counters.
    let hits = stage("cache_lookup");
    v.set("cache.hit_rate", ratio(hits, hits + stage("search")));
    v.set("cache.lookup_us", per_table(ledger.lookup));
    v.set("cache.evictions", delta(&["cache", "evictions"]));
    v.set("cache.distinct_keys", ledger.distinct_keys() as f64);

    // search
    v.set(
        "search.calls_per_req",
        ratio(t.search_calls as f64, t.traced.completed() as f64),
    );
    v.set("search.us", per_table(ledger.search));
    v.set(
        "search.loaded_us",
        ratio(us(t.search_ns), t.traced.completed() as f64),
    );
    v.set("search.rank_us_p50", us(percentile(&ledger.rank_ns, 0.50)));
    v.set("search.rank_us_p99", us(percentile(&ledger.rank_ns, 0.99)));
    v.set(
        "search.hydrate_us_p50",
        us(percentile(&ledger.hydrate_ns, 0.50)),
    );
    v.set("search.n_docs", stack.backend.n_docs() as f64);

    // scatter-gather (histogram bucket upper bounds, whole µs)
    v.set("cluster.scatter_us_p50", t.scatter.quantile(0.50) as f64);
    v.set("cluster.scatter_us_p99", t.scatter.quantile(0.99) as f64);
    v.set("cluster.merge_us_p50", t.merge.quantile(0.50) as f64);
    v.set("cluster.retries", delta(&["replica_retries"]));
    v.set("cluster.partial_results", delta(&["partial_results"]));

    // classification and post-processing
    v.set("classify.featurize_us", per_table(ledger.featurize));
    v.set("classify.model_us", per_table(ledger.model));
    v.set("classify.vote_us", per_table(ledger.vote));
    v.set(
        "classify.snippets_per_req",
        ratio(ledger.snippets as f64, ledger.tables as f64),
    );
    v.set(
        "classify.annotated_share",
        ratio(ledger.annotated as f64, ledger.candidates as f64),
    );
    v.set("postprocess.us", per_table(ledger.postprocess));
    v.set(
        "postprocess.removed_share",
        ratio(
            (ledger.annotated - ledger.kept) as f64,
            ledger.annotated as f64,
        ),
    );

    // live ingest
    let empty = WriterStats::default();
    let wr = writer.unwrap_or(&empty);
    v.set("live.publish_ms_p50", ms(percentile(&wr.publish_ns, 0.50)));
    v.set("live.publish_ms_p95", ms(percentile(&wr.publish_ns, 0.95)));
    v.set("live.add_ms_p50", ms(percentile(&wr.add_ns, 0.50)));
    v.set("live.remove_ms_p50", ms(percentile(&wr.remove_ns, 0.50)));
    v.set("live.folds", wr.folds as f64);
    v.set("live.merges", wr.merges as f64);
    v.set("live.segments_max", wr.segments_max as f64);
    v.set("live.lateness_ms_max", ms(wr.lateness_max_ns));
    v.set("store.page_hydrations", stage("page_hydration"));
    v.set(
        "store.resident_mb",
        t.after.stat(&["resident_bytes"]) / (1024.0 * 1024.0),
    );

    // set-up
    v.set("setup.world_s", setup_median(setups, |s| s.world));
    v.set("setup.web_s", setup_median(setups, |s| s.web));
    v.set("setup.harvest_s", setup_median(setups, |s| s.harvest));
    v.set("setup.train_s", setup_median(setups, |s| s.train));
    v.set("setup.snapshot_s", setup_median(setups, |s| s.snapshot));
    v.set("setup.partition_s", setup_median(setups, |s| s.partition));
    v.set("setup.open_s", setup_median(setups, |s| s.open));

    // the ledger
    v.set("ledger.replay_us_per_req", per_table(ledger.total));
    v.set("ledger.residual_share", ledger.residual_share());
    v.set("ledger.search_share", ledger.share(ledger.search));
    v.set(
        "ledger.classify_share",
        ledger.share(ledger.featurize + ledger.model + ledger.vote),
    );
    v.set(
        "trace.overhead",
        ratio(t.traced.req_per_s(), t.untraced.req_per_s()),
    );
}

/// Writes the run's result file and returns its path.
pub fn write_result(opts: &RunOptions, result: &RunResult) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let mode = if opts.traced { "traced" } else { "e2e" };
    let path = opts.out.join(format!(
        "{}-seed{}-{mode}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, format!("{}\n", run_record(opts, result)))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn metrics_json(metrics: &[(&'static MetricDef, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(def, value)| {
                (
                    def.name.to_string(),
                    Json::obj().with("value", *value).with("unit", def.unit),
                )
            })
            .collect(),
    )
}

/// The last line a run prints: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn summary_line(result: &RunResult) -> Json {
    Json::obj()
        .with("correct", result.correct)
        .with("attempted", result.attempted)
        .with("failed", result.failed)
        .with("metrics", metrics_json(&result.metrics))
}

fn run_record(opts: &RunOptions, result: &RunResult) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .with("workload", opts.workload.name())
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("traced", opts.traced)
        .with("scale", opts.scale.name())
        .with("fixture_seed", FIXTURE_SEED)
        .with("n_docs", result.n_docs)
        .with(
            "cache_capacity",
            opts.workload
                .cache_capacity()
                .map_or(Json::Null, Json::from),
        )
        .with("nproc", nproc)
        .with("correct", result.correct)
        .with("attempted", result.attempted)
        .with("failed", result.failed)
        .with("metrics", metrics_json(&result.metrics))
}

/// The default result directory, inside the benchmark package.
pub fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}
