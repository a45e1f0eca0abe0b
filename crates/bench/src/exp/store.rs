//! The persistence layer under measurement: snapshot load vs cold index
//! build, delta replay and compaction cost, and the warm-start cache
//! hit rate of a service restarted over a store directory.
//!
//! Three phases over one temp store:
//!
//! * **snapshot** — time the cold index construction
//!   (`WebCorpus::from_pages`, tokenization + interning + flattening)
//!   against saving and loading the checksummed snapshot of the same
//!   corpus. The load is pure deserialization — no tokenizing — and
//!   must be faster than the cold build (asserted); the loaded index
//!   must be field-identical (asserted), which makes every query's
//!   top-k bit-identical.
//! * **deltas** — journal page additions/removals over the base, time
//!   the replay (load + re-index of the logical corpus) and the
//!   compaction, and byte-compare the compacted snapshot against a
//!   full rebuild of the same logical corpus (asserted — the
//!   determinism headline of the delta design).
//! * **warm start** — run an annotation pass through an
//!   [`AnnotationService`] with a `store_dir`, shut it down (persisting
//!   the query memo), start a second service over the same directory
//!   and replay the same tables: the restored cache must serve the
//!   rerun without re-searching (hit rate ≈ 1, asserted ≥ 0.99).

use std::time::Duration;

use teda_service::{AnnotationService, ServiceConfig};
use teda_simkit::tablefmt::{Align, TextTable};
use teda_store::{CorpusStore, OpenOutcome};
use teda_websim::{WebCorpus, WebPage};

use crate::exp::throughput::build_corpus;
use crate::harness::{best_of, Claim, Fixture};

/// Timing repetitions: the minimum damps scheduler noise without
/// turning the experiment into a benchmark suite. The quick fixture's
/// corpus is small enough that load and cold build are both a few
/// milliseconds, so the load-beats-build assertion needs the noise
/// floor low.
const REPS: usize = 5;

/// The persistence experiment report.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Pages in the snapshot corpus.
    pub pages: usize,
    /// Snapshot file size in bytes.
    pub snapshot_bytes: u64,
    /// Cold index construction over the page list (best of `REPS`).
    pub cold_build: Duration,
    /// Snapshot serialization + atomic write (best of `REPS`).
    pub save: Duration,
    /// Snapshot load, empty journal (best of `REPS`).
    pub load: Duration,
    /// `cold_build / load`.
    pub load_speedup: f64,
    /// Whether the loaded index was field-identical to the built one.
    pub load_identical: bool,
    /// Pages journaled into delta segments.
    pub delta_pages: usize,
    /// Load with the journal replayed (snapshot + re-index).
    pub delta_replay: Duration,
    /// Compaction (replay + snapshot rewrite + journal truncation).
    pub compact: Duration,
    /// Whether the compacted snapshot was byte-identical to a full
    /// rebuild of the same logical corpus.
    pub compact_identical: bool,
    /// Query-cache entries the restarted service restored.
    pub restored_entries: u64,
    /// Cache hit rate of the first (cold) service generation.
    pub cold_hit_rate: f64,
    /// Cache hit rate of the restarted (warm) generation over the same
    /// table corpus.
    pub warm_hit_rate: f64,
    /// Whether warm results were bit-identical to cold results.
    pub warm_identical: bool,
}

/// Runs all three phases.
pub fn run(fixture: &Fixture) -> StoreReport {
    let dir = std::env::temp_dir().join(format!("teda_exp_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: cold build vs snapshot save/load. The cold path is the
    // true restart-without-a-store cost — regenerate every page *and*
    // re-index — because that is exactly what the snapshot replaces.
    let pages: Vec<WebPage> = fixture.web.pages().to_vec();
    let (cold_build, built) = best_of(REPS, || {
        WebCorpus::build(&fixture.world, fixture.web_spec, fixture.seed)
    });
    let store = CorpusStore::open(&dir).expect("open temp store");
    let (save, _) = best_of(REPS, || store.save(&built).expect("save snapshot"));
    let snapshot_bytes = std::fs::metadata(store.snapshot_path())
        .map(|m| m.len())
        .unwrap_or(0);
    let (load, loaded) = best_of(REPS, || store.load().expect("load snapshot"));
    let load_identical = loaded.corpus.index() == built.index()
        && loaded.corpus.pages() == built.pages()
        && loaded.replayed_segments == 0;

    // Phase 2: delta journal replay + compaction determinism.
    let delta_pages: Vec<WebPage> = (0..64)
        .map(|i| WebPage {
            url: format!("http://delta/{i}"),
            title: format!("Delta page {i}"),
            body: format!("delta addition {i} restaurant menu listing city review"),
        })
        .collect();
    store.add_pages(&delta_pages).expect("journal additions");
    let removed: Vec<String> = pages.iter().take(16).map(|p| p.url.clone()).collect();
    store.remove_pages(&removed).expect("journal removals");
    let (delta_replay, replayed) = best_of(1, || store.load().expect("replay deltas"));
    let (compact, _) = best_of(1, || store.compact_in_place().expect("compact"));
    let compact_bytes = std::fs::read(store.snapshot_path()).expect("read compacted snapshot");
    let rebuilt = WebCorpus::from_pages(replayed.corpus.pages().to_vec());
    let rebuild_dir = dir.join("rebuild");
    let rebuild_store = CorpusStore::open(&rebuild_dir).expect("open rebuild store");
    rebuild_store.save(&rebuilt).expect("save rebuild");
    let rebuild_bytes = std::fs::read(rebuild_store.snapshot_path()).expect("read rebuild");
    let compact_identical = compact_bytes == rebuild_bytes;

    // Phase 3: warm-start hit rate across a service restart.
    let tables = build_corpus(fixture);
    let service_dir = dir.join("service");
    let config = ServiceConfig {
        workers: 0,
        store_dir: Some(service_dir),
        ..ServiceConfig::default()
    };
    let run_corpus = |service: &AnnotationService| {
        tables
            .iter()
            .map(|t| {
                service
                    .submit(std::sync::Arc::new(t.clone()))
                    .expect("queue has room")
                    .wait()
                    .expect("completes")
                    .annotations
            })
            .collect::<Vec<_>>()
    };
    let cold_service = AnnotationService::start(
        fixture.svm_annotator(true, false).into_batch(),
        config.clone(),
    );
    let cold_results = run_corpus(&cold_service);
    let cold_stats = cold_service.shutdown(); // persists cache.snap
    let warm_service =
        AnnotationService::start(fixture.svm_annotator(true, false).into_batch(), config);
    let restored_entries = warm_service.stats().counter("restored_cache_entries");
    let warm_results = run_corpus(&warm_service);
    let warm_stats = warm_service.shutdown();
    let warm_identical = warm_results == cold_results;

    // Sanity: the healed store loads clean on the next open (exercises
    // the open_or_build fast path on real artifacts).
    let fast =
        CorpusStore::open_or_build(&dir, || unreachable!("snapshot must load")).expect("fast path");
    assert!(matches!(fast.outcome, OpenOutcome::Loaded { .. }));

    let _ = std::fs::remove_dir_all(&dir);
    StoreReport {
        pages: pages.len(),
        snapshot_bytes,
        cold_build,
        save,
        load,
        load_speedup: cold_build.as_secs_f64() / load.as_secs_f64().max(1e-9),
        load_identical,
        delta_pages: delta_pages.len() + removed.len(),
        delta_replay,
        compact,
        compact_identical,
        restored_entries,
        cold_hit_rate: cold_stats.cache_hit_rate(),
        warm_hit_rate: warm_stats.cache_hit_rate(),
        warm_identical,
    }
}

/// Renders the report.
pub fn render(r: &StoreReport) -> String {
    let ms = |d: Duration| format!("{:.2} ms", d.as_secs_f64() * 1e3);
    let mut out = String::from(
        "Persistent store: snapshot load vs cold build, delta replay, warm restart.\n",
    );
    let mut tbl = TextTable::new(vec!["Metric", "Value"]);
    tbl.align(1, Align::Right);
    tbl.row(vec![
        "corpus".into(),
        format!(
            "{} pages, {} KiB snapshot",
            r.pages,
            r.snapshot_bytes / 1024
        ),
    ]);
    tbl.row(vec!["cold index build".into(), ms(r.cold_build)]);
    tbl.row(vec!["snapshot save".into(), ms(r.save)]);
    tbl.row(vec![
        "snapshot load".into(),
        format!(
            "{} ({:.1}x faster than cold build)",
            ms(r.load),
            r.load_speedup
        ),
    ]);
    tbl.row(vec![
        "load == built index".into(),
        r.load_identical.to_string(),
    ]);
    tbl.row(vec![
        "delta replay".into(),
        format!("{} ({} pages journaled)", ms(r.delta_replay), r.delta_pages),
    ]);
    tbl.row(vec!["compact".into(), ms(r.compact)]);
    tbl.row(vec![
        "compact == full rebuild (bytes)".into(),
        r.compact_identical.to_string(),
    ]);
    tbl.row(vec![
        "warm start".into(),
        format!("{} cache entries restored", r.restored_entries),
    ]);
    tbl.row(vec![
        "cold / warm hit rate".into(),
        format!(
            "{:.1}% / {:.1}%",
            r.cold_hit_rate * 100.0,
            r.warm_hit_rate * 100.0
        ),
    ]);
    tbl.row(vec![
        "warm == cold results".into(),
        r.warm_identical.to_string(),
    ]);
    out.push_str(&tbl.render());
    out.push_str(
        "(the snapshot is pure deserialization — no tokenizing, no interning — \
         so a restart skips the index build entirely; the restored query memo \
         turns the rerun's engine traffic into hits)\n",
    );
    out
}

/// The machine-readable record (satellite of the human table).
pub fn to_json(r: &StoreReport) -> crate::report::BenchJson {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let mut json = crate::report::BenchJson::new("store");
    json.metric("pages", r.pages as f64, "pages")
        .metric("snapshot_bytes", r.snapshot_bytes as f64, "bytes")
        .metric("cold_build", ms(r.cold_build), "ms")
        .metric("save", ms(r.save), "ms")
        .metric("load", ms(r.load), "ms")
        .metric("load_speedup", r.load_speedup, "x")
        .metric("load_identical", flag(r.load_identical), "bool")
        .metric("delta_pages", r.delta_pages as f64, "pages")
        .metric("delta_replay", ms(r.delta_replay), "ms")
        .metric("compact", ms(r.compact), "ms")
        .metric("compact_identical", flag(r.compact_identical), "bool")
        .metric("restored_entries", r.restored_entries as f64, "entries")
        .metric("cold_hit_rate", r.cold_hit_rate, "ratio")
        .metric("warm_hit_rate", r.warm_hit_rate, "ratio")
        .metric("warm_identical", flag(r.warm_identical), "bool");
    json
}

/// The persistence claims.
pub fn claims(r: &StoreReport) -> Vec<Claim> {
    vec![
        Claim::exact(
            "load_identical",
            r.load_identical,
            "loaded snapshot diverged from the freshly built index",
        ),
        Claim::exact(
            "compact_identical",
            r.compact_identical,
            "compacted snapshot is not byte-identical to a full rebuild",
        ),
        Claim::exact(
            "restored_entries > 0",
            r.restored_entries > 0,
            "the restart must start warm",
        ),
        Claim::exact(
            "warm_hit_rate >= 0.99",
            r.warm_hit_rate >= 0.99,
            format!(
                "warm-start hit rate {:.3} — the restored cache is not serving",
                r.warm_hit_rate
            ),
        ),
        Claim::exact(
            "warm_identical",
            r.warm_identical,
            "warm-start results diverged from the cold run",
        ),
        Claim::timed(
            "load < cold_build",
            r.load < r.cold_build,
            format!(
                "snapshot load ({:?}) must be faster than the cold build ({:?})",
                r.load, r.cold_build
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{assert_exact, Scale};

    #[test]
    fn store_experiment_asserts_its_own_invariants() {
        let fixture = Fixture::build(Scale::Quick, 42);
        let r = run(&fixture);
        assert_exact(&claims(&r));
        assert!(render(&r).contains("compact == full rebuild"));
    }
}
