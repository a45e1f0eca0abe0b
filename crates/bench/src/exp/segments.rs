//! Segment-level incremental indexing under measurement: the three
//! claims of the segmented-store design, each asserted in-run.
//!
//! * **O(delta) reload** — a store whose journal segments carry their
//!   partial indexes (the default `add_pages` path) must reload at
//!   least 5× faster than the same journal without embedded indexes
//!   (the legacy path: decode + re-tokenize the whole logical corpus).
//! * **zero-copy snapshot open** — the in-place [`ViewBackend`] over a
//!   heap [`MappedSnapshot`] (CRC + structural validation of every
//!   section over a shared byte buffer, no string or posting
//!   materialization) must beat the eager decode on a warm open, while
//!   answering bit-identically.
//! * **segmented = rebuild** — the read-time overlay merge
//!   ([`SegmentedCorpus`](teda_websim::SegmentedCorpus)) must produce bit-identical top-k to a full
//!   sequential rebuild of the logical page list for every probed
//!   (query, k) — including after removals and after tier compaction
//!   rewrote the journal files.

use std::sync::Arc;
use std::time::Duration;

use teda_simkit::tablefmt::{Align, TextTable};
use teda_store::corpus_snapshot::decode_corpus;
use teda_store::{CorpusStore, DeltaOp, MappedSnapshot, SnapshotBytes, TierPolicy, ViewBackend};
use teda_websim::{SearchBackend, WebCorpus, WebPage};

use crate::harness::{best_of, bits, probes, Claim, Fixture};

/// Timing repetitions (minimum of): damps scheduler noise.
const REPS: usize = 5;
/// Journaled add batches and pages per batch — a realistic trickle of
/// updates, small against the base corpus so O(delta) and O(corpus)
/// visibly diverge.
const BATCHES: usize = 8;
const BATCH_PAGES: usize = 8;

/// The segmented-store experiment report.
#[derive(Debug, Clone)]
pub struct SegmentsReport {
    /// Pages in the base snapshot.
    pub base_pages: usize,
    /// Journaled add batches.
    pub delta_batches: usize,
    /// Pages across those batches.
    pub delta_pages: usize,
    /// Publishing one add batch through the live path: build the
    /// batch's partial index, journal it, push the overlay.
    pub live_update: Duration,
    /// The work that publish used to require: re-indexing the whole
    /// logical corpus.
    pub full_reindex: Duration,
    /// `full_reindex / live_update` — the O(delta) vs O(corpus) claim.
    pub live_speedup: f64,
    /// Reload with embedded partial indexes (the O(delta) merge).
    pub incremental_load: Duration,
    /// Reload of the identical journal without embedded indexes (the
    /// legacy O(corpus) re-tokenize).
    pub full_reindex_load: Duration,
    /// `full_reindex_load / incremental_load`.
    pub incremental_speedup: f64,
    /// Whether the indexed store actually took the incremental path.
    pub incremental_path_taken: bool,
    /// Whether both loads produced field-identical indexes.
    pub loads_identical: bool,
    /// Warm in-place snapshot open: both halves verified, zero
    /// materialization.
    pub lazy_open: Duration,
    /// Warm eager snapshot decode (full materialization).
    pub eager_open: Duration,
    /// `eager_open / lazy_open`.
    pub lazy_speedup: f64,
    /// Whether in-place answers matched eager answers bit-for-bit.
    pub lazy_identical: bool,
    /// (query, k) pairs probed for segmented-vs-rebuild identity.
    pub queries_probed: usize,
    /// Whether every probe was bit-identical, before and after tier
    /// compaction.
    pub segmented_identical: bool,
    /// Tier merges performed by `maybe_compact` under the test policy.
    pub tier_merges: usize,
    /// Live segments after tier compaction.
    pub segments_after: usize,
}

fn delta_batch(batch: usize) -> Vec<WebPage> {
    (0..BATCH_PAGES)
        .map(|i| WebPage {
            url: format!("http://delta/{batch}/{i}"),
            title: format!("Delta page {batch}-{i}"),
            body: format!(
                "incremental update {batch} {i} restaurant museum river city \
                 review listing menu opening hours"
            ),
        })
        .collect()
}

/// Probe queries: fixed vocabulary that hits base pages, delta pages,
/// and nothing at all, crossed with [`PROBE_KS`].
const PROBE_QUERIES: [&str; 6] = [
    "restaurant city review",
    "incremental update museum",
    "river opening hours",
    "menu listing",
    "zzz-no-such-term",
    "delta page",
];
const PROBE_KS: [usize; 3] = [1, 3, 10];

/// Runs the experiment in `dir` (a scratch directory, wiped first).
pub fn run(fixture: &Fixture) -> SegmentsReport {
    let dir = std::env::temp_dir().join(format!("teda_exp_segments_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let base_pages: Vec<WebPage> = fixture.web.pages().to_vec();
    let base = WebCorpus::from_pages(base_pages.clone());

    // Two stores over the same base and the same logical journal: one
    // with embedded partial indexes (today's append path), one without
    // (the legacy format, still readable — the tolerant decode).
    let indexed = CorpusStore::open(dir.join("indexed")).expect("open indexed store");
    indexed.save(&base).expect("save base");
    let legacy = CorpusStore::open(dir.join("legacy")).expect("open legacy store");
    legacy.save(&base).expect("save base");
    let legacy_base_id = {
        let bytes = std::fs::read(legacy.snapshot_path()).expect("read legacy snapshot");
        teda_store::BaseId::of(&bytes)
    };
    for batch in 0..BATCHES {
        let pages = delta_batch(batch);
        indexed.add_pages(&pages).expect("journal indexed add");
        // The legacy journal: identical ops, no embedded index — the
        // on-disk shape every pre-segment store wrote.
        let seg = teda_store::delta::encode_segment(legacy_base_id, &[DeltaOp::AddPages(pages)]);
        let path = legacy
            .dir()
            .join(format!("delta-{:06}.seg", batch as u64 + 1));
        std::fs::write(&path, seg).expect("write legacy segment");
    }

    // Claim 1: O(delta) reload ≥ 5× faster than the re-tokenize path.
    let incremental_loaded = indexed.load().expect("incremental load");
    let incremental_path_taken = incremental_loaded.incremental;
    let legacy_loaded = legacy.load().expect("legacy load");
    let loads_identical = incremental_loaded.corpus.index() == legacy_loaded.corpus.index()
        && incremental_loaded.corpus.pages() == legacy_loaded.corpus.pages()
        && !legacy_loaded.incremental;
    let (incremental_load, _) = best_of(REPS, || {
        indexed.load().expect("incremental load");
    });
    let (full_reindex_load, _) = best_of(REPS, || {
        legacy.load().expect("legacy load");
    });
    let incremental_speedup =
        full_reindex_load.as_secs_f64() / incremental_load.as_secs_f64().max(1e-9);

    // Claim 1b — the live path this PR exists for: making a new batch
    // searchable costs the batch's own index build plus bookkeeping,
    // not a corpus-wide re-index. The baseline is exactly the work the
    // pre-segment design spent per update (`InvertedIndex::build` over
    // the whole logical page list).
    let live_dir = dir.join("live");
    let live_store = CorpusStore::open(&live_dir).expect("open live store");
    live_store.save(&base).expect("save live base");
    drop(live_store);
    let live =
        teda_service::LiveCorpus::open(&live_dir, TierPolicy::default()).expect("open live corpus");
    let logical_pages: Vec<WebPage> = incremental_loaded.corpus.pages().to_vec();
    let mut live_batch = 1000usize;
    let (live_update, _) = best_of(REPS, || {
        live.add_pages(delta_batch(live_batch)).expect("live add");
        live_batch += 1;
    });
    let (full_reindex, _) = best_of(REPS, || {
        teda_websim::InvertedIndex::build(&logical_pages);
    });
    let live_speedup = full_reindex.as_secs_f64() / live_update.as_secs_f64().max(1e-9);

    // Claim 2: warm in-place open beats eager decode, bit-identically.
    // The timed open verifies both halves (index and pages), so it
    // covers every check the eager decode makes.
    let snapshot_bytes: Arc<[u8]> =
        Arc::from(std::fs::read(indexed.snapshot_path()).expect("read snapshot"));
    let open_in_place = || {
        let snap = MappedSnapshot::open(SnapshotBytes::Heap(Arc::clone(&snapshot_bytes)))
            .expect("in-place open");
        let view = ViewBackend::new(Arc::clone(&snap)).expect("index half verifies");
        snap.verify_pages().expect("pages half verifies");
        view
    };
    let eager = decode_corpus(&snapshot_bytes).expect("eager decode");
    let view = open_in_place();
    let mut lazy_identical = view.n_docs() == eager.len();
    for (query, k) in probes(&PROBE_QUERIES, &PROBE_KS) {
        lazy_identical &= bits(&view.search(&query, k)) == bits(&eager.index().search(&query, k));
    }
    let (eager_open, _) = best_of(REPS, || {
        decode_corpus(&snapshot_bytes).expect("eager decode");
    });
    let (lazy_open, _) = best_of(REPS, || {
        open_in_place();
    });
    let lazy_speedup = eager_open.as_secs_f64() / lazy_open.as_secs_f64().max(1e-9);

    // Claim 3: segmented reads are bit-identical to a full rebuild —
    // with removals in the journal, and again after tier compaction
    // rewrote the segment files.
    let removed: Vec<String> = base_pages
        .iter()
        .take(8)
        .map(|p| p.url.clone())
        .chain(std::iter::once("http://delta/0/0".to_string()))
        .collect();
    indexed.remove_pages(&removed).expect("journal removals");
    let mut queries_probed = 0usize;
    let mut segmented_identical = true;
    let mut check_identity = |store: &CorpusStore| {
        let segmented = store.load_segmented().expect("segmented open").corpus;
        let oracle = WebCorpus::from_pages(segmented.to_pages());
        for (query, k) in probes(&PROBE_QUERIES, &PROBE_KS) {
            queries_probed += 1;
            segmented_identical &=
                bits(&segmented.search(&query, k)) == bits(&oracle.index().search(&query, k));
        }
    };
    check_identity(&indexed);
    let policy = TierPolicy {
        max_segments: 3,
        fanout: 2,
        max_removed: 1 << 20, // keep the journal: this run probes merges
    };
    let report = indexed.maybe_compact(policy).expect("tier compaction");
    check_identity(&indexed);

    let _ = std::fs::remove_dir_all(&dir);
    SegmentsReport {
        base_pages: base_pages.len(),
        delta_batches: BATCHES,
        delta_pages: BATCHES * BATCH_PAGES,
        live_update,
        full_reindex,
        live_speedup,
        incremental_load,
        full_reindex_load,
        incremental_speedup,
        incremental_path_taken,
        loads_identical,
        lazy_open,
        eager_open,
        lazy_speedup,
        lazy_identical,
        queries_probed,
        segmented_identical,
        tier_merges: report.merges,
        segments_after: report.segments_after,
    }
}

/// Renders the report.
pub fn render(r: &SegmentsReport) -> String {
    let ms = |d: Duration| format!("{:.2} ms", d.as_secs_f64() * 1e3);
    let mut out = String::from(
        "Segmented store: O(delta) reload, zero-copy snapshot open, overlay identity.\n",
    );
    let mut tbl = TextTable::new(vec!["Metric", "Value"]);
    tbl.align(1, Align::Right);
    tbl.row(vec![
        "corpus".into(),
        format!(
            "{} base pages + {} delta pages in {} batches",
            r.base_pages, r.delta_pages, r.delta_batches
        ),
    ]);
    tbl.row(vec!["live publish (one batch)".into(), ms(r.live_update)]);
    tbl.row(vec!["full corpus re-index".into(), ms(r.full_reindex)]);
    tbl.row(vec![
        "live update speedup".into(),
        format!("{:.1}x", r.live_speedup),
    ]);
    tbl.row(vec![
        "reload, embedded indexes".into(),
        format!(
            "{} ({})",
            ms(r.incremental_load),
            if r.incremental_path_taken {
                "O(delta) path"
            } else {
                "fell back!"
            }
        ),
    ]);
    tbl.row(vec![
        "reload, legacy re-index".into(),
        ms(r.full_reindex_load),
    ]);
    tbl.row(vec![
        "incremental speedup".into(),
        format!("{:.1}x", r.incremental_speedup),
    ]);
    tbl.row(vec![
        "identical indexes".into(),
        r.loads_identical.to_string(),
    ]);
    tbl.row(vec![
        "snapshot open, in place (warm)".into(),
        ms(r.lazy_open),
    ]);
    tbl.row(vec!["snapshot open, eager (warm)".into(), ms(r.eager_open)]);
    tbl.row(vec![
        "in-place speedup".into(),
        format!("{:.1}x", r.lazy_speedup),
    ]);
    tbl.row(vec![
        "in place == eager answers".into(),
        r.lazy_identical.to_string(),
    ]);
    tbl.row(vec![
        "segmented == rebuild".into(),
        format!(
            "{} ({} probes, incl. removals + post-compaction)",
            r.segmented_identical, r.queries_probed
        ),
    ]);
    tbl.row(vec![
        "tier compaction".into(),
        format!("{} merges -> {} segments", r.tier_merges, r.segments_after),
    ]);
    out.push_str(&tbl.render());
    out.push_str(
        "(the journal carries each add batch's partial index, so a reload merges \
         index shards instead of re-tokenizing the corpus; the in-place open keeps the \
         snapshot bytes as the backing store and validates instead of allocating)\n",
    );
    out
}

/// The machine-readable record (satellite of the human table).
pub fn to_json(r: &SegmentsReport) -> crate::report::BenchJson {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let mut json = crate::report::BenchJson::new("segments");
    json.metric("base_pages", r.base_pages as f64, "pages")
        .metric("delta_pages", r.delta_pages as f64, "pages")
        .metric("live_update", ms(r.live_update), "ms")
        .metric("full_reindex", ms(r.full_reindex), "ms")
        .metric("live_speedup", r.live_speedup, "x")
        .metric("incremental_load", ms(r.incremental_load), "ms")
        .metric("full_reindex_load", ms(r.full_reindex_load), "ms")
        .metric("incremental_speedup", r.incremental_speedup, "x")
        .metric(
            "incremental_path_taken",
            flag(r.incremental_path_taken),
            "bool",
        )
        .metric("loads_identical", flag(r.loads_identical), "bool")
        .metric("lazy_open", ms(r.lazy_open), "ms")
        .metric("eager_open", ms(r.eager_open), "ms")
        .metric("lazy_speedup", r.lazy_speedup, "x")
        .metric("lazy_identical", flag(r.lazy_identical), "bool")
        .metric("queries_probed", r.queries_probed as f64, "queries")
        .metric("segmented_identical", flag(r.segmented_identical), "bool")
        .metric("tier_merges", r.tier_merges as f64, "merges")
        .metric("segments_after", r.segments_after as f64, "segments");
    json
}

/// The segmented-store claims.
pub fn claims(r: &SegmentsReport) -> Vec<Claim> {
    vec![
        Claim::exact(
            "incremental_path_taken",
            r.incremental_path_taken,
            "the indexed journal must reload through the O(delta) merge",
        ),
        Claim::exact(
            "loads_identical",
            r.loads_identical,
            "incremental and legacy loads must produce identical corpora",
        ),
        Claim::exact(
            "lazy_identical",
            r.lazy_identical,
            "the in-place view diverged from the eager decode",
        ),
        Claim::exact(
            "segmented_identical",
            r.segmented_identical,
            "segmented top-k diverged from the full rebuild",
        ),
        Claim::exact(
            "tier_merges > 0",
            r.tier_merges > 0,
            "the tier policy must have merged",
        ),
        Claim::exact(
            "segments_after <= 3",
            r.segments_after <= 3,
            format!("segment count must be bounded, got {}", r.segments_after),
        ),
        Claim::timed(
            "live_speedup >= 5",
            r.live_speedup >= 5.0,
            format!(
                "publishing a delta must be >= 5x faster than a full re-index, got {:.1}x",
                r.live_speedup
            ),
        ),
        Claim::timed(
            "incremental_load < full_reindex_load",
            r.incremental_load < r.full_reindex_load,
            format!(
                "the indexed journal must reload faster ({:?}) than the legacy \
                 re-tokenize path ({:?})",
                r.incremental_load, r.full_reindex_load
            ),
        ),
        Claim::timed(
            "lazy_open < eager_open",
            r.lazy_open < r.eager_open,
            format!(
                "warm in-place open ({:?}) must beat eager decode ({:?})",
                r.lazy_open, r.eager_open
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{assert_exact, Scale};

    #[test]
    fn segments_experiment_asserts_its_own_invariants() {
        let fixture = Fixture::build(Scale::Quick, 42);
        let r = run(&fixture);
        assert_exact(&claims(&r));
        assert!(render(&r).contains("segmented == rebuild"));
        assert!(to_json(&r).render().contains("\"incremental_speedup\""));
    }
}
