//! Persistence integration: the acceptance gate of the `teda-store`
//! subsystem, run by CI on every push (`cargo test --test store`).
//!
//! What must hold:
//!
//! * `load(save(corpus))` yields **bit-identical** search results for
//!   every query — not approximately equal scores, the same bits.
//! * `compact(base + deltas)` writes a snapshot **byte-identical** to a
//!   full sequential rebuild of the same logical corpus.
//! * Corrupted, truncated, or version-skewed snapshots come back as
//!   typed [`StoreError`]s — never a panic — and `open_or_build` falls
//!   back to a fresh build that heals the store.
//! * A restored [`QueryCache`] serves hits without touching the engine.
//! * A crash between the temp-file write and the atomic rename leaves a
//!   `.tmp` that the next open sweeps, with the previous snapshot
//!   intact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use teda::kb::{World, WorldSpec};
use teda::service::LiveCorpus;
use teda::store::delta::{adopt_index, encode_segment_indexed, read_segment};
use teda::store::format::{decode_container, encode_container, KIND_DELTA};
use teda::store::{
    load_cache_snapshot, save_cache_snapshot, BaseId, CorpusStore, DeltaOp, MappedSnapshot,
    OpenOutcome, SnapshotBytes, StoreError, TierPolicy, ViewBackend, CACHE_FILE, SNAPSHOT_FILE,
};
use teda::websim::{
    InvertedIndex, PageId, SearchEngine, SearchResult, SegmentedCorpus, WebCorpus, WebCorpusSpec,
    WebPage,
};

fn corpus(seed: u64) -> WebCorpus {
    let world = World::generate(WorldSpec::tiny(), seed);
    WebCorpus::build(&world, WebCorpusSpec::tiny(), seed)
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("teda_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn page(url: &str, title: &str, body: &str) -> WebPage {
    WebPage {
        url: url.into(),
        title: title.into(),
        body: body.into(),
    }
}

/// Every-query probe: the full vocabulary plus multi-term and unknown
/// queries, compared as exact `(PageId, f64)` sequences — `f64` equality
/// here is bit equality for every value BM25 can produce.
fn assert_bit_identical_everywhere(a: &WebCorpus, b: &WebCorpus) {
    let probes: Vec<String> = a
        .pages()
        .iter()
        .take(40)
        .flat_map(|p| {
            let title = p.title.clone();
            let lead: String = p
                .body
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" ");
            [title, lead]
        })
        .chain([
            "melisse restaurant".into(),
            "zanzibar xylophone".into(),
            String::new(),
        ])
        .collect();
    for q in &probes {
        for k in [1, 3, 10] {
            assert_eq!(
                a.index().search(q, k),
                b.index().search(q, k),
                "query {q:?} k {k} diverged after persistence"
            );
        }
    }
}

#[test]
fn load_of_save_is_bit_identical_for_every_query() {
    let dir = temp_store("roundtrip");
    let original = corpus(42);
    let store = CorpusStore::open(&dir).expect("open store");
    store.save(&original).expect("save snapshot");

    let loaded = store.load().expect("load snapshot");
    assert_eq!(loaded.replayed_segments, 0, "pure snapshot load");
    assert_eq!(
        loaded.corpus.index(),
        original.index(),
        "loaded index must be field-identical to the saved one"
    );
    assert_eq!(loaded.corpus.pages(), original.pages());
    assert_bit_identical_everywhere(&loaded.corpus, &original);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_is_byte_identical_to_a_full_rebuild() {
    let dir = temp_store("compact");
    let base = corpus(7);
    let store = CorpusStore::open(&dir).expect("open store");
    store.save(&base).expect("save base");

    // Journal a realistic churn: new pages, a removal reaching both a
    // base page and a freshly added page, then more additions.
    let added_a = vec![
        page(
            "http://new/0",
            "Nouvelle Table",
            "nouvelle table restaurant menu chef",
        ),
        page(
            "http://new/1",
            "Nouvelle Records",
            "nouvelle records jazz label sessions",
        ),
    ];
    let removed = vec![base.pages()[3].url.clone(), "http://new/1".to_string()];
    let added_b = vec![page(
        "http://new/2",
        "Late addition",
        "late addition listing city",
    )];
    store.add_pages(&added_a).expect("journal add");
    store.remove_pages(&removed).expect("journal remove");
    store.add_pages(&added_b).expect("journal add 2");
    assert_eq!(store.delta_segments().unwrap().len(), 3);

    // The logical corpus, derived independently of the store.
    let mut logical = base.pages().to_vec();
    DeltaOp::AddPages(added_a).apply(&mut logical);
    DeltaOp::RemovePages(removed).apply(&mut logical);
    DeltaOp::AddPages(added_b).apply(&mut logical);

    // Replay must already serve the logical corpus…
    let replayed = store.load().expect("load with deltas");
    assert_eq!(replayed.replayed_segments, 3);
    assert_eq!(replayed.corpus.pages(), &logical[..]);

    // …and compaction must write the *byte-identical* snapshot a full
    // from-scratch rebuild of the same logical corpus would write.
    let compacted = store.compact().expect("compact");
    assert!(
        store.delta_segments().unwrap().is_empty(),
        "journal folded in"
    );
    let compact_bytes = std::fs::read(store.snapshot_path()).expect("read compacted snapshot");

    let rebuild_dir = temp_store("compact_ref");
    let rebuild_store = CorpusStore::open(&rebuild_dir).expect("open reference store");
    let rebuilt = WebCorpus::from_pages(logical);
    rebuild_store.save(&rebuilt).expect("save rebuild");
    let rebuild_bytes = std::fs::read(rebuild_store.snapshot_path()).expect("read rebuild");
    assert!(
        compact_bytes == rebuild_bytes,
        "compacted snapshot diverged from the full-rebuild snapshot ({} vs {} bytes)",
        compact_bytes.len(),
        rebuild_bytes.len()
    );
    assert_eq!(compacted.index(), rebuilt.index());
    assert_bit_identical_everywhere(&compacted, &rebuilt);

    // After compaction, the next load is a pure snapshot load again.
    let after = store.load().expect("load after compact");
    assert_eq!(after.replayed_segments, 0);
    assert_eq!(after.corpus.index(), rebuilt.index());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&rebuild_dir);
}

#[test]
fn corruption_comes_back_typed_and_open_or_build_heals() {
    let dir = temp_store("corrupt");
    let original = corpus(11);
    let store = CorpusStore::open(&dir).expect("open");
    store.save(&original).expect("save");
    let snap = store.snapshot_path();
    let good = std::fs::read(&snap).expect("read snapshot");

    // Truncations at every prefix must fail typed, never panic. (The
    // whole-file sweep is cheap: decoding fails fast.)
    for cut in [0, 4, 12, 19, 20, 40, good.len() / 2, good.len() - 1] {
        std::fs::write(&snap, &good[..cut]).unwrap();
        let err = store.load().expect_err("truncated snapshot must not load");
        assert!(
            !err.is_missing(),
            "cut {cut}: truncation is damage, not absence"
        );
    }

    // A flipped payload bit fails its section checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&snap, &flipped).unwrap();
    assert!(
        matches!(
            store.load(),
            Err(StoreError::ChecksumMismatch { .. }) | Err(StoreError::Corrupt(_))
        ),
        "bit rot must be caught by a CRC or a structural check"
    );

    // Wrong format version and wrong magic are their own stories.
    let mut skewed = good.clone();
    skewed[8] = 0xFE;
    std::fs::write(&snap, &skewed).unwrap();
    assert!(matches!(
        store.load(),
        Err(StoreError::UnsupportedVersion { found, .. }) if found != 1
    ));
    let mut alien = good.clone();
    alien[..8].copy_from_slice(b"NOTTEDA!");
    std::fs::write(&snap, &alien).unwrap();
    assert_eq!(store.load().unwrap_err(), StoreError::BadMagic);

    // The service-facing fast path heals the store: typed fallback,
    // fresh build, and the *next* open loads clean.
    let builds = AtomicUsize::new(0);
    let report = CorpusStore::open_or_build(&dir, || {
        builds.fetch_add(1, Ordering::Relaxed);
        corpus(11)
    })
    .expect("open_or_build over a rotten snapshot");
    assert!(
        matches!(report.outcome, OpenOutcome::Rebuilt(StoreError::BadMagic)),
        "the fallback must carry the typed reason, got {:?}",
        report.outcome
    );
    assert_eq!(builds.load(Ordering::Relaxed), 1);
    assert_eq!(report.corpus.index(), original.index());

    let healed = CorpusStore::open_or_build(&dir, || unreachable!("healed store must load"))
        .expect("open_or_build after healing");
    assert!(matches!(
        healed.outcome,
        OpenOutcome::Loaded {
            replayed_segments: 0
        }
    ));
    assert_bit_identical_everywhere(&healed.corpus, &original);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_or_build_cold_start_builds_once_then_loads() {
    let dir = temp_store("cold");
    let builds = AtomicUsize::new(0);
    let first = CorpusStore::open_or_build(&dir, || {
        builds.fetch_add(1, Ordering::Relaxed);
        corpus(5)
    })
    .expect("cold open");
    assert!(matches!(first.outcome, OpenOutcome::Built));
    let second = CorpusStore::open_or_build(&dir, || {
        builds.fetch_add(1, Ordering::Relaxed);
        corpus(5)
    })
    .expect("warm open");
    assert!(matches!(second.outcome, OpenOutcome::Loaded { .. }));
    assert_eq!(
        builds.load(Ordering::Relaxed),
        1,
        "one build, then snapshots"
    );
    assert_eq!(second.corpus.index(), first.corpus.index());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_delta_segment_is_typed_and_does_not_poison_the_base() {
    let dir = temp_store("baddelta");
    let base = corpus(3);
    let store = CorpusStore::open(&dir).expect("open");
    store.save(&base).expect("save");
    store
        .add_pages(&[page("http://ok/0", "fine", "fine page body")])
        .expect("good segment");
    std::fs::write(dir.join("delta-000002.seg"), b"rotten segment").unwrap();
    assert!(
        store.load().is_err(),
        "a rotten segment must surface, typed"
    );
    // open_or_build falls back to a rebuild and truncates the journal.
    let report = CorpusStore::open_or_build(&dir, || corpus(3)).expect("heal");
    assert!(matches!(report.outcome, OpenOutcome::Rebuilt(_)));
    assert!(store.delta_segments().unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A counting engine for the warm-start proof.
struct Counting(AtomicUsize);

impl SearchEngine for Counting {
    fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        self.0.fetch_add(1, Ordering::Relaxed);
        (0..k)
            .map(|i| SearchResult {
                url: format!("http://c/{query}/{i}"),
                title: format!("t{i}"),
                snippet: format!("{query} snippet {i}"),
            })
            .collect()
    }
}

#[test]
fn restored_query_cache_serves_hits_without_re_searching() {
    use teda::core::cache::QueryCache;

    let dir = temp_store("cache");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(CACHE_FILE);

    // Generation one: populate, persist.
    let cache = QueryCache::default();
    let engine = Counting(AtomicUsize::new(0));
    let expected: Vec<Arc<[SearchResult]>> = ["melisse", "louvre", "bayona"]
        .iter()
        .map(|q| cache.get_or_search(&engine, q, 5))
        .collect();
    assert_eq!(engine.0.load(Ordering::Relaxed), 3);
    save_cache_snapshot(&path, &cache.export_entries()).expect("persist cache");

    // Generation two: restore, replay the same queries — zero engine
    // calls, bit-identical results.
    let reborn = QueryCache::default();
    let restored = reborn.restore_entries(load_cache_snapshot(&path).expect("load cache"));
    assert_eq!(restored, 3);
    let engine2 = Counting(AtomicUsize::new(0));
    for (q, want) in ["melisse", "louvre", "bayona"].iter().zip(&expected) {
        let got = reborn.get_or_search(&engine2, q, 5);
        assert_eq!(&got, want, "restored result diverged for {q:?}");
    }
    assert_eq!(
        engine2.0.load(Ordering::Relaxed),
        0,
        "a restored cache must answer without re-searching"
    );
    assert_eq!(reborn.stats().hits, 3);

    // Corrupt cache snapshots are typed errors, not panics.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
    assert!(load_cache_snapshot(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corpus update invalidates the co-located cache snapshot: restored
/// entries must never describe a corpus that no longer exists.
#[test]
fn corpus_save_invalidates_the_co_located_cache_snapshot() {
    use teda::core::cache::QueryCache;

    let dir = temp_store("invalidate");
    let store = CorpusStore::open(&dir).expect("open");
    store.save(&corpus(21)).expect("save generation one");

    // A service persisted its memo beside the corpus…
    let cache = QueryCache::default();
    let engine = Counting(AtomicUsize::new(0));
    cache.get_or_search(&engine, "melisse", 3);
    save_cache_snapshot(&store.cache_path(), &cache.export_entries()).expect("persist cache");
    assert!(store.cache_path().exists());

    // …then the corpus changed (compaction after deltas): the memo
    // file must be gone, so the next service start is cold, not wrong.
    store
        .add_pages(&[page("http://new/0", "New", "new page body")])
        .expect("journal");
    store.compact_in_place().expect("compact");
    assert!(
        !store.cache_path().exists(),
        "a corpus rewrite must invalidate the co-located cache snapshot"
    );
    assert!(load_cache_snapshot(&store.cache_path())
        .expect_err("no cache file")
        .is_missing());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal append changes the corpus as much as a save does: the
/// co-located cache snapshot is removed before the segment lands, so a
/// crash right after an update restarts cold instead of serving
/// pre-update entries as hits.
#[test]
fn journal_appends_remove_the_co_located_cache_snapshot() {
    use teda::core::cache::QueryCache;

    let dir = temp_store("append_invalidate");
    let store = CorpusStore::open(&dir).expect("open");
    store.save(&corpus(22)).expect("save");
    let persist = || {
        let cache = QueryCache::default();
        cache.get_or_search(&Counting(AtomicUsize::new(0)), "melisse", 3);
        save_cache_snapshot(&store.cache_path(), &cache.export_entries()).expect("persist cache");
        assert!(store.cache_path().exists());
    };

    persist();
    store
        .add_pages(&[page("http://new/0", "New", "new page body")])
        .expect("journal add");
    assert!(
        !store.cache_path().exists(),
        "an add must remove the co-located cache snapshot"
    );

    persist();
    store
        .remove_pages(&["http://new/0".to_string()])
        .expect("journal remove");
    assert!(
        !store.cache_path().exists(),
        "a removal must remove the co-located cache snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent `SNAPSHOT` requests (each wire connection runs on its own
/// thread) must not trample each other's temp files: every write uses a
/// unique temp name, so the published snapshot is always one writer's
/// complete image.
#[test]
fn concurrent_cache_snapshots_never_publish_a_torn_file() {
    use teda::core::cache::QueryCache;

    let dir = temp_store("concurrent");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(CACHE_FILE);
    let cache = QueryCache::default();
    let engine = Counting(AtomicUsize::new(0));
    for i in 0..32 {
        cache.get_or_search(&engine, &format!("q{i}"), 4);
    }
    let entries = cache.export_entries();
    std::thread::scope(|s| {
        for _ in 0..8 {
            let entries = &entries;
            let path = &path;
            s.spawn(move || {
                for _ in 0..16 {
                    save_cache_snapshot(path, entries).expect("concurrent snapshot write");
                }
            });
        }
    });
    let restored = load_cache_snapshot(&path).expect("snapshot must decode after the race");
    assert_eq!(restored.len(), entries.len());
    // No temp litter left behind either.
    let tmps = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "tmp")
        })
        .count();
    assert_eq!(tmps, 0, "every writer renames its own temp file away");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression (crash window between a compaction's snapshot rename and
/// its journal deletion): segments already folded into the snapshot
/// must NOT be replayed again — they are bound to the old snapshot's
/// bytes, so the next load skips and sweeps them.
#[test]
fn stale_segments_after_an_interrupted_compaction_are_not_double_applied() {
    let dir = temp_store("interrupted");
    let base = corpus(13);
    let store = CorpusStore::open(&dir).expect("open");
    store.save(&base).expect("save base");
    store
        .add_pages(&[page("http://once/0", "Once", "must appear exactly once")])
        .expect("journal add");
    let segment_path = store.delta_segments().unwrap()[0].clone();
    let segment_bytes = std::fs::read(&segment_path).expect("segment bytes");

    let compacted = store.compact().expect("compact folds the journal");
    assert_eq!(compacted.len(), base.len() + 1);

    // Simulate the crash: the folded snapshot is in place, but the old
    // segment "survived" the interrupted deletion pass.
    std::fs::write(&segment_path, &segment_bytes).unwrap();
    let loaded = store.load().expect("load after interrupted compaction");
    assert_eq!(
        loaded.replayed_segments, 0,
        "a segment bound to the pre-compaction snapshot must not replay"
    );
    assert_eq!(
        loaded.corpus.index(),
        compacted.index(),
        "double-applying the folded delta would have changed the index"
    );
    assert_eq!(
        loaded
            .corpus
            .pages()
            .iter()
            .filter(|p| p.url == "http://once/0")
            .count(),
        1,
        "the journaled page must appear exactly once"
    );
    assert!(
        store.delta_segments().unwrap().is_empty(),
        "the stale segment is swept, not kept"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_between_temp_write_and_rename_is_recovered() {
    let dir = temp_store("crash");
    let original = corpus(9);
    let store = CorpusStore::open(&dir).expect("open");
    store.save(&original).expect("save generation one");

    // Simulate the crash: a newer snapshot died after its temp write
    // but before the rename — plus a torn cache temp for good measure.
    let stale_snap = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let stale_cache = dir.join(format!("{CACHE_FILE}.tmp"));
    std::fs::write(&stale_snap, b"half-written snapshot of generation two").unwrap();
    std::fs::write(&stale_cache, b"half-written cache").unwrap();

    // Re-open: the leftovers are swept, generation one is intact.
    let reopened = CorpusStore::open(&dir).expect("re-open after crash");
    assert!(
        !stale_snap.exists(),
        "stale snapshot tmp must be swept at open"
    );
    assert!(
        !stale_cache.exists(),
        "stale cache tmp must be swept at open"
    );
    let loaded = reopened.load().expect("generation one survives the crash");
    assert_eq!(loaded.corpus.index(), original.index());

    // And the sweep never touches real artifacts.
    assert!(reopened.snapshot_path().exists());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Segment-level incremental indexing: randomized properties. The PR's
// core invariant — segmented reads are bit-identical to a full rebuild
// at every (query, k) under every segment configuration — plus the
// trust boundary: forged or rotted embedded indexes come back as typed
// errors or a silent re-index, never a panic and never wrong results.
// ---------------------------------------------------------------------

/// Deliberately tiny vocabulary: heavy term overlap across pages and
/// segments is the adversarial case for posting-list merges and idf.
const VOCAB: &[&str] = &[
    "harbor", "museum", "jazz", "espresso", "quartet", "granite", "lantern", "orchard", "velvet",
    "cinnamon", "atlas", "meridian",
];

fn synth_words(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| *VOCAB.choose(rng).expect("vocab is non-empty"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn synth_page(rng: &mut StdRng, url: &str) -> WebPage {
    let n_title = rng.gen_range(1..=3);
    let title = synth_words(rng, n_title);
    let n_body = rng.gen_range(4..=12);
    let body = synth_words(rng, n_body);
    page(url, &title, &body)
}

/// Probe set for the synthetic vocabulary: single terms, multi-term
/// queries, an unknown term, and the empty query.
fn vocab_probes() -> Vec<String> {
    let mut probes: Vec<String> = VOCAB.iter().take(6).map(|w| (*w).to_string()).collect();
    probes.push("harbor museum jazz".into());
    probes.push("espresso quartet".into());
    probes.push("zanzibar xylophone".into());
    probes.push(String::new());
    probes
}

fn bits(hits: &[(PageId, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

/// Both persistence read paths — eager replay (`load`) and overlay open
/// (`load_segmented`) — against a hand-replayed full rebuild, compared
/// as exact `(page id, score bits)` sequences.
fn assert_replay_matches_rebuild(store: &CorpusStore, rebuild: &WebCorpus) {
    let loaded = store.load().expect("load replays the journal");
    assert_eq!(loaded.corpus.pages(), rebuild.pages());
    let seg = store.load_segmented().expect("segmented open");
    assert_eq!(seg.corpus.n_docs(), rebuild.pages().len());
    for q in vocab_probes() {
        for k in [1, 3, 10] {
            let want = bits(&rebuild.index().search(&q, k));
            assert_eq!(
                bits(&loaded.corpus.index().search(&q, k)),
                want,
                "load() diverged on {q:?} k {k}"
            );
            assert_eq!(
                bits(&seg.corpus.search(&q, k)),
                want,
                "load_segmented() diverged on {q:?} k {k}"
            );
        }
    }
}

proptest::proptest! {
    /// Random add/remove op sequences sliced into random journal
    /// segments: both load paths replay to the exact corpus a full
    /// rebuild produces, before and after tier compaction under a
    /// random (tight) policy.
    #[test]
    fn random_journals_replay_bit_identical_on_both_load_paths(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_base = rng.gen_range(4..=12usize);
        let base_pages: Vec<WebPage> = (0..n_base)
            .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
            .collect();
        let base = WebCorpus::from_pages(base_pages.clone());
        let dir = temp_store(&format!("prop_replay_{seed}"));
        let store = CorpusStore::open(&dir).expect("open store");
        store.save(&base).expect("save base");

        let mut oracle = base_pages;
        let mut pure_adds = true;
        let n_segments = rng.gen_range(1..=5usize);
        for s in 0..n_segments {
            let n_ops = rng.gen_range(1..=3usize);
            let mut ops = Vec::new();
            for o in 0..n_ops {
                if oracle.is_empty() || rng.gen_bool(0.7) {
                    let n = rng.gen_range(1..=4usize);
                    let pages: Vec<WebPage> = (0..n)
                        .map(|i| synth_page(&mut rng, &format!("http://delta/{s}/{o}/{i}")))
                        .collect();
                    ops.push(DeltaOp::AddPages(pages));
                } else {
                    pure_adds = false;
                    let mut urls = Vec::new();
                    for _ in 0..rng.gen_range(1..=2usize) {
                        if let Some(p) = oracle.choose(&mut rng) {
                            urls.push(p.url.clone());
                        }
                    }
                    if rng.gen_bool(0.3) {
                        urls.push("http://nowhere/".into());
                    }
                    ops.push(DeltaOp::RemovePages(urls));
                }
            }
            for op in &ops {
                op.apply(&mut oracle);
            }
            store.append_segment(&ops).expect("append segment");
        }
        let rebuild = WebCorpus::from_pages(oracle.clone());

        let loaded = store.load().expect("load");
        proptest::prop_assert_eq!(loaded.replayed_segments, n_segments);
        // Pure additions (with their journaled indexes) take the
        // O(delta) merge; any removal forces the re-tokenize path.
        proptest::prop_assert_eq!(loaded.incremental, pure_adds);
        let seg = store.load_segmented().expect("segmented open");
        if pure_adds {
            proptest::prop_assert_eq!(seg.reindexed_ops, 0);
        }
        assert_replay_matches_rebuild(&store, &rebuild);

        // A random tight tier policy: the journal shrinks under the
        // bound and replay stays exact through the merged runs.
        let policy = TierPolicy {
            max_segments: rng.gen_range(1..=3usize),
            fanout: rng.gen_range(2..=4usize),
            max_removed: if rng.gen_bool(0.5) { 0 } else { 1 << 20 },
        };
        store.maybe_compact(policy).expect("maybe_compact");
        proptest::prop_assert!(
            store.delta_segments().expect("list").len() <= policy.max_segments
        );
        assert_replay_matches_rebuild(&store, &rebuild);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One flipped bit or truncation anywhere in an indexed segment
    /// file: the segment reader returns a typed error (or the rot is
    /// provably inert), and a store open either errors typed or serves
    /// a corpus consistent with the journal — never a panic, never
    /// wrong results.
    #[test]
    fn rotted_segment_bytes_come_back_typed_and_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base_pages: Vec<WebPage> = (0..4)
            .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
            .collect();
        let delta_pages: Vec<WebPage> = (0..3)
            .map(|i| synth_page(&mut rng, &format!("http://delta/{i}")))
            .collect();
        let dir = temp_store(&format!("prop_rot_{seed}"));
        let store = CorpusStore::open(&dir).expect("open store");
        store
            .save(&WebCorpus::from_pages(base_pages.clone()))
            .expect("save base");
        store
            .append_segment(&[DeltaOp::AddPages(delta_pages.clone())])
            .expect("append");
        let seg_path = store.delta_segments().expect("list")[0].clone();
        let good = std::fs::read(&seg_path).expect("read segment");

        let mut bad = good.clone();
        if rng.gen_bool(0.3) {
            let cut = rng.gen_range(0..bad.len());
            bad.truncate(cut);
        } else {
            let pos = rng.gen_range(0..bad.len());
            let mask = rng.gen_range(1u8..=255);
            bad[pos] ^= mask;
        }
        std::fs::write(&seg_path, &bad).expect("write rotted segment");

        // Every section payload is CRC-framed, so damage is a typed
        // error; if the segment still reads, its ops are the original
        // ones (the rot landed on inert bytes) or none at all (the add
        // section's tag turned into an index tag, so both sections are
        // index sections that follow no add and are dropped — the
        // loads below then serve the base alone).
        if let Ok(payload) = read_segment(&bad) {
            proptest::prop_assert!(
                payload.ops.is_empty()
                    || payload.ops == vec![DeltaOp::AddPages(delta_pages.clone())]
            );
        }

        let full: Vec<WebPage> = base_pages
            .iter()
            .chain(&delta_pages)
            .cloned()
            .collect();
        match store.load() {
            Err(e) => {
                // Typed, and named precisely — not a catch-all panic
                // turned into a string.
                let msg = e.to_string();
                proptest::prop_assert!(!msg.is_empty());
            }
            Ok(loaded) => {
                // Only two legal corpora exist: base + delta (inert
                // rot) or base alone (the segment was swept as a stale
                // binding).
                let pages = loaded.corpus.pages();
                proptest::prop_assert!(
                    pages == full.as_slice() || pages == base_pages.as_slice(),
                    "rot produced a corpus matching neither the journal nor the base"
                );
            }
        }
        match store.load_segmented() {
            Err(e) => proptest::prop_assert!(!e.to_string().is_empty()),
            Ok(seg) => {
                let n = seg.corpus.n_docs();
                proptest::prop_assert!(n == full.len() || n == base_pages.len());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn forged_embedded_index_degrades_to_a_re_index_never_wrong_results() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let base_pages: Vec<WebPage> = (0..5)
        .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
        .collect();
    let delta_pages: Vec<WebPage> = (0..3)
        .map(|i| synth_page(&mut rng, &format!("http://delta/{i}")))
        .collect();
    let dir = temp_store("forged_index");
    let store = CorpusStore::open(&dir).expect("open store");
    store
        .save(&WebCorpus::from_pages(base_pages.clone()))
        .expect("save base");
    let base_id = {
        let bytes = std::fs::read(store.snapshot_path()).expect("read snapshot");
        BaseId::of(&bytes)
    };

    // Forgery 1: an index built from a *subset* of the pages it rides
    // with — structurally valid, semantically short one document.
    let short_parts = InvertedIndex::build(&delta_pages[..2]).to_parts();
    let ops = vec![DeltaOp::AddPages(delta_pages.clone())];
    std::fs::write(
        dir.join("delta-000001.seg"),
        encode_segment_indexed(base_id, &ops, &[Some(short_parts)]),
    )
    .expect("write forged segment");

    // The segment reads, index section and all; adoption — the trust
    // boundary — refuses the count mismatch.
    let forged = std::fs::read(dir.join("delta-000001.seg")).expect("read forged");
    let payload = read_segment(&forged).expect("forged segment is structurally valid");
    assert!(payload.add_indexes[0].is_some());
    assert!(adopt_index(payload.add_indexes[0], &delta_pages).is_none());

    // The store itself degrades: the ops replay, the refused index is
    // dropped, and replay re-tokenizes — results stay exact.
    let rebuild = WebCorpus::from_pages(base_pages.iter().chain(&delta_pages).cloned().collect());
    let loaded = store.load().expect("load degrades, not errors");
    assert!(
        !loaded.incremental,
        "a forged index must never be merged as-is"
    );
    let seg = store.load_segmented().expect("segmented open degrades too");
    assert_eq!(
        seg.reindexed_ops, 1,
        "the forged add must be re-tokenized, not adopted"
    );
    assert_eq!(seg.prebuilt_ops, 0);
    assert_replay_matches_rebuild(&store, &rebuild);

    // Forgery 2: the document count matches the op, but the doc-length
    // table inside the parts is short — structurally decodable, caught
    // only by `InvertedIndex::from_parts` semantic validation. Both
    // read paths fall back to a re-index instead of adopting it.
    let mut lying_parts = InvertedIndex::build(&delta_pages).to_parts();
    lying_parts.doc_len_bits.pop();
    std::fs::write(
        dir.join("delta-000001.seg"),
        encode_segment_indexed(base_id, &ops, &[Some(lying_parts)]),
    )
    .expect("overwrite with lying segment");
    let lying = std::fs::read(dir.join("delta-000001.seg")).expect("read lying");
    let payload = read_segment(&lying).expect("lying segment is structurally valid");
    assert!(payload.add_indexes[0].is_some());
    assert!(adopt_index(payload.add_indexes[0], &delta_pages).is_none());
    let loaded = store.load().expect("load degrades on lying parts");
    assert!(!loaded.incremental);
    let seg = store.load_segmented().expect("segmented open degrades too");
    assert_eq!(seg.reindexed_ops, 1);
    assert_replay_matches_rebuild(&store, &rebuild);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One segment with two adds, the second add's index unusable — moved
/// away from its add, or covering the wrong page count: adoption is
/// decided per add, so the first add keeps its journaled index and only
/// the second is re-tokenized, on both overlay opens, and every probe
/// ranks exactly like a rebuild.
#[test]
fn an_unusable_index_degrades_only_its_own_add() {
    let mut rng = StdRng::seed_from_u64(0xadd2);
    let base_pages: Vec<WebPage> = (0..5)
        .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
        .collect();
    let first: Vec<WebPage> = (0..3)
        .map(|i| synth_page(&mut rng, &format!("http://first/{i}")))
        .collect();
    let second: Vec<WebPage> = (0..2)
        .map(|i| synth_page(&mut rng, &format!("http://second/{i}")))
        .collect();
    let dir = temp_store("per_add_degrade");
    let store = CorpusStore::open(&dir).expect("open store");
    store
        .save(&WebCorpus::from_pages(base_pages.clone()))
        .expect("save base");
    let base_id = BaseId::of(&std::fs::read(store.snapshot_path()).expect("read snapshot"));
    let ops = vec![
        DeltaOp::AddPages(first.clone()),
        DeltaOp::AddPages(second.clone()),
    ];
    let first_index = Some(InvertedIndex::build(&first).to_parts());

    // Misplaced: the sections [base, add 1, index 1, add 2, index 2]
    // reordered so index 2 comes before its add, straight after index 1.
    let intact = encode_segment_indexed(
        base_id,
        &ops,
        &[
            first_index.clone(),
            Some(InvertedIndex::build(&second).to_parts()),
        ],
    );
    let mut sections: Vec<(u32, Vec<u8>)> = decode_container(&intact, KIND_DELTA)
        .expect("own bytes decode")
        .into_iter()
        .map(|(tag, payload)| (tag, payload.to_vec()))
        .collect();
    sections.swap(3, 4);
    let misplaced = encode_container(KIND_DELTA, &sections);
    // Wrong count: add 2's index covers only one of its two pages.
    let short = encode_segment_indexed(
        base_id,
        &ops,
        &[
            first_index,
            Some(InvertedIndex::build(&second[..1]).to_parts()),
        ],
    );

    let rebuild = WebCorpus::from_pages(
        base_pages
            .iter()
            .chain(&first)
            .chain(&second)
            .cloned()
            .collect(),
    );
    for (defect, bytes) in [("misplaced", misplaced), ("short", short)] {
        std::fs::write(dir.join("delta-000001.seg"), bytes).expect("write segment");
        let seg = store.load_segmented().expect("segmented open");
        let mapped = store
            .load_segmented_mapped()
            .expect("mapped open")
            .segmented;
        for (path, load) in [("load_segmented", &seg), ("load_segmented_mapped", &mapped)] {
            assert_eq!(load.prebuilt_ops, 1, "{defect}: {path} adopts add 1");
            assert_eq!(load.reindexed_ops, 1, "{defect}: {path} re-tokenizes add 2");
            for q in vocab_probes() {
                for k in [1, 3, 10] {
                    assert_eq!(
                        bits(&load.corpus.search(&q, k)),
                        bits(&rebuild.index().search(&q, k)),
                        "{defect}: {path} diverged on {q:?} k {k}"
                    );
                }
            }
        }
        assert_replay_matches_rebuild(&store, &rebuild);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tier_merges_preserve_the_compaction_byte_identity_oracle() {
    let mut rng = StdRng::seed_from_u64(0xfeed);
    let base_pages: Vec<WebPage> = (0..6)
        .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
        .collect();
    let base = WebCorpus::from_pages(base_pages.clone());

    // Two stores, identical base and identical six-segment journal.
    let dir_a = temp_store("merge_oracle_a");
    let dir_b = temp_store("merge_oracle_b");
    let store_a = CorpusStore::open(&dir_a).expect("open a");
    let store_b = CorpusStore::open(&dir_b).expect("open b");
    store_a.save(&base).expect("save a");
    store_b.save(&base).expect("save b");
    for s in 0..6 {
        let pages: Vec<WebPage> = (0..2)
            .map(|i| synth_page(&mut rng, &format!("http://delta/{s}/{i}")))
            .collect();
        let ops = [DeltaOp::AddPages(pages)];
        store_a.append_segment(&ops).expect("append a");
        store_b.append_segment(&ops).expect("append b");
    }

    // Tier-merge one of them; the other keeps its flat journal.
    let report = store_a
        .maybe_compact(TierPolicy {
            max_segments: 2,
            fanout: 3,
            max_removed: 1 << 20,
        })
        .expect("maybe_compact");
    assert!(
        report.merges > 0,
        "six segments over a bound of two must merge"
    );
    assert!(!report.full_fold);
    assert!(store_a.delta_segments().expect("list a").len() <= 2);

    // The merge oracle: folding the merged runs and folding the flat
    // journal must write byte-identical snapshots.
    store_a.compact_in_place().expect("fold a");
    store_b.compact_in_place().expect("fold b");
    let snap_a = std::fs::read(dir_a.join(SNAPSHOT_FILE)).expect("read a");
    let snap_b = std::fs::read(dir_b.join(SNAPSHOT_FILE)).expect("read b");
    assert_eq!(
        snap_a, snap_b,
        "tier merging changed the bytes a full fold produces"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn removal_overflow_triggers_a_full_fold_identical_to_a_rebuild() {
    let mut rng = StdRng::seed_from_u64(0xdead);
    let base_pages: Vec<WebPage> = (0..8)
        .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
        .collect();
    let dir = temp_store("removal_fold");
    let store = CorpusStore::open(&dir).expect("open store");
    store
        .save(&WebCorpus::from_pages(base_pages.clone()))
        .expect("save base");

    let mut oracle = base_pages;
    let added: Vec<WebPage> = (0..3)
        .map(|i| synth_page(&mut rng, &format!("http://delta/{i}")))
        .collect();
    store
        .append_segment(&[DeltaOp::AddPages(added.clone())])
        .expect("append adds");
    oracle.extend(added);
    let doomed: Vec<String> = oracle.iter().take(3).map(|p| p.url.clone()).collect();
    store
        .append_segment(&[DeltaOp::RemovePages(doomed.clone())])
        .expect("append removals");
    oracle.retain(|p| !doomed.contains(&p.url));

    let report = store
        .maybe_compact(TierPolicy {
            max_segments: 8,
            fanout: 4,
            max_removed: 2,
        })
        .expect("maybe_compact");
    assert!(report.full_fold, "3 removals over a bound of 2 must fold");
    assert!(
        store.delta_segments().expect("list").is_empty(),
        "a full fold consumes the whole journal"
    );

    // The folded snapshot is byte-identical to saving a fresh rebuild.
    let rebuild = WebCorpus::from_pages(oracle);
    let dir_fresh = temp_store("removal_fold_fresh");
    let fresh = CorpusStore::open(&dir_fresh).expect("open fresh");
    fresh.save(&rebuild).expect("save rebuild");
    assert_eq!(
        std::fs::read(dir.join(SNAPSHOT_FILE)).expect("read folded"),
        std::fs::read(dir_fresh.join(SNAPSHOT_FILE)).expect("read fresh"),
        "full fold diverged from a rebuild of the logical corpus"
    );
    assert_replay_matches_rebuild(&store, &rebuild);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_fresh);
}

/// A live corpus view against the logical page list it must serve: the
/// same pages in the same order, and bit-identical rankings to a
/// rebuild of that list for every probe.
fn assert_view_is_the_page_list(view: &SegmentedCorpus, oracle: &[WebPage], context: &str) {
    assert_eq!(view.to_pages(), oracle, "{context}: page list");
    let rebuild = WebCorpus::from_pages(oracle.to_vec());
    for q in vocab_probes() {
        for k in [1, 3, 10] {
            assert_eq!(
                bits(&view.search(&q, k)),
                bits(&rebuild.index().search(&q, k)),
                "{context}: {q:?} k {k}"
            );
        }
    }
}

/// Applies `op` to a live corpus and to the page-list oracle.
fn apply_live(
    live: &LiveCorpus,
    oracle: &mut Vec<WebPage>,
    op: DeltaOp,
) -> teda::store::CompactionReport {
    op.apply(oracle);
    match op {
        DeltaOp::AddPages(pages) => live.add_pages(pages),
        DeltaOp::RemovePages(urls) => live.remove_pages(urls),
    }
    .expect("live update")
}

#[test]
fn a_live_chain_regrouped_in_memory_equals_a_reopen_after_every_update() {
    let mut rng = StdRng::seed_from_u64(0x11fe);
    let base_pages: Vec<WebPage> = (0..10)
        .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
        .collect();
    let dir = temp_store("live_regroup");
    CorpusStore::open(&dir)
        .expect("open store")
        .save(&WebCorpus::from_pages(base_pages.clone()))
        .expect("save base");
    let policy = TierPolicy {
        max_segments: 3,
        fanout: 2,
        max_removed: 7,
    };
    let live = LiveCorpus::open_mapped(&dir, policy).expect("open live");
    let mut oracle = base_pages;
    let mut removed_urls: Vec<String> = Vec::new();
    let (mut merges, mut folds) = (0usize, 0usize);
    for update in 0..48 {
        let op = if oracle.is_empty() || rng.gen_bool(0.6) {
            let n = rng.gen_range(1..=3usize);
            let pages = (0..n)
                .map(|i| {
                    // Now and then a URL comes back after its removal.
                    let url = match removed_urls.choose(&mut rng) {
                        Some(url) if i == 0 && rng.gen_bool(0.2) => url.clone(),
                        _ => format!("http://live/{update}/{i}"),
                    };
                    synth_page(&mut rng, &url)
                })
                .collect();
            DeltaOp::AddPages(pages)
        } else {
            let mut urls: Vec<String> = (0..rng.gen_range(1..=2usize))
                .filter_map(|_| oracle.choose(&mut rng).map(|p| p.url.clone()))
                .collect();
            if rng.gen_bool(0.2) {
                urls.push("http://nowhere/".into());
            }
            removed_urls.extend(urls.iter().cloned());
            DeltaOp::RemovePages(urls)
        };
        let report = apply_live(&live, &mut oracle, op);
        merges += report.merges;
        folds += usize::from(report.full_fold);

        let view = live.corpus();
        let reopened = LiveCorpus::open_mapped(&dir, policy).expect("reopen");
        let fresh = reopened.corpus();
        let context = format!("update {update}");
        assert_eq!(view.segments().len(), fresh.segments().len(), "{context}");
        assert!(view.segments().len() <= policy.max_segments, "{context}");
        for (a, b) in view.segments().iter().zip(fresh.segments()) {
            assert_eq!(a.ops().len(), b.ops().len(), "{context}: ops per segment");
        }
        assert_eq!(view.to_pages(), fresh.to_pages(), "{context}");
        for q in vocab_probes() {
            for k in [1, 3, 10] {
                assert_eq!(
                    bits(&view.search(&q, k)),
                    bits(&fresh.search(&q, k)),
                    "{context}: {q:?} k {k}"
                );
            }
        }
        assert_view_is_the_page_list(&view, &oracle, &context);
    }
    assert!(
        merges >= 3,
        "the stream must cross several tier merges, got {merges}"
    );
    assert!(folds >= 1, "the stream must cross a full fold");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_push_hydrates_only_the_base_pages_its_removals_name() {
    let mut rng = StdRng::seed_from_u64(0x4d2a);
    let n_base = 64usize;
    let base_pages: Vec<WebPage> = (0..n_base)
        .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
        .collect();
    let dir = temp_store("live_hydrations");
    CorpusStore::open(&dir)
        .expect("open store")
        .save(&WebCorpus::from_pages(base_pages.clone()))
        .expect("save base");
    // Tight segment bound, no fold: merges happen and must cost nothing.
    let policy = TierPolicy {
        max_segments: 3,
        fanout: 2,
        max_removed: 1 << 20,
    };
    let live = LiveCorpus::open_mapped(&dir, policy).expect("open live");
    let mut oracle = base_pages;
    let hydrations = |live: &LiveCorpus| live.map_stats().hydrations;

    // The first removal reads every base URL once, to build the base's
    // URL index, and then confirms its one match.
    apply_live(
        &live,
        &mut oracle,
        DeltaOp::RemovePages(vec!["http://base/5".into()]),
    );
    assert_eq!(hydrations(&live), n_base as u64 + 1);

    // From then on a push reads only the base pages whose URL hash
    // matches a removal URL in the chain: one per removal of a base
    // page here, however many pages the base holds.
    let mut base_removals = 1u64;
    let mut merges = 0usize;
    for step in 0..12usize {
        let op = match step % 3 {
            0 => DeltaOp::AddPages(vec![synth_page(&mut rng, &format!("http://live/{step}"))]),
            1 => {
                base_removals += 1;
                DeltaOp::RemovePages(vec![
                    format!("http://base/{}", 10 + step),
                    "http://nowhere/".into(),
                ])
            }
            _ => DeltaOp::RemovePages(vec![format!("http://live/{}", step - 2)]),
        };
        let before = hydrations(&live);
        merges += apply_live(&live, &mut oracle, op).merges;
        let pushed = hydrations(&live) - before;
        assert_eq!(pushed, base_removals, "step {step}");
        assert!(pushed < n_base as u64);
    }
    assert!(merges > 0, "the stream must cross a tier merge");
    assert_view_is_the_page_list(&live.corpus(), &oracle, "after the pushes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removal_edge_cases_match_the_page_list_replay() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut synth = |url: &str| synth_page(&mut rng, url);
    // Two base pages share one URL.
    let base_pages = vec![
        synth("http://dup/"),
        synth("http://base/1"),
        synth("http://dup/"),
        synth("http://base/3"),
    ];
    let added = vec![synth("http://added/0"), synth("http://added/1")];
    let back = synth("http://base/1");
    let cases: Vec<(&str, Vec<DeltaOp>)> = vec![
        (
            "two base pages with one URL",
            vec![DeltaOp::RemovePages(vec!["http://dup/".into()])],
        ),
        (
            "remove, re-add, remove one URL",
            vec![
                DeltaOp::RemovePages(vec!["http://base/1".into()]),
                DeltaOp::AddPages(vec![back]),
                DeltaOp::RemovePages(vec!["http://base/1".into()]),
            ],
        ),
        (
            "a removal that names no page",
            vec![DeltaOp::RemovePages(vec!["http://nowhere/".into()])],
        ),
        (
            "a page added earlier in the chain",
            vec![
                DeltaOp::AddPages(added),
                DeltaOp::RemovePages(vec!["http://added/0".into()]),
            ],
        ),
    ];
    for (i, (case, ops)) in cases.into_iter().enumerate() {
        let dir = temp_store(&format!("live_edge_{i}"));
        CorpusStore::open(&dir)
            .expect("open store")
            .save(&WebCorpus::from_pages(base_pages.clone()))
            .expect("save base");
        let live = LiveCorpus::open_mapped(&dir, TierPolicy::default()).expect("open live");
        let mut oracle = base_pages.clone();
        for (step, op) in ops.into_iter().enumerate() {
            apply_live(&live, &mut oracle, op);
            assert_view_is_the_page_list(&live.corpus(), &oracle, &format!("{case}, step {step}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_leftover_inside_a_merged_run_is_swept_and_overlap_is_typed() {
    let mut rng = StdRng::seed_from_u64(0xcafe);
    let base_pages: Vec<WebPage> = (0..4)
        .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
        .collect();
    let dir = temp_store("leftover");
    let store = CorpusStore::open(&dir).expect("open store");
    store
        .save(&WebCorpus::from_pages(base_pages.clone()))
        .expect("save base");

    let mut oracle = base_pages;
    for s in 0..4 {
        let pages: Vec<WebPage> = (0..2)
            .map(|i| synth_page(&mut rng, &format!("http://delta/{s}/{i}")))
            .collect();
        oracle.extend(pages.clone());
        store
            .append_segment(&[DeltaOp::AddPages(pages)])
            .expect("append");
    }
    // Keep a victim's bytes, then merge everything into one run.
    let victim = store.delta_segments().expect("list")[2].clone();
    let victim_bytes = std::fs::read(&victim).expect("read victim");
    let report = store
        .maybe_compact(TierPolicy {
            max_segments: 1,
            fanout: 4,
            max_removed: 1 << 20,
        })
        .expect("merge to one run");
    assert!(report.merges > 0);

    // Simulate a crash between the run's rename and the victim delete:
    // the contained single reappears next to the merged run.
    std::fs::write(&victim, &victim_bytes).expect("resurrect victim");
    let rebuild = WebCorpus::from_pages(oracle);
    assert_replay_matches_rebuild(&store, &rebuild);
    assert!(
        !victim.exists(),
        "a contained leftover must be swept during resolution"
    );

    // A *partially* overlapping run has no legitimate producer: typed
    // corruption, not a guess.
    let run = store.delta_segments().expect("list")[0].clone();
    let run_bytes = std::fs::read(&run).expect("read run");
    std::fs::write(dir.join("delta-000003-000009.seg"), &run_bytes).expect("write overlapping run");
    match store.load() {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("overlap"), "unexpected message: {msg}")
        }
        other => panic!("partial overlap must be typed Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The in-place read path over a heap image, fully verified: open,
/// index half (`ViewBackend::new`), pages half (`verify_pages`).
fn open_in_place(bytes: Vec<u8>) -> Result<ViewBackend, StoreError> {
    let snap = MappedSnapshot::open(SnapshotBytes::Heap(bytes.into()))?;
    let view = ViewBackend::new(Arc::clone(&snap))?;
    snap.verify_pages()?;
    Ok(view)
}

/// A forged section length that points past the end of the container
/// must come back as typed [`StoreError::Corrupt`] from *both* decode
/// paths — the eager loader and the in-place path the mmap'd serving
/// tier uses — never as a panic or an attempt to slice past the buffer.
///
/// The first section header starts right after the 20-byte file header:
/// tag at 20..24, length at 24..32. Everything here rewrites only that
/// length field, so the CRC never gets a chance to excuse the damage —
/// the structural pass has to catch it first.
#[test]
fn forged_section_length_is_typed_corrupt_on_both_decode_paths() {
    let dir = temp_store("forged_len");
    let store = CorpusStore::open(&dir).expect("open");
    store.save(&corpus(13)).expect("save");
    let snap = store.snapshot_path();
    let good = std::fs::read(&snap).expect("read snapshot");

    // A terabyte-scale lie, the all-ones pattern, and the subtle case:
    // a length that fits in the file *from zero* but not from where the
    // payload actually starts.
    for forged in [1u64 << 40, u64::MAX, good.len() as u64] {
        let mut bad = good.clone();
        bad[24..32].copy_from_slice(&forged.to_le_bytes());

        std::fs::write(&snap, &bad).unwrap();
        match store.load() {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("points past"), "eager: unexpected {msg:?}")
            }
            other => panic!("eager: forged len {forged} must be Corrupt, got {other:?}"),
        }

        match open_in_place(bad) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("points past"), "in place: unexpected {msg:?}")
            }
            other => {
                let outcome = other.map(|_| "a view");
                panic!("in place: forged len {forged} must be Corrupt, got {outcome:?}")
            }
        }
    }

    // Intact bytes still load after all that vandalism.
    std::fs::write(&snap, &good).unwrap();
    store.load().expect("pristine snapshot loads");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncation *inside* a section — mid-payload and mid-section-header —
/// must fail typed on both decode paths. The older corruption test
/// sweeps arbitrary prefixes; this one aims at the structurally
/// interesting cuts by parsing the real first-section length out of the
/// file it just wrote.
#[test]
fn truncation_mid_section_is_typed_on_both_decode_paths() {
    let dir = temp_store("trunc_mid");
    let store = CorpusStore::open(&dir).expect("open");
    store.save(&corpus(13)).expect("save");
    let snap = store.snapshot_path();
    let good = std::fs::read(&snap).expect("read snapshot");

    let first_len = u64::from_le_bytes(good[24..32].try_into().unwrap()) as usize;
    let first_payload = 36; // 20-byte header + tag(4) + len(8) + crc(4)
    assert!(
        first_payload + first_len < good.len(),
        "fixture must hold more than one section"
    );

    let cuts = [
        22,                            // inside the first tag field
        27,                            // inside the first length field
        34,                            // inside the first crc field
        first_payload + 1,             // one byte into the payload
        first_payload + first_len / 2, // middle of the payload
        first_payload + first_len - 1, // one byte short of the payload
        first_payload + first_len + 2, // inside the *second* section header
    ];
    for cut in cuts {
        let bad = &good[..cut];

        std::fs::write(&snap, bad).unwrap();
        let err = store.load().expect_err("truncated snapshot must not load");
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::Corrupt(_)),
            "eager: cut {cut} must be Truncated or Corrupt, got {err:?}"
        );

        let err = open_in_place(bad.to_vec())
            .map(|_| ())
            .expect_err("truncated snapshot must not open in place");
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::Corrupt(_)),
            "in place: cut {cut} must be Truncated or Corrupt, got {err:?}"
        );
    }

    std::fs::write(&snap, &good).unwrap();
    store.load().expect("pristine snapshot loads");
    let _ = std::fs::remove_dir_all(&dir);
}
