//! Live corpus updates without a service restart.
//!
//! PR 5 gave the service a durable corpus home ([`CorpusStore`]), but
//! updating it still meant stop → journal → restart: the running
//! engine held an immutable index. This module closes that gap with
//! the segment machinery: a [`LiveCorpus`] pairs the on-disk store
//! with an in-memory [`SegmentedCorpus`] overlay — its base served
//! straight off the mmap'd snapshot — behind a [`SwappableBackend`].
//! `add_pages` builds the batch's partial index *once*, journals it
//! (so the next restart loads O(delta)) and pushes the same index as a
//! read-time overlay — in-flight queries keep their backend snapshot,
//! the next query sees the new pages, and results are bit-identical to
//! a full rebuild of the logical corpus at every point.
//!
//! Journal growth is bounded by a [`TierPolicy`], and the in-memory
//! overlay chain mirrors the journal file for file. A tier merge on disk
//! is answered in memory: the chain is regrouped by the same rule
//! ([`TierPolicy::merge_tiers`]), sharing every operation, so no page
//! text, index or plan is copied or recomputed. Only a full fold, the
//! one step that changes the base, reloads from the store. Neither the
//! file count nor the overlay depth grows without bound under a
//! continuous update stream.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use teda_obs::{stage, Histogram, Registry, Stopwatch};
use teda_store::{
    CompactionReport, CorpusStore, DeltaOp, MapStats, MappedLoad, MappedSnapshot, StoreError,
    TierPolicy,
};
use teda_websim::{
    InvalidIndexParts, InvertedIndex, Segment, SegmentOp, SegmentedCorpus, SwappableBackend,
    WebPage,
};

/// A persistent corpus that can grow and shrink while being served.
///
/// All mutation goes through one internal lock, so concurrent
/// `add_pages`/`remove_pages` calls serialize (journal order = overlay
/// order); reads never take it — queries resolve through the
/// [`SwappableBackend`], which is its own read-mostly lock.
#[derive(Debug)]
pub struct LiveCorpus {
    store: CorpusStore,
    policy: TierPolicy,
    /// The mapping behind the current base. Replaced on every full
    /// fold; the old mapping stays valid for in-flight readers until
    /// dropped.
    snapshot: Mutex<Arc<MappedSnapshot>>,
    current: Mutex<Arc<SegmentedCorpus>>,
    backend: Arc<SwappableBackend>,
    /// `compaction` stage histogram, attached by the service that
    /// serves this corpus (see [`attach_obs`](Self::attach_obs)): one
    /// sample per update that compacted, covering the journal work plus
    /// the in-memory regroup (tier merge) or the reload (full fold). A
    /// standalone `LiveCorpus` records nothing.
    hist_compaction: OnceLock<Arc<Histogram>>,
    /// `page_hydration` stage histogram, forwarded to the mapped
    /// snapshot (and re-forwarded after every full fold).
    hist_hydration: OnceLock<Arc<Histogram>>,
}

impl LiveCorpus {
    /// Opens `dir` (which must hold a corpus snapshot — seed it with
    /// [`CorpusStore::save`] or `open_or_build` first), serving the base
    /// corpus straight off the mmap'd snapshot
    /// ([`CorpusStore::load_segmented_mapped`]) and replaying the
    /// journal as overlays: no page text is materialized, cold start is
    /// O(index + delta), and N processes serving the same directory
    /// share one page-cache copy. Where the platform cannot map a file,
    /// the snapshot is read to the heap behind the same interface.
    pub fn open_mapped(dir: impl Into<PathBuf>, policy: TierPolicy) -> Result<Self, StoreError> {
        let store = CorpusStore::open(dir)?;
        let MappedLoad {
            segmented,
            snapshot,
        } = store.load_segmented_mapped()?;
        let corpus = Arc::new(segmented.corpus);
        let backend = Arc::new(SwappableBackend::new(corpus.clone()));
        Ok(LiveCorpus {
            store,
            policy,
            snapshot: Mutex::new(snapshot),
            current: Mutex::new(corpus),
            backend,
            hist_compaction: OnceLock::new(),
            hist_hydration: OnceLock::new(),
        })
    }

    /// Attaches the serving node's observability registry: compaction
    /// work (a tier merge with its in-memory regroup, a full fold with
    /// its reload) records into its `compaction` stage histogram, and
    /// every page hydration records into `page_hydration`. First attach
    /// wins; [`crate::AnnotationService::start_live`] calls this.
    pub fn attach_obs(&self, obs: &Registry) {
        let _ = self.hist_compaction.set(obs.histogram(stage::COMPACTION));
        let _ = self
            .hist_hydration
            .set(obs.histogram(stage::PAGE_HYDRATION));
        if let Some(hist) = self.hist_hydration.get() {
            self.snapshot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .attach_hydration_histogram(Arc::clone(hist));
        }
    }

    /// Mapping counters. They describe the *current* mapping — only a
    /// full fold replaces it, so hydration counts restart from zero only
    /// at a fold. Between folds, an update hydrates just the base pages
    /// whose URL hash matches one of the journal's removal URLs, plus
    /// every base page once, at the first removal after the open or
    /// the fold (to build the base's URL index).
    pub fn map_stats(&self) -> MapStats {
        self.snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// The backend handle to build the service's search engine over:
    /// every swap is immediately visible to whoever searches through
    /// it (e.g. `BingSim::instant(live.backend())`).
    pub fn backend(&self) -> Arc<SwappableBackend> {
        Arc::clone(&self.backend)
    }

    /// The current corpus view (a consistent snapshot — later updates
    /// produce new views and never mutate this one).
    pub fn corpus(&self) -> Arc<SegmentedCorpus> {
        Arc::clone(&self.lock())
    }

    /// The underlying store (paths, compaction, inspection).
    pub fn store(&self) -> &CorpusStore {
        &self.store
    }

    /// Journals `pages` as one delta segment and publishes them to the
    /// running backend. The batch is tokenized exactly once: the same
    /// partial index rides in the segment file (for the next O(delta)
    /// restart) and in the in-memory overlay (for the next query).
    pub fn add_pages(&self, pages: Vec<WebPage>) -> Result<CompactionReport, StoreError> {
        let index = InvertedIndex::build(&pages);
        let parts = index.to_parts();
        let mut current = self.lock();
        self.store
            .append_segment_indexed(&[DeltaOp::AddPages(pages.clone())], &[Some(parts)])?;
        let op = SegmentOp::add_prebuilt(pages, index)
            .map_err(|e| StoreError::Corrupt(e.to_string()))?;
        self.apply_locked(&mut current, op)
    }

    /// Journals a removal (every live page whose URL is listed) and
    /// publishes it.
    pub fn remove_pages(&self, urls: Vec<String>) -> Result<CompactionReport, StoreError> {
        let mut current = self.lock();
        self.store
            .append_segment_indexed(&[DeltaOp::RemovePages(urls.clone())], &[None])?;
        self.apply_locked(&mut current, SegmentOp::remove(urls))
    }

    fn lock(&self) -> MutexGuard<'_, Arc<SegmentedCorpus>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes one overlay op, swaps the backend, and lets the tier
    /// policy bound both the on-disk journal and the in-memory overlay
    /// chain: a tier merge regroups the chain in memory the same way, a
    /// full fold reloads it from the folded store.
    fn apply_locked(
        &self,
        current: &mut MutexGuard<'_, Arc<SegmentedCorpus>>,
        op: SegmentOp,
    ) -> Result<CompactionReport, StoreError> {
        let corrupt = |e: InvalidIndexParts| StoreError::Corrupt(e.to_string());
        let next = Arc::new(
            current
                .push_segment(Arc::new(Segment::new(vec![op])))
                .map_err(corrupt)?,
        );
        **current = Arc::clone(&next);
        self.backend.swap(next);
        // Time the compaction probe + the regroup or reload it forces,
        // but only record when compaction actually did work — the
        // every-update no-op probe would otherwise drown the
        // distribution.
        let watch =
            Stopwatch::started_if(self.hist_compaction.get().is_some_and(|h| h.is_enabled()));
        let report = self.store.maybe_compact(self.policy)?;
        let compacted = if report.full_fold {
            // The base changed: map the freshly renamed snapshot (the
            // superseded mapping stays valid for any in-flight reader
            // holding the old view).
            let MappedLoad {
                segmented,
                snapshot,
            } = self.store.load_segmented_mapped()?;
            if let Some(hist) = self.hist_hydration.get() {
                snapshot.attach_hydration_histogram(Arc::clone(hist));
            }
            *self.snapshot.lock().unwrap_or_else(PoisonError::into_inner) = snapshot;
            Some(segmented.corpus)
        } else if report.merges > 0 {
            // Same logical corpus, fewer segments: regroup the chain as
            // the journal files were regrouped.
            let mut segments = current.segments().to_vec();
            self.policy.merge_tiers(&mut segments, |group| {
                Ok::<_, StoreError>(Arc::new(Segment::concat(&group)))
            })?;
            debug_assert_eq!(segments.len(), report.segments_after);
            Some(current.regroup(segments).map_err(corrupt)?)
        } else {
            None
        };
        if let Some(compacted) = compacted {
            let compacted = Arc::new(compacted);
            **current = Arc::clone(&compacted);
            self.backend.swap(compacted);
            if let (Some(h), true) = (self.hist_compaction.get(), watch.is_running()) {
                h.record(watch.elapsed_us());
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teda_websim::{SearchBackend, WebCorpus};

    fn page(i: usize, body: &str) -> WebPage {
        WebPage {
            url: format!("http://live/{i}"),
            title: format!("Live page {i}"),
            body: body.to_string(),
        }
    }

    fn seeded(dir: &std::path::Path, n: usize) -> CorpusStore {
        let store = CorpusStore::open(dir).expect("open");
        let pages: Vec<WebPage> = (0..n).map(|i| page(i, "rome pasta restaurant")).collect();
        store
            .save(&WebCorpus::from_pages(pages))
            .expect("seed snapshot");
        store
    }

    #[test]
    fn updates_are_visible_through_the_backend_without_reopen() {
        let dir = std::env::temp_dir().join(format!("teda_live_vis_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        seeded(&dir, 4);
        let live = LiveCorpus::open_mapped(&dir, TierPolicy::default()).expect("open live");
        let backend = live.backend();
        assert!(backend.search("tiramisu dessert", 5).is_empty());
        live.add_pages(vec![page(100, "tiramisu dessert recipe")])
            .expect("add");
        let hits = backend.search("tiramisu dessert", 5);
        assert_eq!(hits.len(), 1, "new page must be searchable immediately");
        live.remove_pages(vec!["http://live/100".into()])
            .expect("remove");
        assert!(
            backend.search("tiramisu dessert", 5).is_empty(),
            "removed page must disappear immediately"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn updates_survive_a_reopen_and_match_a_rebuild() {
        let dir = std::env::temp_dir().join(format!("teda_live_dur_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        seeded(&dir, 3);
        {
            let live = LiveCorpus::open_mapped(&dir, TierPolicy::default()).expect("open live");
            live.add_pages(vec![page(7, "florence museum guide")])
                .expect("add");
            live.remove_pages(vec!["http://live/1".into()]).expect("rm");
        }
        let reopened = LiveCorpus::open_mapped(&dir, TierPolicy::default()).expect("reopen");
        let corpus = reopened.corpus();
        let rebuilt = WebCorpus::from_pages(corpus.to_pages());
        assert_eq!(corpus.n_docs(), 3);
        for (query, k) in [("florence museum", 4), ("rome pasta restaurant", 3)] {
            assert_eq!(
                corpus.search(query, k),
                rebuilt.index().search(query, k),
                "reopened live corpus must match a full rebuild for {query:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_mode_matches_heap_mode_through_updates_and_folds() {
        let dir = std::env::temp_dir().join(format!("teda_live_map_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        seeded(&dir, 5);
        let policy = TierPolicy {
            max_segments: 3,
            fanout: 2,
            max_removed: 2,
        };
        let live = LiveCorpus::open_mapped(&dir, policy).expect("open mapped");
        let stats = live.map_stats();
        assert!(stats.mapped_bytes > 0);
        assert_eq!(stats.hydrations, 0, "open must not hydrate page text");

        // The rebuild oracle replays the same updates on a plain page
        // list; the live corpus must match a fresh build of it.
        let mut oracle: Vec<WebPage> = (0..5).map(|i| page(i, "rome pasta restaurant")).collect();
        let backend = live.backend();
        for i in 0..6 {
            let added = vec![page(300 + i, "tiramisu dessert recipe")];
            DeltaOp::AddPages(added.clone()).apply(&mut oracle);
            live.add_pages(added).expect("add");
        }
        for url in ["http://live/300", "http://live/301", "http://live/302"] {
            DeltaOp::RemovePages(vec![url.into()]).apply(&mut oracle);
            // The third removal trips the full fold.
            live.remove_pages(vec![url.into()]).expect("remove");
        }

        // Still mapped after tier merges and the full fold.
        assert!(live.map_stats().mapped_bytes > 0);
        // Bit-identical to a heap rebuild of the same logical corpus.
        assert_eq!(live.corpus().to_pages(), oracle);
        let rebuilt = WebCorpus::from_pages(oracle);
        for (query, k) in [("tiramisu dessert", 10), ("rome pasta restaurant", 5)] {
            let got = backend.search(query, k);
            let want = rebuilt.index().search(query, k);
            assert_eq!(got.len(), want.len(), "{query:?}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()), "{query:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tier_policy_bounds_segments_and_overlays() {
        let dir = std::env::temp_dir().join(format!("teda_live_tier_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        seeded(&dir, 2);
        let policy = TierPolicy {
            max_segments: 3,
            fanout: 2,
            max_removed: 4,
        };
        let live = LiveCorpus::open_mapped(&dir, policy).expect("open live");
        for i in 0..10 {
            live.add_pages(vec![page(200 + i, "venice canal gondola")])
                .expect("add");
        }
        let files = live.store().delta_segments().expect("list");
        assert!(
            files.len() <= policy.max_segments,
            "tier merging must bound the journal, got {} files",
            files.len()
        );
        assert!(
            live.corpus().segments().len() <= policy.max_segments,
            "overlay chain must be bounded too"
        );
        // Enough removals to trip the full fold (max_removed = 4): the
        // journal collapses into a fresh snapshot along the way.
        let mut folded = false;
        for i in 0..6 {
            let report = live
                .remove_pages(vec![format!("http://live/{}", 200 + i)])
                .expect("remove");
            folded |= report.full_fold;
        }
        assert!(folded, "crossing max_removed must trigger a full fold");
        assert!(live.corpus().segments().len() <= policy.max_segments);
        assert_eq!(live.corpus().n_docs(), 2 + 10 - 6);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
