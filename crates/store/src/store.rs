//! The directory-level store: one base snapshot plus a numbered journal
//! of delta segments, with atomic writes and crash-leftover sweeping.
//!
//! ```text
//! <dir>/corpus.snap             the base snapshot (pages + index)
//! <dir>/delta-000001-000004.seg a merged run of journal segments 1..=4
//! <dir>/delta-000005.seg        journaled updates over the base, in order
//! <dir>/cache.snap              query-cache warm-start file (written by
//!                               the service layer through `cache_snapshot`)
//! <dir>/*.tmp                   crash leftovers, swept at open
//! ```
//!
//! Every journal segment carries, beside its operations, a partial
//! index over each `AddPages` batch (built once at append time) — so a
//! later load merges indexes instead of re-tokenizing the corpus: the
//! O(delta) path. Tiered compaction folds small segments into run
//! files named by their covered range (`delta-NNNNNN-MMMMMM.seg`,
//! concatenated ops + indexes, nothing re-tokenized); a crash between
//! writing the run and deleting its sources leaves contained singles
//! that the next listing sweeps, and a *partial* range overlap — which
//! no code path can produce — is refused as corruption rather than
//! guessed at.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use teda_websim::{
    BaseCorpus, IndexParts, InvertedIndex, Segment, SegmentOp, SegmentedCorpus, WebCorpus, WebPage,
};

use crate::cache_snapshot::remove_cache_snapshot;
use crate::corpus_snapshot::{decode_corpus, encode_corpus, encode_index_parts, SnapshotBytes};
use crate::delta::{
    adopt_index, count_removed_urls, encode_segment_indexed, encode_segment_sections, read_segment,
    BaseId, DeltaOp, SegmentPayload,
};
use crate::format::{sync_dir, write_atomic};
use crate::mapped::{MappedSnapshot, ViewBackend};
use crate::{clean_stale_tmps, StoreError};

/// Base snapshot file name.
pub const SNAPSHOT_FILE: &str = "corpus.snap";
/// Query-cache snapshot file name (the service layer's warm-start file,
/// kept here so every store consumer agrees on the directory layout).
pub const CACHE_FILE: &str = "cache.snap";
const DELTA_PREFIX: &str = "delta-";
const DELTA_EXT: &str = "seg";

/// A successfully loaded corpus plus what it took to materialize it.
#[derive(Debug)]
pub struct Loaded {
    /// The logical corpus: base snapshot with every delta replayed.
    pub corpus: WebCorpus,
    /// Delta segments replayed over the base (0 = pure snapshot load,
    /// no re-indexing needed).
    pub replayed_segments: usize,
    /// Whether replay took the O(delta) path: pure additions whose
    /// journaled partial indexes were merged into the base index
    /// without re-tokenizing a single page. `false` for an empty
    /// journal (nothing replayed) and for any replay that had to
    /// re-index — removals, or add ops whose embedded index was
    /// unusable.
    pub incremental: bool,
}

/// Knobs bounding journal growth for [`CorpusStore::maybe_compact`].
///
/// Two independent ceilings: `max_segments` caps how many live journal
/// files a load must open (merging the oldest `fanout` into one run
/// file while exceeded), and `max_removed` caps the read-time remove
/// set (journaled removal URLs), triggering a full fold into a fresh
/// base snapshot when crossed — removals are the one op the O(delta)
/// path cannot absorb, so they are bounded separately and more
/// aggressively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPolicy {
    /// Maximum live journal segments before tier merging kicks in.
    pub max_segments: usize,
    /// How many of the oldest segments one merge folds together
    /// (values below 2 are treated as 2 — a 1-way merge is a rename).
    pub fanout: usize,
    /// Maximum journaled removal URLs before a full fold.
    pub max_removed: usize,
}

impl TierPolicy {
    /// The tier-merge rule over any oldest-first segment list: while
    /// more than `max_segments` remain, `merge` folds the oldest
    /// `fanout` into one, which re-enters at the front — the next round
    /// (if the count is still over budget) folds it with its
    /// successors, so the list strictly shrinks and the loop ends.
    /// Returns the number of merges. [`CorpusStore::maybe_compact`]
    /// runs it over the journal files and a live corpus over its
    /// in-memory overlays, so both are grouped alike.
    pub fn merge_tiers<T, E>(
        &self,
        segments: &mut Vec<T>,
        mut merge: impl FnMut(Vec<T>) -> Result<T, E>,
    ) -> Result<usize, E> {
        let fanout = self.fanout.max(2);
        let max_segments = self.max_segments.max(1);
        let mut merges = 0;
        while segments.len() > max_segments {
            let n = fanout.min(segments.len());
            let victims: Vec<T> = segments.drain(..n).collect();
            let merged = merge(victims)?;
            segments.insert(0, merged);
            merges += 1;
        }
        Ok(merges)
    }
}

impl Default for TierPolicy {
    fn default() -> Self {
        TierPolicy {
            max_segments: 8,
            fanout: 4,
            max_removed: 1024,
        }
    }
}

/// What [`CorpusStore::maybe_compact`] actually did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Tier merges performed (each folds several segments into one run).
    pub merges: usize,
    /// Total source segments consumed by those merges.
    pub merged_segments: usize,
    /// Whether the journal was fully folded into a new base snapshot.
    pub full_fold: bool,
    /// Live segments remaining after the call.
    pub segments_after: usize,
}

/// A corpus opened for segment-overlay reads: the base snapshot behind
/// an `Arc` plus the journal replayed as in-memory [`Segment`]s, ready
/// for O(delta) refresh via [`SegmentedCorpus::push_segment`].
#[derive(Debug)]
pub struct SegmentedLoad {
    /// Base + journal overlays; search results are bit-identical to a
    /// full rebuild of the logical page list.
    pub corpus: SegmentedCorpus,
    /// Journal segments turned into overlays.
    pub replayed_segments: usize,
    /// Add operations whose journaled partial index was adopted as-is.
    pub prebuilt_ops: usize,
    /// Add operations that had to be re-tokenized (missing or unusable
    /// embedded index).
    pub reindexed_ops: usize,
}

/// A corpus opened for serving straight off the mmap'd snapshot: the
/// base is a [`ViewBackend`] borrowing the mapping (no page text
/// materialized) and the journal is replayed as overlays exactly as in
/// [`CorpusStore::load_segmented`] — results stay bit-identical to it.
#[derive(Debug)]
pub struct MappedLoad {
    /// Mapped base + journal overlays, with the replay counts.
    pub segmented: SegmentedLoad,
    /// The mapping behind the base, for counters and explicit
    /// verification ([`MappedSnapshot::stats`]).
    pub snapshot: Arc<MappedSnapshot>,
}

/// How [`CorpusStore::open_or_build`] obtained its corpus.
#[derive(Debug)]
pub enum OpenOutcome {
    /// Loaded from the persisted snapshot (plus any delta replay).
    Loaded {
        /// Delta segments replayed over the base.
        replayed_segments: usize,
    },
    /// No snapshot existed yet: built fresh and persisted (cold start).
    Built,
    /// The persisted state was damaged: the typed reason, and the
    /// corpus was rebuilt fresh and re-persisted. The error is carried,
    /// not swallowed — operators should know their disk is rotting even
    /// though service continued.
    Rebuilt(StoreError),
}

/// The corpus and how it was obtained.
#[derive(Debug)]
pub struct OpenReport {
    /// The ready-to-serve corpus.
    pub corpus: WebCorpus,
    /// Snapshot load, cold build, or corruption fallback.
    pub outcome: OpenOutcome,
}

/// A persistent corpus home: snapshot save/load, delta journaling, and
/// deterministic compaction over one directory. Single-writer by
/// design: this handle assumes no *other* process rewrites the
/// snapshot underneath it (concurrent writes through one handle are
/// safe — every write is atomic and the binding cache is locked).
#[derive(Debug)]
pub struct CorpusStore {
    dir: PathBuf,
    /// The current snapshot's base binding, computed lazily and
    /// invalidated by [`save`](Self::save) — so journaling a one-page
    /// delta does not re-read and re-checksum the whole snapshot on
    /// every append.
    cached_base: std::sync::Mutex<Option<BaseId>>,
}

impl CorpusStore {
    /// Opens (creating if needed) the store directory and sweeps stale
    /// `.tmp` crash leftovers, so an interrupted atomic write can never
    /// shadow or corrupt a later one.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        clean_stale_tmps(&dir)?;
        Ok(CorpusStore {
            dir,
            cached_base: std::sync::Mutex::new(None),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The base snapshot path.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// The query-cache snapshot path inside this store's directory.
    pub fn cache_path(&self) -> PathBuf {
        self.dir.join(CACHE_FILE)
    }

    /// Writes `corpus` as the new base snapshot (atomically) and drops
    /// the delta journal — the snapshot *is* the journal folded in.
    ///
    /// The corpus changes, so any co-located query-cache snapshot
    /// describes a world that no longer exists: it is removed, durably,
    /// *before* the new snapshot lands, so no crash can leave it beside
    /// the new corpus for a restarted service to serve as hits.
    ///
    /// Crash safety of the pair: the rename is atomic but the segment
    /// deletions after it are not, so a crash here can leave old
    /// segments beside the new snapshot. They are harmless — every
    /// segment is bound to the CRC + length of the snapshot it was
    /// journaled over, the new snapshot no longer matches, and the next
    /// [`load`](Self::load) skips and sweeps them instead of
    /// double-applying operations the snapshot already contains.
    pub fn save(&self, corpus: &WebCorpus) -> Result<(), StoreError> {
        remove_cache_snapshot(&self.cache_path())?;
        let bytes = encode_corpus(corpus);
        let base = BaseId::of(&bytes);
        write_atomic(&self.snapshot_path(), &bytes)?;
        *self
            .cached_base
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(base);
        for segment in self.delta_segments()? {
            std::fs::remove_file(&segment).map_err(|e| StoreError::io(&segment, e))?;
        }
        sync_dir(&self.snapshot_path())
    }

    /// Loads the base snapshot and replays the delta journal over it.
    /// With an empty journal this is pure deserialization — no
    /// tokenizing, no index construction. With a journal of pure
    /// additions whose embedded partial indexes are intact, the merge
    /// is O(delta): journaled index shards are grafted onto the base
    /// index and only bookkeeping arrays are touched. Otherwise
    /// (removals, or damaged/missing embedded indexes) the logical page
    /// list is re-indexed through the deterministic sharded build —
    /// slower, never wrong. [`StoreError::Missing`] means no snapshot
    /// was ever written.
    ///
    /// Only segments whose base binding matches the current snapshot
    /// bytes are replayed; mismatched segments are leftovers of a crash
    /// between a compaction's snapshot rename and its journal deletion
    /// — their operations are already folded into the snapshot, so they
    /// are swept, not applied.
    pub fn load(&self) -> Result<Loaded, StoreError> {
        let bytes = self.read_snapshot()?;
        // The adopted partial index of every add, while the journal
        // stays eligible for the O(delta) graft: pure additions, each
        // with an index that passes adoption. A removal would change
        // interning order and break the byte-identity guarantee. The
        // graft below takes parts, so an adopted index goes back to them.
        let mut parts: Option<Vec<IndexParts>> = Some(Vec::new());
        let (ops, replayed) = self.bound_ops(&bytes, |op, section| {
            if let Some(adopted) = &mut parts {
                match op {
                    DeltaOp::AddPages(pages) => match adopt_index(section, pages) {
                        Some(index) => adopted.push(index.to_parts()),
                        None => parts = None,
                    },
                    DeltaOp::RemovePages(_) => parts = None,
                }
            }
        })?;
        let base = decode_corpus(&bytes)?;
        // The old file image would otherwise stay resident through a
        // graft or a re-index of the replayed pages.
        drop(bytes);
        if replayed == 0 {
            return Ok(Loaded {
                corpus: base,
                replayed_segments: 0,
                incremental: false,
            });
        }
        if let Some(parts) = parts {
            // O(delta) path: graft the journaled partial indexes onto
            // the base index. A graft that fails its combined-size
            // checks degrades to one re-index of the page list.
            let (mut pages, index) = base.into_pages_and_index();
            for op in ops {
                apply_owned(op, &mut pages);
            }
            let corpus = match index.extend_with_parts(parts) {
                Ok(merged) => WebCorpus::from_parts(pages, merged)
                    .map_err(|e| StoreError::Corrupt(e.to_string()))?,
                Err(_) => {
                    return Ok(Loaded {
                        corpus: WebCorpus::from_pages(pages),
                        replayed_segments: replayed,
                        incremental: false,
                    })
                }
            };
            return Ok(Loaded {
                corpus,
                replayed_segments: replayed,
                incremental: true,
            });
        }
        let mut pages = base.into_pages();
        for op in ops {
            apply_owned(op, &mut pages);
        }
        Ok(Loaded {
            corpus: WebCorpus::from_pages(pages),
            replayed_segments: replayed,
            incremental: false,
        })
    }

    /// The base snapshot's bytes.
    fn read_snapshot(&self) -> Result<Vec<u8>, StoreError> {
        let path = self.snapshot_path();
        std::fs::read(&path).map_err(|e| StoreError::io(&path, e))
    }

    /// Every journaled op bound to the snapshot `bytes`, in journal
    /// order, and the number of segments they came from. `each` sees
    /// every op beside its raw index section. With no journal the base
    /// binding (a second whole-file CRC) is never computed.
    fn bound_ops(
        &self,
        bytes: &[u8],
        mut each: impl FnMut(&DeltaOp, Option<&[u8]>),
    ) -> Result<(Vec<DeltaOp>, usize), StoreError> {
        let files = self.active_segments()?;
        let mut ops = Vec::new();
        let mut replayed = 0usize;
        if !files.is_empty() {
            self.for_each_bound(&files, self.bind(bytes), |_, payload| {
                replayed += 1;
                for (op, section) in payload.ops.into_iter().zip(payload.add_indexes) {
                    each(&op, section);
                    ops.push(op);
                }
                Ok(())
            })?;
        }
        Ok((ops, replayed))
    }

    /// Opens the store for segment-overlay reads: the base snapshot is
    /// decoded once and each journal segment becomes an in-memory
    /// overlay, adopting each add's journaled partial index when it
    /// passes [`adopt_index`] (O(delta) open) and re-tokenizing only
    /// the adds whose index does not.
    pub fn load_segmented(&self) -> Result<SegmentedLoad, StoreError> {
        let path = self.snapshot_path();
        let bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
        let overlays = self.overlays(&bytes)?;
        overlays.over(Arc::new(decode_corpus(&bytes)?))
    }

    /// Maps the base snapshot file read-only and opens it with all
    /// payload verification deferred to first touch — O(sections), not
    /// O(corpus). The mapping shares the OS page cache across every
    /// process serving the same directory.
    ///
    /// Single-writer discipline makes the mapping safe: every snapshot
    /// write in this crate goes through temp-file + atomic rename, so
    /// the mapped inode is never modified in place — a compaction after
    /// this call replaces the directory entry while the old mapping
    /// stays valid until dropped.
    pub fn open_mapped(&self) -> Result<Arc<MappedSnapshot>, StoreError> {
        let path = self.snapshot_path();
        let file = std::fs::File::open(&path).map_err(|e| StoreError::io(&path, e))?;
        // SAFETY: see above — writes never touch a published snapshot's
        // inode, so the mapped bytes are immutable for the mapping's
        // lifetime.
        let map = unsafe { memmap2::Mmap::map(&file) }.map_err(|e| StoreError::io(&path, e))?;
        MappedSnapshot::open(SnapshotBytes::Mapped(Arc::new(map)))
    }

    /// [`load_segmented`](Self::load_segmented) with the base served
    /// straight off the mmap'd snapshot: the index half is verified up
    /// front (it is what every query walks), page text hydrates lazily
    /// per hit, and journal overlays apply exactly as there —
    /// bit-identical results, O(index + delta) open instead of
    /// O(corpus).
    ///
    /// If the journal contains a removal, the pages half is verified
    /// here too: removal targets resolve by URL against base page
    /// fields, which must never be read unverified.
    pub fn load_segmented_mapped(&self) -> Result<MappedLoad, StoreError> {
        let snapshot = self.open_mapped()?;
        let overlays = self.overlays(snapshot.bytes())?;
        let backend = ViewBackend::new(Arc::clone(&snapshot))?;
        let any_remove = overlays
            .segments
            .iter()
            .flat_map(|segment| segment.ops())
            .any(|op| op.removed().is_some());
        if any_remove {
            snapshot.verify_pages()?;
        }
        Ok(MappedLoad {
            segmented: overlays.over(Arc::new(backend))?,
            snapshot,
        })
    }

    /// The overlay builder behind both segmented opens: the journal
    /// bound to `snapshot_bytes` as one [`Segment`] per file, each add
    /// adopting its journaled index or re-tokenized.
    fn overlays(&self, snapshot_bytes: &[u8]) -> Result<Overlays, StoreError> {
        let mut overlays = Overlays::default();
        let files = self.active_segments()?;
        if files.is_empty() {
            return Ok(overlays);
        }
        let base_id = self.bind(snapshot_bytes);
        self.for_each_bound(&files, base_id, |_, payload| {
            let mut ops = Vec::with_capacity(payload.ops.len());
            for (op, section) in payload.ops.into_iter().zip(payload.add_indexes) {
                ops.push(match op {
                    DeltaOp::AddPages(pages) => match adopt_index(section, &pages) {
                        Some(index) => {
                            overlays.prebuilt_ops += 1;
                            SegmentOp::add_prebuilt(pages, index)
                                .map_err(|e| StoreError::Corrupt(e.to_string()))?
                        }
                        None => {
                            overlays.reindexed_ops += 1;
                            SegmentOp::add(pages)
                        }
                    },
                    DeltaOp::RemovePages(urls) => SegmentOp::remove(urls),
                });
            }
            overlays.segments.push(Arc::new(Segment::new(ops)));
            Ok(())
        })?;
        Ok(overlays)
    }

    /// Reads each of `files` in order, sweeping any bound to a snapshot
    /// other than `base_id` and handing the rest to `visit`.
    fn for_each_bound(
        &self,
        files: &[SegFile],
        base_id: BaseId,
        mut visit: impl FnMut(&SegFile, SegmentPayload<'_>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        self.walk_journal(files, |file, bytes| {
            let payload = read_segment(bytes)?;
            if payload.base != base_id {
                return Ok(false);
            }
            visit(file, payload)?;
            Ok(true)
        })
    }

    /// Reads each of `files` in order and hands its bytes to `bound`,
    /// which decodes them and says whether the file is bound to the
    /// current snapshot; a file that is not is swept.
    fn walk_journal(
        &self,
        files: &[SegFile],
        mut bound: impl FnMut(&SegFile, &[u8]) -> Result<bool, StoreError>,
    ) -> Result<(), StoreError> {
        let mut swept = false;
        for file in files {
            let bytes = std::fs::read(&file.path).map_err(|e| StoreError::io(&file.path, e))?;
            if !bound(file, &bytes)? {
                // Already folded into the snapshot by an interrupted
                // compaction — applying it again would duplicate pages.
                std::fs::remove_file(&file.path).map_err(|e| StoreError::io(&file.path, e))?;
                swept = true;
            }
        }
        if swept {
            sync_dir(&self.snapshot_path())?;
        }
        Ok(())
    }

    /// The fast path: load the persisted corpus, or fall back to
    /// `build` — on a cold start (nothing persisted yet) *and* on any
    /// corruption (bad magic, wrong version, failed checksum,
    /// truncation, structural damage). Untrusted on-disk bytes can cost
    /// a rebuild, never a panic or a wrong index. The freshly built
    /// corpus is persisted so the next open takes the fast path.
    pub fn open_or_build(
        dir: impl Into<PathBuf>,
        build: impl FnOnce() -> WebCorpus,
    ) -> Result<OpenReport, StoreError> {
        let store = CorpusStore::open(dir)?;
        let outcome = match store.load() {
            Ok(loaded) => {
                return Ok(OpenReport {
                    corpus: loaded.corpus,
                    outcome: OpenOutcome::Loaded {
                        replayed_segments: loaded.replayed_segments,
                    },
                })
            }
            Err(e) if e.is_missing() => OpenOutcome::Built,
            Err(e) => OpenOutcome::Rebuilt(e),
        };
        let corpus = build();
        store.save(&corpus)?;
        Ok(OpenReport { corpus, outcome })
    }

    /// Journals a page addition as a new delta segment (atomic append:
    /// the segment appears whole or not at all).
    pub fn add_pages(&self, pages: &[WebPage]) -> Result<(), StoreError> {
        self.append_segment(&[DeltaOp::AddPages(pages.to_vec())])
    }

    /// Journals a page removal (by URL) as a new delta segment.
    pub fn remove_pages(&self, urls: &[String]) -> Result<(), StoreError> {
        self.append_segment(&[DeltaOp::RemovePages(urls.to_vec())])
    }

    /// Journals an explicit operation batch as one segment, bound to
    /// the current base snapshot (which must exist — an update without
    /// a base has nothing to apply to; [`StoreError::Missing`]).
    ///
    /// Each `AddPages` batch is indexed here, once, and the partial
    /// index rides inside the segment — this is what makes every later
    /// load O(delta) instead of O(corpus).
    pub fn append_segment(&self, ops: &[DeltaOp]) -> Result<(), StoreError> {
        let indexes: Vec<Option<IndexParts>> = ops
            .iter()
            .map(|op| match op {
                DeltaOp::AddPages(pages) => Some(InvertedIndex::build(pages).to_parts()),
                DeltaOp::RemovePages(_) => None,
            })
            .collect();
        self.append_segment_indexed(ops, &indexes).map(drop)
    }

    /// Like [`append_segment`](Self::append_segment), but adopting
    /// partial indexes the caller already built (one `Some` per
    /// `AddPages` op, `None` per removal) instead of tokenizing the
    /// pages a second time. Returns the sequence number of the new
    /// segment. Callers that keep an in-memory overlay (the service's
    /// live corpus) build each add's index exactly once and share it
    /// between the journal and the overlay.
    ///
    /// Like [`save`](Self::save), this first removes the co-located
    /// query-cache snapshot: it was computed over the pre-update corpus.
    pub fn append_segment_indexed(
        &self,
        ops: &[DeltaOp],
        indexes: &[Option<IndexParts>],
    ) -> Result<u64, StoreError> {
        let base = self.base_id()?;
        remove_cache_snapshot(&self.cache_path())?;
        let next = self.segment_files()?.last().map_or(0, |f| f.end) + 1;
        let path = self
            .dir
            .join(format!("{DELTA_PREFIX}{next:06}.{DELTA_EXT}"));
        write_atomic(&path, &encode_segment_indexed(base, ops, indexes))?;
        Ok(next)
    }

    /// Folds base + deltas into a new base snapshot and truncates the
    /// journal, returning the compacted corpus.
    ///
    /// **Determinism guarantee:** the written snapshot is byte-identical
    /// to what a full sequential rebuild of the same logical corpus
    /// would produce. Both sides reduce to `WebCorpus::from_pages` on
    /// the same page list — whose sharded index build is byte-identical
    /// to the sequential reference for any shard count (the
    /// `build_sharded` merge proof) — and the snapshot codec is a pure
    /// function of the corpus. Proven file-against-file in
    /// `tests/store.rs`.
    pub fn compact(&self) -> Result<WebCorpus, StoreError> {
        let bytes = self.read_snapshot()?;
        let (ops, _) = self.bound_ops(&bytes, |_, _| {})?;
        let mut pages = decode_corpus(&bytes)?.into_pages();
        // The old file image would otherwise stay resident through the
        // re-index and the new snapshot's encode.
        drop(bytes);
        for op in ops {
            apply_owned(op, &mut pages);
        }
        // Re-derive the index from the logical page list even when the
        // journal was empty: compaction's contract is "as if built from
        // scratch", not "whatever the old snapshot held". No journaled
        // index is adopted: it would be discarded here.
        let compacted = WebCorpus::from_pages(pages);
        self.save(&compacted)?;
        Ok(compacted)
    }

    /// [`compact`](Self::compact) for callers that don't want the
    /// folded corpus — the common case (maintenance sweeps, benchmarks
    /// resetting state, the tier policy's full fold), where returning
    /// the corpus by value just hands the caller megabytes to drop.
    pub fn compact_in_place(&self) -> Result<(), StoreError> {
        self.compact().map(drop)
    }

    /// Bounds the journal per `policy`: a full fold when the journaled
    /// remove set exceeds `max_removed`, else tier merges of the oldest
    /// `fanout` segments (concatenating their ops and embedded indexes
    /// into one run file — nothing re-tokenized) while the live count
    /// exceeds `max_segments`. A no-op on a store with no snapshot.
    pub fn maybe_compact(&self, policy: TierPolicy) -> Result<CompactionReport, StoreError> {
        let mut report = CompactionReport::default();
        let base_id = match self.base_id() {
            Ok(base) => base,
            Err(e) if e.is_missing() => return Ok(report),
            Err(e) => return Err(e),
        };
        // One pass over the live journal: sweep stale-bound leftovers,
        // count removal URLs for the full-fold trigger (every section
        // CRC-checked, but no add's pages and no index section decoded).
        let mut removed = 0usize;
        let mut active: Vec<SegFile> = Vec::new();
        self.walk_journal(&self.active_segments()?, |file, bytes| {
            let (base, urls) = count_removed_urls(bytes)?;
            if base != base_id {
                return Ok(false);
            }
            removed += urls;
            active.push(file.clone());
            Ok(true)
        })?;
        if removed > policy.max_removed {
            self.compact_in_place()?;
            report.full_fold = true;
            return Ok(report);
        }
        report.merges = policy.merge_tiers(&mut active, |victims| {
            report.merged_segments += victims.len();
            self.merge_segments(&victims, base_id)
        })?;
        report.segments_after = active.len();
        Ok(report)
    }

    /// Merges `victims` (≥ 2, consecutive, oldest-first, all bound to
    /// `base_id`) into one run file covering their sequence range, then
    /// deletes the sources. A crash after the run's atomic write leaves
    /// the sources contained in its range — the next listing sweeps
    /// them, so no op is ever replayed twice.
    fn merge_segments(&self, victims: &[SegFile], base_id: BaseId) -> Result<SegFile, StoreError> {
        let mut ops = Vec::new();
        let mut sections = Vec::new();
        for victim in victims {
            let bytes = std::fs::read(&victim.path).map_err(|e| StoreError::io(&victim.path, e))?;
            let payload = read_segment(&bytes)?;
            for (op, section) in payload.ops.into_iter().zip(payload.add_indexes) {
                // An adopted index is copied verbatim; one that fails
                // adoption is re-derived, so the run restores O(delta)
                // eligibility.
                sections.push(match &op {
                    DeltaOp::AddPages(pages) => Some(match section {
                        Some(raw) if adopt_index(Some(raw), pages).is_some() => raw.to_vec(),
                        _ => encode_index_parts(&InvertedIndex::build(pages).to_parts()),
                    }),
                    DeltaOp::RemovePages(_) => None,
                });
                ops.push(op);
            }
        }
        let start = victims
            .first()
            .expect("merge of at least two segments")
            .start;
        let end = victims.last().expect("merge of at least two segments").end;
        let path = self
            .dir
            .join(format!("{DELTA_PREFIX}{start:06}-{end:06}.{DELTA_EXT}"));
        write_atomic(&path, &encode_segment_sections(base_id, &ops, sections))?;
        for victim in victims {
            std::fs::remove_file(&victim.path).map_err(|e| StoreError::io(&victim.path, e))?;
        }
        sync_dir(&path)?;
        Ok(SegFile { start, end, path })
    }

    /// The current snapshot's base binding, from the cache or by
    /// reading and checksumming the snapshot file once.
    fn base_id(&self) -> Result<BaseId, StoreError> {
        if let Some(base) = *self
            .cached_base
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            return Ok(base);
        }
        let snap = self.snapshot_path();
        let bytes = std::fs::read(&snap).map_err(|e| StoreError::io(&snap, e))?;
        Ok(self.bind(&bytes))
    }

    /// Computes and caches the binding of the given snapshot bytes.
    fn bind(&self, snapshot_bytes: &[u8]) -> BaseId {
        let base = BaseId::of(snapshot_bytes);
        *self
            .cached_base
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(base);
        base
    }

    /// The journal's segment paths, in replay (= numeric) order —
    /// *every* segment file, shadowed pre-merge leftovers included, so
    /// [`save`](Self::save) truncates the whole journal.
    pub fn delta_segments(&self) -> Result<Vec<PathBuf>, StoreError> {
        Ok(self.segment_files()?.into_iter().map(|f| f.path).collect())
    }

    /// Every segment file in the directory, sorted for resolution:
    /// start ascending, then wider range first — so a run file
    /// immediately precedes the leftovers it shadows.
    fn segment_files(&self) -> Result<Vec<SegFile>, StoreError> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::io(&self.dir, e)),
        };
        let mut segments: Vec<SegFile> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&self.dir, e))?;
            let path = entry.path();
            if let Some((start, end)) = segment_range(&path) {
                segments.push(SegFile { start, end, path });
            }
        }
        segments.sort_by(|a, b| {
            (a.start, std::cmp::Reverse(a.end), &a.path).cmp(&(
                b.start,
                std::cmp::Reverse(b.end),
                &b.path,
            ))
        });
        Ok(segments)
    }

    /// The live journal in replay order: [`segment_files`](Self::segment_files)
    /// with segments fully contained in an earlier one swept (they are
    /// pre-merge leftovers of an interrupted tier compaction — the run
    /// file holds their ops byte-for-byte). Partial range overlap has
    /// no legitimate producer and is refused as corruption.
    fn active_segments(&self) -> Result<Vec<SegFile>, StoreError> {
        let mut active: Vec<SegFile> = Vec::new();
        let mut swept = false;
        for file in self.segment_files()? {
            match active.last() {
                Some(last) if file.start <= last.end => {
                    if file.end <= last.end {
                        std::fs::remove_file(&file.path)
                            .map_err(|e| StoreError::io(&file.path, e))?;
                        swept = true;
                    } else {
                        return Err(StoreError::Corrupt(format!(
                            "delta segments {} and {} overlap without containment",
                            last.path.display(),
                            file.path.display()
                        )));
                    }
                }
                _ => active.push(file),
            }
        }
        if swept {
            sync_dir(&self.snapshot_path())?;
        }
        Ok(active)
    }
}

/// The journal as overlays, before they are laid over a base.
#[derive(Default)]
struct Overlays {
    segments: Vec<Arc<Segment>>,
    prebuilt_ops: usize,
    reindexed_ops: usize,
}

impl Overlays {
    fn over(self, base: Arc<dyn BaseCorpus>) -> Result<SegmentedLoad, StoreError> {
        Ok(SegmentedLoad {
            replayed_segments: self.segments.len(),
            corpus: SegmentedCorpus::new(base, self.segments)
                .map_err(|e| StoreError::Corrupt(e.to_string()))?,
            prebuilt_ops: self.prebuilt_ops,
            reindexed_ops: self.reindexed_ops,
        })
    }
}

/// One journal file and the sequence range it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegFile {
    start: u64,
    end: u64,
    path: PathBuf,
}

/// Replays one owned delta op onto a page list (the move-semantics
/// sibling of [`DeltaOp::apply`] — added pages transfer instead of
/// cloning).
fn apply_owned(op: DeltaOp, pages: &mut Vec<WebPage>) {
    match op {
        DeltaOp::AddPages(added) => pages.extend(added),
        DeltaOp::RemovePages(urls) => {
            let doomed: std::collections::HashSet<&str> = urls.iter().map(String::as_str).collect();
            pages.retain(|page| !doomed.contains(page.url.as_str()));
        }
    }
}

/// The sequence range of a `delta-NNNNNN.seg` (single segment,
/// `(N, N)`) or `delta-NNNNNN-MMMMMM.seg` (merged run, `(N, M)`,
/// requiring `N <= M`) path, if it is one.
fn segment_range(path: &Path) -> Option<(u64, u64)> {
    if path.extension()? != DELTA_EXT {
        return None;
    }
    let stem = path.file_stem()?.to_str()?.strip_prefix(DELTA_PREFIX)?;
    match stem.split_once('-') {
        None => {
            let seq: u64 = stem.parse().ok()?;
            Some((seq, seq))
        }
        Some((start, end)) => {
            let start: u64 = start.parse().ok()?;
            let end: u64 = end.parse().ok()?;
            (start <= end).then_some((start, end))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_names_parse_and_sort() {
        assert_eq!(
            segment_range(Path::new("/x/delta-000007.seg")),
            Some((7, 7))
        );
        assert_eq!(
            segment_range(Path::new("/x/delta-1000000.seg")),
            Some((1_000_000, 1_000_000))
        );
        assert_eq!(
            segment_range(Path::new("/x/delta-000001-000004.seg")),
            Some((1, 4))
        );
        assert_eq!(segment_range(Path::new("/x/delta-000004-000001.seg")), None);
        assert_eq!(segment_range(Path::new("/x/corpus.snap")), None);
        assert_eq!(segment_range(Path::new("/x/delta-abc.seg")), None);
        assert_eq!(segment_range(Path::new("/x/delta-000007.tmp")), None);
        assert_eq!(segment_range(Path::new("/x/delta-1-2-3.seg")), None);
    }

    #[test]
    fn resolution_order_puts_runs_before_their_leftovers() {
        let mut files = [
            SegFile {
                start: 2,
                end: 2,
                path: PathBuf::from("/x/delta-000002.seg"),
            },
            SegFile {
                start: 5,
                end: 5,
                path: PathBuf::from("/x/delta-000005.seg"),
            },
            SegFile {
                start: 1,
                end: 4,
                path: PathBuf::from("/x/delta-000001-000004.seg"),
            },
            SegFile {
                start: 1,
                end: 1,
                path: PathBuf::from("/x/delta-000001.seg"),
            },
        ];
        // Same key `segment_files` sorts by.
        files.sort_by(|a, b| {
            (a.start, std::cmp::Reverse(a.end), &a.path).cmp(&(
                b.start,
                std::cmp::Reverse(b.end),
                &b.path,
            ))
        });
        let order: Vec<u64> = files.iter().map(|f| f.end).collect();
        assert_eq!(order, vec![4, 1, 2, 5]);
    }
}
