//! Zero-copy serving off a snapshot file image — the store's one
//! in-place read path.
//!
//! [`decode_corpus`] materializes every string and posting into owned
//! structures: correct, but a warm open pays that allocation storm just
//! to reach the bytes it started from, and for a corpus that outgrows
//! RAM it is the wrong shape altogether — the pages section dominates
//! the file and a search never touches it. [`MappedSnapshot`] serves
//! the bytes where they lie, behind one [`SnapshotBytes`] (a heap
//! buffer or a file mapping):
//!
//! * **Open is O(sections)**, not O(corpus): the container structure is
//!   parsed ([`decode_container_deferred`]) and the four section spans
//!   recorded; no payload byte is read, checksummed or decoded.
//! * **Verification moves to first touch, per section.** The first
//!   search CRCs and validates the three *index* sections (terms,
//!   postings, docmeta — the small minority of the file); the first
//!   page-text access CRCs and walks the pages section. A snapshot
//!   whose pages rotted still *ranks* correctly — only hydration
//!   degrades, with a typed error.
//! * **The bytes live in the OS page cache.** Backed by
//!   [`SnapshotBytes::Mapped`], untouched sections are never faulted
//!   in, so peak RSS tracks what queries touch (index + hit pages),
//!   not corpus size — and N processes mapping the same snapshot share
//!   one physical copy.
//!
//! [`ViewBackend`] is the serving adapter: it implements
//! [`SearchBackend`] (so the engine facade and the live service can
//! query it directly) and [`BaseCorpus`] (so
//! [`SegmentedCorpus`](teda_websim::SegmentedCorpus) overlays journal
//! deltas on top of the mapping — live adds and removes keep working,
//! bit-identical to a heap rebuild). Over a heap buffer
//! (`MappedSnapshot::open(SnapshotBytes::Heap(..))`), `ViewBackend::new`
//! plus [`MappedSnapshot::verify_pages`] is the fully verified warm
//! open: every check [`decode_corpus`] makes, none of its allocations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use teda_obs::{Histogram, StageTimer};
use teda_websim::{
    results_of, scoring, BaseCorpus, PageFields, PageId, SearchBackend, SearchResult, WebCorpus,
};

use crate::corpus_snapshot::{
    decode_corpus, page_fields_at, slot_corpus_sections, validate_page_spans, CoreIndexView,
    SnapshotBytes, Span,
};
use crate::format::{decode_container_deferred, verify_section, RawSection, KIND_CORPUS};
use crate::StoreError;

/// Mapping-side counters for stats surfaces: how big the mapping is,
/// how much heap the side tables cost, and how many page hydrations
/// queries have paid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Bytes of the snapshot file behind the view (the whole mapping).
    pub mapped_bytes: u64,
    /// Heap bytes of side tables materialized so far (term lookup,
    /// page-span table) — the resident cost of serving off the mapping.
    pub resident_bytes: u64,
    /// Page-text hydrations served (one per `page_fields` access).
    pub hydrations: u64,
}

/// A corpus snapshot opened over its raw file image with **all**
/// payload work deferred: sections are CRC-verified and validated on
/// first touch, independently for the index half (terms + postings +
/// docmeta) and the pages half.
///
/// Construction is O(section count). The index half materializes on
/// the first search (or explicitly via [`verify_core`]); the pages
/// half on the first page-text access (or [`verify_pages`]). Each
/// half's outcome — view or typed error — is computed once and cached,
/// so a rotted section fails the same way on every access and a clean
/// one is never re-verified.
///
/// [`verify_core`]: MappedSnapshot::verify_core
/// [`verify_pages`]: MappedSnapshot::verify_pages
#[derive(Debug)]
pub struct MappedSnapshot {
    bytes: SnapshotBytes,
    pages_sec: RawSection,
    terms_sec: RawSection,
    postings_sec: RawSection,
    docmeta_sec: RawSection,
    core: OnceLock<Result<CoreIndexView, StoreError>>,
    pages: OnceLock<Result<Vec<[Span; 3]>, StoreError>>,
    hydrations: AtomicU64,
    /// `page_hydration` stage histogram, attached by the serving layer
    /// (see [`attach_hydration_histogram`]); unattached records nothing.
    ///
    /// [`attach_hydration_histogram`]: MappedSnapshot::attach_hydration_histogram
    hist_hydration: OnceLock<Arc<Histogram>>,
}

impl MappedSnapshot {
    /// Opens a snapshot image, parsing only the container structure:
    /// header checks, the section table (every declared length bounds-
    /// checked), and the four-section slotting. No payload byte is
    /// read — on a fresh mapping this faults in one page.
    pub fn open(bytes: SnapshotBytes) -> Result<Arc<Self>, StoreError> {
        let raw = decode_container_deferred(&bytes, KIND_CORPUS)?;
        let secs = slot_corpus_sections(raw.into_iter().map(|s| (s.tag, s)).collect())?;
        Ok(Arc::new(MappedSnapshot {
            bytes,
            pages_sec: secs.pages,
            terms_sec: secs.terms,
            postings_sec: secs.postings,
            docmeta_sec: secs.docmeta,
            core: OnceLock::new(),
            pages: OnceLock::new(),
            hydrations: AtomicU64::new(0),
            hist_hydration: OnceLock::new(),
        }))
    }

    /// Attaches the `page_hydration` latency histogram. The first
    /// attachment wins; later calls are no-ops, so re-attaching after a
    /// snapshot reload is always safe.
    pub fn attach_hydration_histogram(&self, hist: Arc<Histogram>) {
        let _ = self.hist_hydration.set(hist);
    }

    /// The whole file image (for binding segment files to this base).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The index half, verifying it on first call: CRCs over the
    /// terms, postings and docmeta sections, then the structural walk
    /// `InvertedIndex::from_parts` would make.
    pub(crate) fn core(&self) -> Result<&CoreIndexView, StoreError> {
        self.core
            .get_or_init(|| {
                verify_section(&self.bytes, &self.terms_sec)?;
                verify_section(&self.bytes, &self.postings_sec)?;
                verify_section(&self.bytes, &self.docmeta_sec)?;
                CoreIndexView::open(
                    self.bytes.clone(),
                    self.terms_sec.span.clone(),
                    self.postings_sec.span.clone(),
                    self.docmeta_sec.span.clone(),
                )
            })
            .as_ref()
            .map_err(StoreError::clone)
    }

    /// The page-span table, verifying the pages section on first call
    /// (CRC + UTF-8/structure walk + the page-count/doc-count
    /// cross-check, which forces the index half too).
    pub(crate) fn page_table(&self) -> Result<&[[Span; 3]], StoreError> {
        let n_docs = self.core()?.n_docs();
        self.pages
            .get_or_init(|| {
                verify_section(&self.bytes, &self.pages_sec)?;
                let spans = validate_page_spans(&self.bytes, self.pages_sec.span.clone())?;
                if spans.len() != n_docs {
                    return Err(StoreError::Corrupt(format!(
                        "index covers {n_docs} documents but the page store holds {}",
                        spans.len()
                    )));
                }
                Ok(spans)
            })
            .as_ref()
            .map(Vec::as_slice)
            .map_err(StoreError::clone)
    }

    /// Forces verification of the index half now (first-query work
    /// moved to open time). Idempotent.
    pub fn verify_core(&self) -> Result<(), StoreError> {
        self.core().map(|_| ())
    }

    /// Forces verification of the pages half now. Idempotent. Callers
    /// that will *trust* page text (e.g. URL-based removals resolved
    /// through overlays) should force this up front rather than accept
    /// the degraded empty fields.
    pub fn verify_pages(&self) -> Result<(), StoreError> {
        self.page_table().map(|_| ())
    }

    /// The pages half's cached verification failure, if it has been
    /// touched and failed — how a caller distinguishes "no hits" from
    /// "hydration degraded" after an empty `search_results`.
    pub fn pages_error(&self) -> Option<StoreError> {
        match self.pages.get() {
            Some(Err(e)) => Some(e.clone()),
            _ => None,
        }
    }

    /// Hydrates page `id`'s fields from the mapping, verifying the
    /// pages section on first touch. Each successful call counts one
    /// hydration.
    pub fn page_fields(&self, id: PageId) -> Result<PageFields<'_>, StoreError> {
        let _timer = self.hist_hydration.get().map(|h| StageTimer::start(h));
        let table = self.page_table()?;
        if id.0 as usize >= table.len() {
            return Err(StoreError::Corrupt(format!(
                "page {} out of range ({} pages)",
                id.0,
                table.len()
            )));
        }
        self.hydrations.fetch_add(1, Ordering::Relaxed);
        Ok(page_fields_at(&self.bytes, table, id))
    }

    /// Bytes of the snapshot file behind the view.
    pub fn mapped_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Whether a real kernel mapping backs the view (`false` for heap
    /// buffers — including `memmap2`'s forced-fallback mode): the
    /// sharing and lazy-fault claims only hold when this is `true`.
    pub fn is_kernel_mapped(&self) -> bool {
        match &self.bytes {
            SnapshotBytes::Mapped(m) => m.is_kernel_mapped(),
            SnapshotBytes::Heap(_) => false,
        }
    }

    /// Heap bytes of side tables materialized so far. Grows stepwise as
    /// halves are touched; stays far below `mapped_bytes` because page
    /// *text* (the bulk of the file) is never copied.
    pub fn resident_bytes(&self) -> u64 {
        let mut bytes = 0usize;
        if let Some(Ok(core)) = self.core.get() {
            bytes += core.resident_bytes();
        }
        if let Some(Ok(pages)) = self.pages.get() {
            bytes += pages.len() * std::mem::size_of::<[Span; 3]>();
        }
        bytes as u64
    }

    /// Page-text hydrations served so far.
    pub fn hydrations(&self) -> u64 {
        self.hydrations.load(Ordering::Relaxed)
    }

    /// All three counters as one [`MapStats`] value.
    pub fn stats(&self) -> MapStats {
        MapStats {
            mapped_bytes: self.mapped_bytes(),
            resident_bytes: self.resident_bytes(),
            hydrations: self.hydrations(),
        }
    }

    /// Materializes the eager corpus from the same bytes (full decode,
    /// full verification) — for callers that outgrow the mapping.
    pub fn materialize(&self) -> Result<WebCorpus, StoreError> {
        decode_corpus(&self.bytes)
    }
}

/// The serving adapter over a [`MappedSnapshot`]: a [`SearchBackend`]
/// whose postings are walked in place and whose page text hydrates
/// lazily per hit, and a [`BaseCorpus`] so segment overlays apply live
/// deltas on top of the mapping.
///
/// Construction forces the index half, so `search`/`n_docs` are
/// infallible afterwards and bit-identical to the eager
/// `WebCorpus` over the same snapshot (same posting walk, same scoring
/// kernel — property-tested in `tests/backend_conformance.rs`).
///
/// Degradation contract: if the *pages* half fails verification (rot
/// confined to page text), ranking keeps working; `search_results`
/// returns nothing and [`BaseCorpus::page_fields`] serves empty
/// fields, with the typed error retrievable via
/// [`MappedSnapshot::pages_error`]. Never a panic.
#[derive(Debug, Clone)]
pub struct ViewBackend {
    snap: Arc<MappedSnapshot>,
}

impl ViewBackend {
    /// Wraps `snap`, verifying the index half now (the one-time
    /// first-query cost — still O(index), never O(pages)).
    pub fn new(snap: Arc<MappedSnapshot>) -> Result<Self, StoreError> {
        snap.verify_core()?;
        Ok(ViewBackend { snap })
    }

    /// The underlying snapshot (counters, explicit verification).
    pub fn snapshot(&self) -> &Arc<MappedSnapshot> {
        &self.snap
    }

    fn core(&self) -> &CoreIndexView {
        self.snap.core().expect("core verified at construction")
    }
}

impl SearchBackend for ViewBackend {
    fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        scoring::top_k(self.core(), query, k)
    }

    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult> {
        let hits = scoring::top_k(self.core(), query, k);
        if hits.is_empty() || self.snap.page_table().is_err() {
            // Rot confined to page text degrades hydration only; the
            // typed error stays readable via `snapshot().pages_error()`.
            return Vec::new();
        }
        results_of(hits, |id| {
            self.snap.page_fields(id).expect("page table verified")
        })
    }

    fn n_docs(&self) -> usize {
        self.core().n_docs()
    }
}

impl BaseCorpus for ViewBackend {
    fn n_docs(&self) -> usize {
        self.core().n_docs()
    }

    fn term_id(&self, term: &str) -> Option<u32> {
        self.core().term_id(term)
    }

    fn n_terms(&self) -> usize {
        self.core().n_terms()
    }

    fn postings_len(&self, tid: u32) -> usize {
        self.core().postings_len(tid)
    }

    fn for_each_posting(&self, tid: u32, visit: &mut dyn FnMut(u32, f32)) {
        self.core().for_each_posting(tid, visit)
    }

    fn doc_len_of(&self, doc: usize) -> f64 {
        self.core().doc_len_of(doc)
    }

    fn page_fields(&self, id: PageId) -> PageFields<'_> {
        // The trait signature is infallible; a failed pages half
        // degrades to empty fields (ranking unaffected) with the typed
        // error kept on the snapshot. Overlay paths that *trust* page
        // text call `verify_pages` up front instead.
        self.snap.page_fields(id).unwrap_or(PageFields {
            url: "",
            title: "",
            body: "",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_snapshot::{encode_corpus, SEC_DOCMETA, SEC_PAGES, SEC_POSTINGS, SEC_TERMS};
    use teda_kb::{World, WorldSpec};
    use teda_websim::WebCorpusSpec;

    fn corpus() -> WebCorpus {
        let world = World::generate(WorldSpec::tiny(), 42);
        WebCorpus::build(&world, WebCorpusSpec::tiny(), 42)
    }

    fn heap_snapshot(bytes: Vec<u8>) -> Arc<MappedSnapshot> {
        MappedSnapshot::open(SnapshotBytes::Heap(bytes.into())).expect("open")
    }

    fn probes() -> Vec<(&'static str, usize)> {
        let mut out = Vec::new();
        for q in ["restaurant", "melisse santa monica", "zzz absent", ""] {
            for k in [1, 5, 20] {
                out.push((q, k));
            }
        }
        out
    }

    #[test]
    fn mapped_backend_is_bit_identical_to_eager_decode() {
        let original = corpus();
        let bytes = encode_corpus(&original);
        let eager = decode_corpus(&bytes).expect("eager decodes");
        let snap = heap_snapshot(bytes);
        let backend = ViewBackend::new(Arc::clone(&snap)).expect("core verifies");
        snap.verify_pages().expect("pages verify");
        assert_eq!(SearchBackend::n_docs(&backend), original.len());
        for (i, page) in eager.pages().iter().enumerate() {
            let f = snap.page_fields(PageId(i as u32)).expect("page hydrates");
            assert_eq!(
                (f.url, f.title, f.body),
                (&*page.url, &*page.title, &*page.body)
            );
        }
        for (q, k) in probes() {
            let mapped = backend.search(q, k);
            let eager = eager.index().search(q, k);
            assert_eq!(mapped.len(), eager.len(), "{q:?} k {k}");
            for (m, e) in mapped.iter().zip(&eager) {
                assert_eq!(m.0, e.0, "{q:?} k {k}");
                assert_eq!(m.1.to_bits(), e.1.to_bits(), "{q:?} k {k}");
            }
        }
    }

    #[test]
    fn hydration_is_lazy_counted_and_correct() {
        let original = corpus();
        let snap = heap_snapshot(encode_corpus(&original));
        let backend = ViewBackend::new(Arc::clone(&snap)).expect("core verifies");
        assert_eq!(snap.hydrations(), 0);
        let before_pages = snap.resident_bytes();
        let _ = backend.search("restaurant", 5);
        assert_eq!(snap.hydrations(), 0, "ranking must not hydrate pages");
        let results = backend.search_results("restaurant", 5);
        assert!(!results.is_empty());
        assert_eq!(snap.hydrations(), results.len() as u64);
        assert!(
            snap.resident_bytes() > before_pages,
            "page-span table must show up in resident bytes"
        );
        assert!(snap.resident_bytes() < snap.mapped_bytes());
        for (i, r) in results.iter().enumerate() {
            let id = backend.search("restaurant", 5)[i].0;
            assert_eq!(r.url, original.page(id).url);
        }
    }

    #[test]
    fn rot_in_the_pages_section_degrades_hydration_but_not_ranking() {
        let original = corpus();
        let bytes = encode_corpus(&original);
        // Locate the pages payload and flip one byte inside it: the
        // index sections still verify, the pages section must not.
        let raw = decode_container_deferred(&bytes, KIND_CORPUS).expect("structure");
        let pages_sec = raw.iter().find(|s| s.tag == SEC_PAGES).expect("pages");
        let mut rotted = bytes.clone();
        rotted[pages_sec.span.start + pages_sec.span.len() / 2] ^= 0x20;

        let snap = heap_snapshot(rotted);
        let backend = ViewBackend::new(Arc::clone(&snap))
            .expect("index sections are intact, so the backend must open");
        // Ranking: bit-identical to the clean corpus.
        for (q, k) in probes() {
            let got = backend.search(q, k);
            let want = original.index().search(q, k);
            assert_eq!(got.len(), want.len(), "{q:?} k {k}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()), "{q:?} k {k}");
            }
        }
        // Hydration: empty results, typed error, no panic.
        assert!(snap.pages_error().is_none(), "pages untouched so far");
        assert!(backend.search_results("restaurant", 5).is_empty());
        assert!(matches!(
            snap.pages_error(),
            Some(StoreError::ChecksumMismatch { section: SEC_PAGES } | StoreError::Corrupt(_))
        ));
        // BaseCorpus hydration degrades to empty fields.
        assert_eq!(BaseCorpus::page_fields(&backend, PageId(0)).url, "");
        assert_eq!(snap.hydrations(), 0);
    }

    #[test]
    fn rot_in_an_index_section_fails_backend_construction_typed() {
        let bytes = encode_corpus(&corpus());
        let raw = decode_container_deferred(&bytes, KIND_CORPUS).expect("structure");
        for tag in [SEC_TERMS, SEC_POSTINGS, SEC_DOCMETA] {
            let sec = raw.iter().find(|s| s.tag == tag).expect("section");
            let mut rotted = bytes.clone();
            rotted[sec.span.start + sec.span.len() / 2] ^= 0x04;
            let snap = heap_snapshot(rotted);
            match ViewBackend::new(snap) {
                Err(StoreError::ChecksumMismatch { section }) => assert_eq!(section, tag),
                other => panic!("tag {tag}: want ChecksumMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn open_rejects_structural_damage_like_the_eager_decoder() {
        let bytes = encode_corpus(&corpus());
        // Bit rot in the last section fails its CRC once verified.
        let mut rotted = bytes.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x10;
        let rotted = heap_snapshot(rotted);
        assert!(matches!(
            ViewBackend::new(Arc::clone(&rotted)).and_then(|_| rotted.verify_pages()),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // Sampled truncations: typed error, never a panic. Open is
        // structure-only, so damage inside payloads surfaces as the
        // container-level "length points past the end" Corrupt.
        let step = (bytes.len() / 32).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            let err = MappedSnapshot::open(SnapshotBytes::Heap(bytes[..cut].to_vec().into()))
                .map(|_| ())
                .expect_err("truncated snapshot must not open");
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. } | StoreError::BadMagic | StoreError::Corrupt(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }
}
