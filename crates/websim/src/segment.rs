//! The segmented index: a base corpus plus journaled segments, merged
//! at **read time** instead of re-indexed at load time.
//!
//! Lucene-style shape: the base collection (any [`BaseCorpus`] — the
//! heap-resident [`WebCorpus`](crate::WebCorpus) with its monolithic
//! [`InvertedIndex`], or `teda-store`'s mmap'd view backend) keeps its
//! own index; every journal segment carries the pages of its
//! `add` operations together with a **partial index built over exactly
//! those pages** (one `InvertedIndex::build` at append time — the
//! O(delta) cost); removals become a remove-set applied while scoring.
//! [`SegmentedCorpus::search`] then answers queries by walking base
//! postings and segment postings in final-document order and feeding
//! the shared [`crate::scoring`] kernel.
//!
//! **Bit-identity to a full rebuild** — the hard invariant — needs four
//! things, all arranged here:
//!
//! 1. *Per-document inputs are pure.* A document's `tf` values and
//!    indexed length depend only on its own text, so a partial index
//!    built at append time stores the same bit patterns a from-scratch
//!    rebuild would compute for that document.
//! 2. *`avg_len` is an ordered sum.* `f64` addition is not associative,
//!    so the average document length is recomputed as the sum over
//!    surviving documents **in final document order** (base survivors
//!    first, then added survivors), exactly the order the rebuild's
//!    merge accumulates — same additions, same bits.
//! 3. *`df` counts survivors.* A term's document frequency is the
//!    number of its postings that survive the remove-set, counted in a
//!    first pass before any scoring, because the rebuild computes `idf`
//!    from the final posting-list length up front.
//! 4. *Postings walk in final-id order.* Base survivors are remapped
//!    (old id minus the removed ids below it — order-preserving), then
//!    segment postings follow in journal order; the resulting scan is
//!    ascending in final ids, so score accumulation and the first-touch
//!    order behind tie-breaking match the rebuild exactly.
//!
//! Proven per-query in the `tests/store.rs` property tests: random
//! add/remove sequences × random segment boundaries × random `k`,
//! compared bit-for-bit against `WebCorpus::from_pages` on the same
//! logical page list.

use std::collections::HashMap;
use std::sync::Arc;

use crate::backend::{assemble_hits, results_of, BaseCorpus, PageFields, SearchBackend};
use crate::engine::SearchResult;
use crate::index::{invalid_parts, InvalidIndexParts, InvertedIndex};
use crate::page::{PageId, WebPage};
use crate::scoring;

/// One journaled operation inside a segment. Additions carry the
/// partial index built over exactly their pages; the pairing is
/// enforced by construction (no public way to attach a mismatched
/// index).
#[derive(Debug, Clone)]
pub struct SegmentOp(OpKind);

#[derive(Debug, Clone)]
enum OpKind {
    Add {
        pages: Vec<WebPage>,
        index: InvertedIndex,
    },
    Remove {
        urls: Vec<String>,
    },
}

impl SegmentOp {
    /// An addition, building the partial index over `pages` here (the
    /// one O(delta) tokenization this update will ever pay).
    pub fn add(pages: Vec<WebPage>) -> Self {
        let index = InvertedIndex::build(&pages);
        SegmentOp(OpKind::Add { pages, index })
    }

    /// An addition with an already-built partial index (the snapshot
    /// load path, which deserializes the index instead of re-building
    /// it). Fails when the index does not cover exactly `pages` — a
    /// corrupt partial must fall back to [`add`](Self::add), never
    /// serve queries about the wrong documents.
    pub fn add_prebuilt(
        pages: Vec<WebPage>,
        index: InvertedIndex,
    ) -> Result<Self, InvalidIndexParts> {
        if index.n_docs() != pages.len() {
            return Err(invalid_parts(format!(
                "segment partial index covers {} documents but the op adds {}",
                index.n_docs(),
                pages.len()
            )));
        }
        Ok(SegmentOp(OpKind::Add { pages, index }))
    }

    /// A removal of every current page whose URL is listed.
    pub fn remove(urls: Vec<String>) -> Self {
        SegmentOp(OpKind::Remove { urls })
    }

    /// The added pages and their partial index, for an add op.
    pub fn added(&self) -> Option<(&[WebPage], &InvertedIndex)> {
        match &self.0 {
            OpKind::Add { pages, index } => Some((pages, index)),
            OpKind::Remove { .. } => None,
        }
    }

    /// The removed URLs, for a remove op.
    pub fn removed(&self) -> Option<&[String]> {
        match &self.0 {
            OpKind::Remove { urls } => Some(urls),
            OpKind::Add { .. } => None,
        }
    }
}

/// One journal segment: an ordered operation batch (one
/// `add_pages`/`remove_pages` call journaled together).
#[derive(Debug, Clone, Default)]
pub struct Segment {
    ops: Vec<SegmentOp>,
}

impl Segment {
    /// A segment over the given operations, in journal order.
    pub fn new(ops: Vec<SegmentOp>) -> Self {
        Segment { ops }
    }

    /// The operations, in order.
    pub fn ops(&self) -> &[SegmentOp] {
        &self.ops
    }
}

/// Where every surviving document lands in the final id space, plus the
/// collection-level BM25 inputs. Recomputed when a segment is pushed —
/// O(base) bookkeeping at worst (when removals exist), never any
/// tokenization.
#[derive(Debug)]
struct Plan {
    /// Final (logical) document count.
    n_docs: usize,
    /// Base documents surviving the remove-set.
    n_base_alive: usize,
    /// Documents (base + added) killed by remove ops.
    removed_docs: usize,
    /// Ordered-sum average document length over the final collection.
    avg_len: f64,
    /// Base orig id → final id (`u32::MAX` = removed); `None` when no
    /// base document was removed (identity).
    base_remap: Option<Vec<u32>>,
    /// Final base id → orig id; `None` = identity.
    base_orig: Option<Vec<u32>>,
    /// Surviving add ops, ascending in final ids.
    runs: Vec<Run>,
}

/// One add op's surviving documents: a contiguous block of final ids
/// starting at `first_final`.
#[derive(Debug)]
struct Run {
    seg: u32,
    op: u32,
    first_final: u32,
    /// Local doc id (within the op) → final id (`u32::MAX` = removed).
    final_of_local: Vec<u32>,
    /// Surviving local ids in order; `alive_locals[f - first_final]`
    /// recovers the local id of final id `f`.
    alive_locals: Vec<u32>,
}

/// Which page list slot a URL currently occupies, while replaying ops.
#[derive(Clone, Copy)]
enum Slot {
    Base(u32),
    Added { add: u32, local: u32 },
}

/// A base corpus plus journal segments, searchable as one logical
/// collection with results bit-identical to a full rebuild.
#[derive(Debug)]
pub struct SegmentedCorpus {
    base: Arc<dyn BaseCorpus>,
    segments: Vec<Arc<Segment>>,
    plan: Plan,
}

impl SegmentedCorpus {
    /// A segmented view of `base` with `segments` applied in order.
    /// O(segments + base bookkeeping); no tokenization. `base` is any
    /// [`BaseCorpus`] — an `Arc<WebCorpus>` coerces here unchanged.
    pub fn new(
        base: Arc<dyn BaseCorpus>,
        segments: Vec<Arc<Segment>>,
    ) -> Result<Self, InvalidIndexParts> {
        let plan = compute_plan(base.as_ref(), &segments)?;
        Ok(SegmentedCorpus {
            base,
            segments,
            plan,
        })
    }

    /// A new view with one more segment at the end — the live-refresh
    /// step. The base and existing segments are shared (`Arc`), only
    /// the plan is recomputed.
    pub fn push_segment(&self, segment: Arc<Segment>) -> Result<Self, InvalidIndexParts> {
        let mut segments = self.segments.clone();
        segments.push(segment);
        Self::new(self.base.clone(), segments)
    }

    /// The base collection under the segments.
    pub fn base(&self) -> &Arc<dyn BaseCorpus> {
        &self.base
    }

    /// The applied segments, in order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Final (logical) document count.
    pub fn n_docs(&self) -> usize {
        self.plan.n_docs
    }

    /// Documents the remove-set has killed (base and added alike) —
    /// the quantity tier policies bound.
    pub fn removed_docs(&self) -> usize {
        self.plan.removed_docs
    }

    /// The logical page list, in final id order — what a rebuild would
    /// index. Materializes clones; meant for compaction oracles and
    /// tests, not the serving path.
    pub fn to_pages(&self) -> Vec<WebPage> {
        fn owned(f: PageFields<'_>) -> WebPage {
            WebPage {
                url: f.url.to_string(),
                title: f.title.to_string(),
                body: f.body.to_string(),
            }
        }
        let mut out = Vec::with_capacity(self.plan.n_docs);
        match &self.plan.base_orig {
            Some(orig) => {
                for &i in orig {
                    out.push(owned(self.base.page_fields(PageId(i))));
                }
            }
            None => {
                for i in 0..self.base.n_docs() {
                    out.push(owned(self.base.page_fields(PageId(i as u32))));
                }
            }
        }
        for run in &self.plan.runs {
            let (pages, _) = self.run_parts(run);
            for &l in &run.alive_locals {
                out.push(pages[l as usize].clone());
            }
        }
        out
    }

    /// Borrowed field views of the page with final id `id`. Panics on
    /// out-of-range ids (same contract as
    /// [`WebCorpus::page`](crate::WebCorpus::page)).
    pub fn page_fields(&self, id: PageId) -> PageFields<'_> {
        let f = id.0;
        if (f as usize) < self.plan.n_base_alive {
            let orig = match &self.plan.base_orig {
                Some(orig) => orig[f as usize],
                None => f,
            };
            return self.base.page_fields(PageId(orig));
        }
        let runs = &self.plan.runs;
        let at = runs
            .partition_point(|r| r.first_final <= f)
            .checked_sub(1)
            .expect("page id out of range");
        let run = &runs[at];
        let local = run.alive_locals[(f - run.first_final) as usize];
        let (pages, _) = self.run_parts(run);
        let p = &pages[local as usize];
        PageFields {
            url: &p.url,
            title: &p.title,
            body: &p.body,
        }
    }

    /// Scores `query` against the merged collection: up to `k` pages by
    /// descending BM25, ties by ascending final id — bit-identical to
    /// `WebCorpus::from_pages(self.to_pages()).index().search(query, k)`
    /// (see the module docs for why).
    pub fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        scoring::top_k(self, query, k)
    }

    fn run_parts(&self, run: &Run) -> (&[WebPage], &InvertedIndex) {
        self.segments[run.seg as usize].ops()[run.op as usize]
            .added()
            .expect("plan runs only reference add ops")
    }
}

/// The overlay flavour of the BM25 kernel, scoring in final ids. The
/// term resolves to its base term id and one term id per run.
impl scoring::ScoreSource for SegmentedCorpus {
    type Term = (Option<u32>, Vec<Option<u32>>);

    fn n_docs(&self) -> usize {
        self.plan.n_docs
    }

    fn avg_len(&self) -> f64 {
        self.plan.avg_len
    }

    /// Pass 1: the term's surviving document frequency — the rebuild
    /// derives idf from the *final* posting-list length before scoring
    /// a single posting.
    fn idf(&self, token: &str) -> Option<(f64, Self::Term)> {
        let base_tid = self.base.term_id(token);
        let mut df = 0usize;
        if let Some(tid) = base_tid {
            match &self.plan.base_remap {
                None => df += self.base.postings_len(tid),
                Some(remap) => self.base.for_each_posting(tid, &mut |page, _| {
                    if remap[page as usize] != u32::MAX {
                        df += 1;
                    }
                }),
            }
        }
        let mut run_tids = Vec::with_capacity(self.plan.runs.len());
        for run in &self.plan.runs {
            let (_, index) = self.run_parts(run);
            let tid = index.term_id(token);
            if let Some(t) = tid {
                df += index
                    .postings_of(t)
                    .iter()
                    .filter(|p| run.final_of_local[p.page.0 as usize] != u32::MAX)
                    .count();
            }
            run_tids.push(tid);
        }
        (df > 0).then(|| (scoring::idf(self.plan.n_docs, df), (base_tid, run_tids)))
    }

    /// Pass 2: postings in ascending final-id order — base survivors
    /// (the remap is order-preserving), then each run.
    fn postings(&self, (base_tid, run_tids): &Self::Term, mut visit: impl FnMut(u32, f32, f64)) {
        if let Some(tid) = *base_tid {
            let remap = self.plan.base_remap.as_deref();
            self.base.for_each_posting(tid, &mut |page, tf| {
                let f = remap.map_or(page, |remap| remap[page as usize]);
                if f != u32::MAX {
                    visit(f, tf, self.base.doc_len_of(page as usize));
                }
            });
        }
        for (run, &tid) in self.plan.runs.iter().zip(run_tids) {
            let Some(tid) = tid else { continue };
            let (_, index) = self.run_parts(run);
            for p in index.postings_of(tid) {
                let local = p.page.0 as usize;
                let f = run.final_of_local[local];
                if f != u32::MAX {
                    visit(f, p.tf, index.doc_len_of(local));
                }
            }
        }
    }
}

impl SearchBackend for SegmentedCorpus {
    fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        SegmentedCorpus::search(self, query, k)
    }

    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult> {
        results_of(self.search_hits(query, k))
    }

    fn search_hits(&self, query: &str, k: usize) -> Vec<(PageId, f64, SearchResult)> {
        assemble_hits(SegmentedCorpus::search(self, query, k), |id| {
            self.page_fields(id)
        })
    }

    fn n_docs(&self) -> usize {
        self.plan.n_docs
    }
}

/// Replays the segments' operations over the base to decide which
/// documents survive and where they land — the exact alive/ordering
/// semantics of [`teda-store`'s] page-list replay (`DeltaOp::apply`):
/// adds append in order, a removal kills every *currently alive* page
/// with a matching URL, base and previously added pages alike.
fn compute_plan(
    base: &dyn BaseCorpus,
    segments: &[Arc<Segment>],
) -> Result<Plan, InvalidIndexParts> {
    struct AddState {
        seg: u32,
        op: u32,
        alive: Vec<bool>,
    }

    let n_base = base.n_docs();
    let any_remove = segments
        .iter()
        .any(|s| s.ops().iter().any(|o| o.removed().is_some()));

    let mut adds: Vec<AddState> = Vec::new();
    let mut base_alive: Vec<bool> = Vec::new();
    if any_remove {
        // Removal targets resolve by URL against everything currently
        // alive, so a URL → slot multimap is maintained through the
        // replay. Only built when a removal actually exists — the
        // pure-append fast path never hashes a single base URL.
        base_alive = vec![true; n_base];
        let mut by_url: HashMap<&str, Vec<Slot>> = HashMap::with_capacity(n_base);
        for i in 0..n_base {
            by_url
                .entry(base.page_fields(PageId(i as u32)).url)
                .or_default()
                .push(Slot::Base(i as u32));
        }
        for (si, seg) in segments.iter().enumerate() {
            for (oi, op) in seg.ops().iter().enumerate() {
                if let Some((pages, _)) = op.added() {
                    let add = adds.len() as u32;
                    for (l, p) in pages.iter().enumerate() {
                        by_url.entry(p.url.as_str()).or_default().push(Slot::Added {
                            add,
                            local: l as u32,
                        });
                    }
                    adds.push(AddState {
                        seg: si as u32,
                        op: oi as u32,
                        alive: vec![true; pages.len()],
                    });
                } else if let Some(urls) = op.removed() {
                    for url in urls {
                        let Some(slots) = by_url.remove(url.as_str()) else {
                            continue;
                        };
                        for slot in slots {
                            match slot {
                                Slot::Base(i) => base_alive[i as usize] = false,
                                Slot::Added { add, local } => {
                                    adds[add as usize].alive[local as usize] = false;
                                }
                            }
                        }
                    }
                }
            }
        }
    } else {
        for (si, seg) in segments.iter().enumerate() {
            for (oi, op) in seg.ops().iter().enumerate() {
                if let Some((pages, _)) = op.added() {
                    adds.push(AddState {
                        seg: si as u32,
                        op: oi as u32,
                        alive: vec![true; pages.len()],
                    });
                }
            }
        }
    }

    // Final ids for base survivors: old id minus removed-ids-below —
    // computed as one order-preserving remap sweep.
    let base_removed = base_alive.iter().filter(|&&a| !a).count();
    let (n_base_alive, base_remap, base_orig) = if base_removed > 0 {
        let mut remap = vec![u32::MAX; n_base];
        let mut orig = Vec::with_capacity(n_base - base_removed);
        for (i, &alive) in base_alive.iter().enumerate() {
            if alive {
                remap[i] = orig.len() as u32;
                orig.push(i as u32);
            }
        }
        (orig.len(), Some(remap), Some(orig))
    } else {
        (n_base, None, None)
    };

    let mut removed_docs = base_removed;
    let mut next = n_base_alive as u64;
    let mut runs = Vec::with_capacity(adds.len());
    for st in adds {
        let first_final = next;
        let mut final_of_local = vec![u32::MAX; st.alive.len()];
        let mut alive_locals = Vec::new();
        for (l, &alive) in st.alive.iter().enumerate() {
            if !alive {
                removed_docs += 1;
                continue;
            }
            if next > u64::from(u32::MAX) {
                return Err(invalid_parts(
                    "segmented collection exceeds u32 page ids".into(),
                ));
            }
            final_of_local[l] = next as u32;
            alive_locals.push(l as u32);
            next += 1;
        }
        if !alive_locals.is_empty() {
            runs.push(Run {
                seg: st.seg,
                op: st.op,
                first_final: first_final as u32,
                final_of_local,
                alive_locals,
            });
        }
    }
    let n_docs = next as usize;

    // Ordered sum in final document order — the same f64 additions, in
    // the same order, as the rebuild's merge accumulates (point 2 of
    // the module-doc bit-identity argument).
    let mut total_len = 0.0f64;
    match &base_remap {
        None => {
            for i in 0..n_base {
                total_len += base.doc_len_of(i);
            }
        }
        Some(remap) => {
            for (i, &f) in remap.iter().enumerate() {
                if f != u32::MAX {
                    total_len += base.doc_len_of(i);
                }
            }
        }
    }
    for run in &runs {
        let (_, index) = segments[run.seg as usize].ops()[run.op as usize]
            .added()
            .expect("runs only reference add ops");
        for &l in &run.alive_locals {
            total_len += index.doc_len_of(l as usize);
        }
    }
    let avg_len = if n_docs == 0 {
        0.0
    } else {
        total_len / n_docs as f64
    };

    Ok(Plan {
        n_docs,
        n_base_alive,
        removed_docs,
        avg_len,
        base_remap,
        base_orig,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::WebCorpus;

    fn page(url: &str, title: &str, body: &str) -> WebPage {
        WebPage {
            url: url.into(),
            title: title.into(),
            body: body.into(),
        }
    }

    fn base_pages() -> Vec<WebPage> {
        vec![
            page("u0", "Melisse", "melisse restaurant santa monica menu"),
            page("u1", "Records", "melisse jazz label records sessions"),
            page("u2", "Guide", "restaurant dining guide menu city"),
            page("u3", "Noise", "online information website page"),
        ]
    }

    /// The oracle: a sequential rebuild over the logical page list.
    fn rebuilt(seg: &SegmentedCorpus) -> WebCorpus {
        WebCorpus::from_pages(seg.to_pages())
    }

    fn assert_identical(seg: &SegmentedCorpus, queries: &[&str]) {
        let oracle = rebuilt(seg);
        assert_eq!(seg.n_docs(), oracle.len());
        for q in queries {
            for k in [1, 3, 10] {
                let got = seg.search(q, k);
                let want = oracle.index().search(q, k);
                assert_eq!(got.len(), want.len(), "query {q:?} k {k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "query {q:?} k {k}");
                    assert_eq!(
                        g.1.to_bits(),
                        w.1.to_bits(),
                        "score bits diverged for {q:?} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_segments_is_bit_identical_passthrough() {
        let base = Arc::new(WebCorpus::from_pages(base_pages()));
        let seg = SegmentedCorpus::new(base, vec![]).unwrap();
        assert_identical(&seg, &["melisse", "restaurant menu", "absent"]);
    }

    #[test]
    fn pure_adds_merge_bit_identically() {
        let base = Arc::new(WebCorpus::from_pages(base_pages()));
        let s1 = Arc::new(Segment::new(vec![SegmentOp::add(vec![
            page("a0", "New spot", "melisse bistro menu fresh"),
            page("a1", "Listing", "restaurant listing city melisse"),
        ])]));
        let s2 = Arc::new(Segment::new(vec![SegmentOp::add(vec![page(
            "a2",
            "Late",
            "records sessions melisse",
        )])]));
        let seg = SegmentedCorpus::new(base, vec![s1, s2]).unwrap();
        assert_identical(
            &seg,
            &["melisse", "restaurant", "records menu", "melisse melisse"],
        );
    }

    #[test]
    fn removes_remap_and_stay_bit_identical() {
        let base = Arc::new(WebCorpus::from_pages(base_pages()));
        let s1 = Arc::new(Segment::new(vec![
            SegmentOp::add(vec![
                page("a0", "New", "melisse bistro menu"),
                page("a1", "Gone soon", "restaurant short lived"),
            ]),
            // Kills a base page and a page added earlier in this very
            // segment.
            SegmentOp::remove(vec!["u1".into(), "a1".into(), "ghost".into()]),
        ]));
        let seg = SegmentedCorpus::new(base, vec![s1]).unwrap();
        assert_eq!(seg.removed_docs(), 2);
        assert_identical(&seg, &["melisse", "restaurant menu", "jazz records"]);
        // Page field access resolves through the remap.
        let oracle = rebuilt(&seg);
        for i in 0..seg.n_docs() as u32 {
            assert_eq!(
                seg.page_fields(PageId(i)).url,
                oracle.page(PageId(i)).url.as_str()
            );
        }
    }

    #[test]
    fn readded_url_after_removal_survives() {
        let base = Arc::new(WebCorpus::from_pages(base_pages()));
        let s1 = Arc::new(Segment::new(vec![SegmentOp::remove(vec!["u0".into()])]));
        let s2 = Arc::new(Segment::new(vec![SegmentOp::add(vec![page(
            "u0",
            "Reborn",
            "melisse reopened restaurant",
        )])]));
        let seg = SegmentedCorpus::new(base, vec![s1, s2]).unwrap();
        assert_identical(&seg, &["melisse", "reopened"]);
        let urls: Vec<String> = seg.to_pages().iter().map(|p| p.url.clone()).collect();
        assert_eq!(urls, vec!["u1", "u2", "u3", "u0"]);
    }

    #[test]
    fn push_segment_refreshes_without_touching_base() {
        let base = Arc::new(WebCorpus::from_pages(base_pages()));
        let seg = SegmentedCorpus::new(base.clone(), vec![]).unwrap();
        let seg2 = seg
            .push_segment(Arc::new(Segment::new(vec![SegmentOp::add(vec![page(
                "a0",
                "Push",
                "melisse pushed live",
            )])])))
            .unwrap();
        assert_eq!(seg.n_docs(), 4);
        assert_eq!(seg2.n_docs(), 5);
        assert!(Arc::ptr_eq(seg2.base(), seg.base()));
        assert_identical(&seg2, &["melisse", "pushed"]);
    }

    #[test]
    fn mismatched_prebuilt_partial_is_rejected() {
        let pages = vec![page("a0", "t", "one two three")];
        let wrong = InvertedIndex::build(&[]);
        assert!(SegmentOp::add_prebuilt(pages, wrong).is_err());
    }

    #[test]
    fn everything_removed_yields_empty_results() {
        let base = Arc::new(WebCorpus::from_pages(vec![page("u0", "t", "solo page")]));
        let s = Arc::new(Segment::new(vec![SegmentOp::remove(vec!["u0".into()])]));
        let seg = SegmentedCorpus::new(base, vec![s]).unwrap();
        assert_eq!(seg.n_docs(), 0);
        assert!(seg.search("solo", 10).is_empty());
    }
}
