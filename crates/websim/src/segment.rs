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
use std::sync::{Arc, OnceLock};

use crate::backend::{results_of, BaseCorpus, PageFields, SearchBackend};
use crate::engine::SearchResult;
use crate::index::{invalid_parts, InvalidIndexParts, InvertedIndex};
use crate::page::{PageId, WebPage};
use crate::scoring;

/// One journaled operation inside a segment. Additions carry the
/// partial index built over exactly their pages; the pairing is
/// enforced by construction (no public way to attach a mismatched
/// index). Cloning shares the operation (`Arc`), so regrouping
/// segments copies no page text and no index.
#[derive(Debug, Clone)]
pub struct SegmentOp(Arc<OpKind>);

#[derive(Debug)]
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
        SegmentOp(Arc::new(OpKind::Add { pages, index }))
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
        Ok(SegmentOp(Arc::new(OpKind::Add { pages, index })))
    }

    /// A removal of every current page whose URL is listed.
    pub fn remove(urls: Vec<String>) -> Self {
        SegmentOp(Arc::new(OpKind::Remove { urls }))
    }

    /// The added pages and their partial index, for an add op.
    pub fn added(&self) -> Option<(&[WebPage], &InvertedIndex)> {
        match &*self.0 {
            OpKind::Add { pages, index } => Some((pages, index)),
            OpKind::Remove { .. } => None,
        }
    }

    /// The removed URLs, for a remove op.
    pub fn removed(&self) -> Option<&[String]> {
        match &*self.0 {
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

    /// One segment holding the operations of `segments` back to back —
    /// the in-memory twin of a tier merge's run file. The operations
    /// are shared, not copied.
    pub fn concat(segments: &[Arc<Segment>]) -> Segment {
        Segment {
            ops: segments
                .iter()
                .flat_map(|s| s.ops.iter().cloned())
                .collect(),
        }
    }
}

/// Where every surviving document lands in the final id space, plus the
/// collection-level BM25 inputs: a function of the operation sequence
/// alone, so a regroup of the same operations shares it. Recomputed
/// when a segment is pushed, without tokenizing and without reading
/// base page text, except for the base pages whose URL hash matches a
/// removal URL (see [`BaseUrls`]). What stays O(base) are flat array
/// sweeps: the remap and the ordered length sum.
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
    /// The add op itself (shared), so the plan never depends on how the
    /// operations are grouped into segments.
    op: SegmentOp,
    first_final: u32,
    /// Local doc id (within the op) → final id (`u32::MAX` = removed).
    final_of_local: Vec<u32>,
    /// Surviving local ids in order; `alive_locals[f - first_final]`
    /// recovers the local id of final id `f`.
    alive_locals: Vec<u32>,
}

/// Stable FNV-1a over a URL's bytes: the same hash in every process,
/// so a URL index means the same thing wherever it is built.
fn url_hash(url: &str) -> u64 {
    url.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The base's URL index: `(url hash, base id)` for every base page,
/// sorted. Built once per base, at the first removal any view of it
/// replays, and shared by every view derived from that one — so a
/// removal resolves in O(log base) plus a read of each base page whose
/// URL hash matches, instead of hashing every base URL on every push.
struct BaseUrls {
    entries: Vec<(u64, u32)>,
}

impl BaseUrls {
    /// Reads every base page's URL once.
    fn build(base: &dyn BaseCorpus) -> Self {
        let mut entries: Vec<(u64, u32)> = (0..base.n_docs() as u32)
            .map(|i| (url_hash(base.page_fields(PageId(i)).url), i))
            .collect();
        entries.sort_unstable();
        BaseUrls { entries }
    }

    /// Kills every alive base page whose URL is `url`. A candidate is
    /// any entry with the URL's hash; each alive one is confirmed
    /// against its page's own URL, so a hash collision never removes
    /// the wrong page.
    fn remove(&self, base: &dyn BaseCorpus, url: &str, alive: &mut [bool]) {
        let hash = url_hash(url);
        let from = self.entries.partition_point(|&(h, _)| h < hash);
        for &(_, id) in self.entries[from..].iter().take_while(|&&(h, _)| h == hash) {
            if alive[id as usize] && base.page_fields(PageId(id)).url == url {
                alive[id as usize] = false;
            }
        }
    }
}

impl std::fmt::Debug for BaseUrls {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseUrls")
            .field("entries", &self.entries.len())
            .finish()
    }
}

/// A base corpus plus journal segments, searchable as one logical
/// collection with results bit-identical to a full rebuild.
#[derive(Debug)]
pub struct SegmentedCorpus {
    base: Arc<dyn BaseCorpus>,
    /// The base's URL index, empty until a removal needs it; one per
    /// base, shared with every view pushed or regrouped from this one.
    urls: Arc<OnceLock<BaseUrls>>,
    segments: Vec<Arc<Segment>>,
    plan: Arc<Plan>,
}

impl SegmentedCorpus {
    /// A segmented view of `base` with `segments` applied in order.
    /// O(segments + base bookkeeping); no tokenization. `base` is any
    /// [`BaseCorpus`] — an `Arc<WebCorpus>` coerces here unchanged. A
    /// journal holding a removal reads every base URL once here, to
    /// build the URL index.
    pub fn new(
        base: Arc<dyn BaseCorpus>,
        segments: Vec<Arc<Segment>>,
    ) -> Result<Self, InvalidIndexParts> {
        Self::with_urls(base, Arc::new(OnceLock::new()), segments)
    }

    fn with_urls(
        base: Arc<dyn BaseCorpus>,
        urls: Arc<OnceLock<BaseUrls>>,
        segments: Vec<Arc<Segment>>,
    ) -> Result<Self, InvalidIndexParts> {
        let plan = Arc::new(compute_plan(base.as_ref(), &urls, &segments)?);
        Ok(SegmentedCorpus {
            base,
            urls,
            segments,
            plan,
        })
    }

    /// A new view with one more segment at the end — the live-refresh
    /// step. The base, its URL index and the existing segments are
    /// shared (`Arc`); only the plan is recomputed.
    pub fn push_segment(&self, segment: Arc<Segment>) -> Result<Self, InvalidIndexParts> {
        let mut segments = self.segments.clone();
        segments.push(segment);
        Self::with_urls(self.base.clone(), Arc::clone(&self.urls), segments)
    }

    /// The same view over `segments`, which must hold exactly this
    /// view's operations in the same order, grouped differently — what
    /// a tier merge does to the journal files (see [`Segment::concat`]).
    /// Base, URL index, operations and plan are all shared: nothing is
    /// recomputed or copied. Fails when the operation sequence differs.
    pub fn regroup(&self, segments: Vec<Arc<Segment>>) -> Result<Self, InvalidIndexParts> {
        fn op_ids(segments: &[Arc<Segment>]) -> impl Iterator<Item = *const OpKind> + '_ {
            segments
                .iter()
                .flat_map(|s| s.ops())
                .map(|op| Arc::as_ptr(&op.0))
        }
        if !op_ids(&self.segments).eq(op_ids(&segments)) {
            return Err(invalid_parts(
                "a regroup must keep the operation sequence".into(),
            ));
        }
        Ok(SegmentedCorpus {
            base: self.base.clone(),
            urls: Arc::clone(&self.urls),
            segments,
            plan: Arc::clone(&self.plan),
        })
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
            let (pages, _) = run.parts();
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
        let (pages, _) = run.parts();
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
}

impl Run {
    fn parts(&self) -> (&[WebPage], &InvertedIndex) {
        self.op.added().expect("plan runs only reference add ops")
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
            let (_, index) = run.parts();
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
            let (_, index) = run.parts();
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
        results_of(SegmentedCorpus::search(self, query, k), |id| {
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
    urls: &OnceLock<BaseUrls>,
    segments: &[Arc<Segment>],
) -> Result<Plan, InvalidIndexParts> {
    struct AddState {
        op: SegmentOp,
        alive: Vec<bool>,
    }

    let n_base = base.n_docs();
    let any_remove = segments
        .iter()
        .any(|s| s.ops().iter().any(|o| o.removed().is_some()));

    // Removal targets resolve by URL against everything currently
    // alive: base pages through the base's shared URL index, added
    // pages through a multimap over the journal's own adds (O(delta)).
    // Neither exists on the pure-append path, which never hashes a
    // single base URL.
    let base_urls = any_remove.then(|| urls.get_or_init(|| BaseUrls::build(base)));
    let mut base_alive = vec![true; if any_remove { n_base } else { 0 }];
    let mut added_by_url: HashMap<&str, Vec<(u32, u32)>> = HashMap::new();
    let mut adds: Vec<AddState> = Vec::new();
    for op in segments.iter().flat_map(|s| s.ops()) {
        if let Some((pages, _)) = op.added() {
            if any_remove {
                let add = adds.len() as u32;
                for (l, p) in pages.iter().enumerate() {
                    added_by_url
                        .entry(p.url.as_str())
                        .or_default()
                        .push((add, l as u32));
                }
            }
            adds.push(AddState {
                op: op.clone(),
                alive: vec![true; pages.len()],
            });
        } else if let (Some(removed), Some(base_urls)) = (op.removed(), base_urls) {
            for url in removed {
                base_urls.remove(base, url, &mut base_alive);
                for (add, local) in added_by_url.remove(url.as_str()).into_iter().flatten() {
                    adds[add as usize].alive[local as usize] = false;
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
        let (_, index) = run.parts();
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
    fn the_url_index_is_built_at_the_first_removal_and_shared_by_every_push() {
        let base = Arc::new(WebCorpus::from_pages(base_pages()));
        let seg = SegmentedCorpus::new(base, vec![]).unwrap();
        let added = seg
            .push_segment(Arc::new(Segment::new(vec![SegmentOp::add(vec![page(
                "a0",
                "Add",
                "melisse added",
            )])])))
            .unwrap();
        assert!(added.urls.get().is_none(), "appends read no base URL");
        let removed = added
            .push_segment(Arc::new(Segment::new(vec![SegmentOp::remove(vec![
                "u2".into()
            ])])))
            .unwrap();
        assert!(removed.urls.get().is_some());
        assert!(Arc::ptr_eq(&seg.urls, &removed.urls));
        assert_identical(&removed, &["melisse", "restaurant menu"]);
    }

    #[test]
    fn a_hash_collision_never_removes_the_page_with_another_url() {
        let base = WebCorpus::from_pages(base_pages());
        // Forged: u2 is also listed under u0's hash.
        let mut entries: Vec<(u64, u32)> = (0..4u32)
            .map(|i| (url_hash(&format!("u{i}")), i))
            .chain([(url_hash("u0"), 2)])
            .collect();
        entries.sort_unstable();
        let urls = BaseUrls { entries };
        let mut alive = vec![true; 4];
        urls.remove(&base, "u0", &mut alive);
        assert_eq!(alive, [false, true, true, true], "only the equal URL dies");

        // The same forged index through a whole plan: each removal
        // kills exactly its own page.
        let seg = SegmentedCorpus::with_urls(
            Arc::new(base),
            Arc::new(OnceLock::from(urls)),
            vec![
                Arc::new(Segment::new(vec![SegmentOp::remove(vec!["u0".into()])])),
                Arc::new(Segment::new(vec![SegmentOp::remove(vec!["u2".into()])])),
            ],
        )
        .unwrap();
        let left: Vec<String> = seg.to_pages().into_iter().map(|p| p.url).collect();
        assert_eq!(left, ["u1", "u3"]);
        assert_identical(&seg, &["melisse", "restaurant menu"]);
    }

    #[test]
    fn regroup_shares_the_plan_and_refuses_another_operation_sequence() {
        let base = Arc::new(WebCorpus::from_pages(base_pages()));
        let s1 = Arc::new(Segment::new(vec![SegmentOp::add(vec![page(
            "a0",
            "New",
            "melisse bistro menu",
        )])]));
        let s2 = Arc::new(Segment::new(vec![SegmentOp::remove(vec!["u1".into()])]));
        let s3 = Arc::new(Segment::new(vec![SegmentOp::add(vec![page(
            "a1",
            "Later",
            "restaurant late menu",
        )])]));
        let seg = SegmentedCorpus::new(base, vec![s1.clone(), s2.clone(), s3.clone()]).unwrap();
        let merged = Arc::new(Segment::concat(&[s1.clone(), s2.clone()]));
        let regrouped = seg.regroup(vec![merged, s3.clone()]).unwrap();
        assert_eq!(regrouped.segments().len(), 2);
        assert_eq!(regrouped.segments()[0].ops().len(), 2);
        assert!(Arc::ptr_eq(&regrouped.plan, &seg.plan));
        assert_eq!(regrouped.to_pages(), seg.to_pages());
        assert_identical(&regrouped, &["melisse", "restaurant menu", "late"]);

        // A dropped op, a reordering, or an equal op built anew is
        // another sequence.
        assert!(seg.regroup(vec![s1.clone(), s3.clone()]).is_err());
        assert!(seg
            .regroup(vec![s2.clone(), s1.clone(), s3.clone()])
            .is_err());
        let rebuilt = Arc::new(Segment::new(vec![SegmentOp::remove(vec!["u1".into()])]));
        assert!(seg.regroup(vec![s1, rebuilt, s3]).is_err());
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
