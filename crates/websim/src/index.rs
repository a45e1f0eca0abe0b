//! Inverted index with BM25 ranking.
//!
//! Standard Okapi BM25 (`k1 = 1.2`, `b = 0.75`) over page bodies and
//! titles (title terms counted twice — titles matter in real engines).
//! Tokens are the lowercase word tokens of `teda-text`, unstemmed: entity
//! names must match near-exactly, as they do in a real search engine.
//!
//! Layout: terms are interned to dense `u32` ids over a shared vocabulary
//! and every posting lives in one flat arena (`postings`), with a term's
//! slice addressed by an offset table — one allocation for the whole
//! collection instead of one `Vec` per term, and postings of a term are
//! contiguous for the scoring scan. Ranking selects the top k through a
//! bounded binary heap (`O(n log k)`) instead of sorting every scored
//! page; ties break exactly as the historical full sort did — by
//! ascending page id at equal score.
//!
//! Construction comes in two flavours with one output:
//! [`InvertedIndex::build`] walks the collection sequentially (the
//! reference), while [`InvertedIndex::build_sharded`] splits the
//! collection into contiguous document ranges, accumulates per-shard
//! vocabularies and postings in parallel, and merges deterministically —
//! producing a **byte-identical** index (same term ids, same posting
//! arena, same offsets) for any shard count. See `README.md` next to
//! this file for why the merge preserves the sequential interning order.

use std::collections::HashMap;

use rayon::prelude::*;

use teda_text::tokenize::TokenScanner;

use crate::page::{PageId, WebPage};
use crate::scoring;

/// A posting: page and term frequency.
///
/// `tf` is a small integer count (+2 per title occurrence), exactly
/// representable in `f32`; scoring widens to `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Posting {
    pub(crate) page: PageId,
    pub(crate) tf: f32,
}

/// The inverted index over a page collection.
///
/// `PartialEq` compares every field — the sharded-build determinism tests
/// rely on it to assert byte-identical construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvertedIndex {
    /// Token → dense term id, interned at build time.
    term_ids: HashMap<String, u32>,
    /// Term `t` owns `postings[offsets[t] .. offsets[t + 1]]`, pages
    /// ascending within the slice.
    offsets: Vec<u32>,
    postings: Vec<Posting>,
    doc_len: Vec<f64>,
    avg_len: f64,
    n_docs: usize,
}

/// One shard's accumulation: a local vocabulary (interned in
/// first-occurrence order over the shard's contiguous document range)
/// and local posting lists holding *absolute* page ids.
struct ShardAccum {
    /// Local term id → token, in local interning order.
    terms: Vec<String>,
    /// Local id → postings, pages ascending (docs visited in id order).
    acc: Vec<Vec<Posting>>,
    /// Per-document lengths for the shard's range, in document order.
    doc_len: Vec<f64>,
}

/// Tokenizes and counts one shard of documents. `base` is the absolute
/// id of the shard's first document.
fn accumulate_shard(pages: &[WebPage], base: u32) -> ShardAccum {
    let mut term_ids: HashMap<String, u32> = HashMap::new();
    let mut terms: Vec<String> = Vec::new();
    let mut acc: Vec<Vec<Posting>> = Vec::new();
    let mut doc_len = Vec::with_capacity(pages.len());

    let mut counts: HashMap<u32, f32> = HashMap::new();
    let mut tok = String::new();
    for (i, page) in pages.iter().enumerate() {
        let id = PageId(base + i as u32);
        counts.clear();
        for (text, tf) in [(&page.body, 1.0), (&page.title, 2.0)] {
            let mut scanner = TokenScanner::new(text);
            while scanner.next_into(&mut tok) {
                let tid = intern(&mut term_ids, &mut terms, &mut acc, &tok);
                *counts.entry(tid).or_insert(0.0) += tf;
            }
        }
        // teda-lint: allow(nondeterministic_iteration) -- counts are integral f64s; integer-valued f64 addition below 2^53 is exact, so the sum is order-independent
        let len: f64 = counts.values().map(|&c| f64::from(c)).sum();
        doc_len.push(len);
        // teda-lint: allow(nondeterministic_iteration) -- each tid occurs once per page and pages arrive in order, so per-term postings stay in page order
        for (&tid, &tf) in &counts {
            acc[tid as usize].push(Posting { page: id, tf });
        }
    }
    ShardAccum {
        terms,
        acc,
        doc_len,
    }
}

impl InvertedIndex {
    /// Builds the index over `pages` (ids are positional), walking the
    /// collection sequentially. This is the reference construction the
    /// sharded build must reproduce byte for byte.
    pub fn build(pages: &[WebPage]) -> Self {
        let shard = accumulate_shard(pages, 0);
        Self::merge(vec![shard], pages.len())
    }

    /// Builds the index with the collection split into
    /// `rayon::current_num_threads() × 2` shards accumulated in parallel.
    /// Byte-identical to [`build`](Self::build) — safe to use anywhere.
    pub fn build_parallel(pages: &[WebPage]) -> Self {
        Self::build_sharded(pages, rayon::current_num_threads() * 2)
    }

    /// Builds the index over `n_shards` contiguous document ranges
    /// accumulated in parallel and merged deterministically.
    ///
    /// **Determinism guarantee:** the result is byte-identical to the
    /// sequential [`build`](Self::build) for *any* shard count. Shards
    /// are merged in document order, and a shard's local vocabulary is
    /// interned in first-occurrence order, so walking shard vocabularies
    /// in shard-then-local order assigns every term the same global id
    /// the sequential first-occurrence walk would; per-term postings are
    /// concatenated in shard order, which is ascending-page order.
    pub fn build_sharded(pages: &[WebPage], n_shards: usize) -> Self {
        let n = n_shards.clamp(1, pages.len().max(1));
        let chunk = pages.len().div_ceil(n).max(1);
        let ranges: Vec<(usize, usize)> = (0..pages.len())
            .step_by(chunk)
            .map(|lo| (lo, (lo + chunk).min(pages.len())))
            .collect();
        let shards: Vec<ShardAccum> = ranges
            .par_iter()
            .map(|&(lo, hi)| accumulate_shard(&pages[lo..hi], lo as u32))
            .collect();
        Self::merge(shards, pages.len())
    }

    /// Merges shard accumulations (in document order) into the final
    /// index: global interning in shard-then-local order, per-term
    /// posting concatenation, then the flat-arena flatten.
    fn merge(shards: Vec<ShardAccum>, n_docs: usize) -> Self {
        let mut term_ids: HashMap<String, u32> = HashMap::new();
        let mut acc: Vec<Vec<Posting>> = Vec::new();
        let mut doc_len = Vec::with_capacity(n_docs);
        let mut total_len = 0.0f64;

        for shard in shards {
            // Local → global id translation, preserving first-occurrence
            // order across the whole collection.
            let to_global: Vec<u32> = shard
                .terms
                .into_iter()
                .map(|tok| match term_ids.get(&tok) {
                    Some(&gid) => gid,
                    None => {
                        let gid = u32::try_from(acc.len()).expect("term vocabulary fits u32");
                        term_ids.insert(tok, gid);
                        acc.push(Vec::new());
                        gid
                    }
                })
                .collect();
            for (local, posts) in shard.acc.into_iter().enumerate() {
                acc[to_global[local] as usize].extend_from_slice(&posts);
            }
            for len in shard.doc_len {
                doc_len.push(len);
                total_len += len;
            }
        }

        // Flatten the accumulators into one arena, offsets in id order.
        let total_postings: usize = acc.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(acc.len() + 1);
        let mut postings = Vec::with_capacity(total_postings);
        offsets.push(0u32);
        for mut term_postings in acc {
            // Pages arrive ascending per term (docs visited in id order,
            // shards merged in range order), but sort defensively to keep
            // the invariant local.
            term_postings.sort_unstable_by_key(|p| p.page.0);
            postings.extend_from_slice(&term_postings);
            offsets.push(u32::try_from(postings.len()).expect("posting arena fits u32"));
        }

        InvertedIndex {
            term_ids,
            offsets,
            postings,
            doc_len,
            avg_len: if n_docs == 0 {
                0.0
            } else {
                total_len / n_docs as f64
            },
            n_docs,
        }
    }

    /// Number of indexed documents.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Number of distinct terms.
    pub fn n_terms(&self) -> usize {
        self.term_ids.len()
    }

    /// Total postings across all terms.
    pub fn n_postings(&self) -> usize {
        self.postings.len()
    }

    /// The exact average document length this index scores with, as
    /// stored — the cluster partitioner copies it (as bits) into every
    /// shard manifest so shard-local scoring reproduces the global
    /// BM25 length normalization bit for bit.
    pub fn avg_len(&self) -> f64 {
        self.avg_len
    }

    /// The interned terms in dense-id order (`terms()[id]` is term
    /// `id`). Allocates the vector of borrows, not the strings — used
    /// by the cluster partitioner to translate each shard's local
    /// vocabulary into global document frequencies.
    pub fn terms(&self) -> Vec<&str> {
        let mut terms = vec![""; self.term_ids.len()];
        // teda-lint: allow(nondeterministic_iteration) -- scatter into unique dense id slots; write order cannot affect the result
        for (token, &id) in &self.term_ids {
            terms[id as usize] = token;
        }
        terms
    }

    /// The interned id of a token, if indexed.
    pub fn term_id(&self, token: &str) -> Option<u32> {
        self.term_ids.get(token).copied()
    }

    /// The posting slice of a term id. Crate-visible so the segmented
    /// view can merge base postings with segment postings at read time.
    pub(crate) fn postings_of(&self, tid: u32) -> &[Posting] {
        let lo = self.offsets[tid as usize] as usize;
        let hi = self.offsets[tid as usize + 1] as usize;
        &self.postings[lo..hi]
    }

    /// The indexed length of document `i` (sum of term counts, titles
    /// doubled) — the exact BM25 input, as stored.
    pub(crate) fn doc_len_of(&self, i: usize) -> f64 {
        self.doc_len[i]
    }

    /// Scores `query` against the collection, returning up to `k` pages by
    /// descending BM25 score. Ties break by page id (stable, deterministic).
    pub fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        scoring::top_k(self, query, k)
    }

    /// The historical ranking path — score everything, sort everything —
    /// kept as the reference the bounded-heap path must match exactly
    /// (tie order included) and as the baseline for microbenchmarks.
    #[doc(hidden)]
    pub fn search_full_sort(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        let (scores, touched) = scoring::accumulate(self, query);
        scoring::rank_full_sort(&scores, &touched, k)
    }
}

/// The heap flavour of the BM25 kernel: local document count, local
/// posting-list lengths as document frequencies.
impl scoring::ScoreSource for InvertedIndex {
    type Term = u32;

    fn n_docs(&self) -> usize {
        self.n_docs
    }

    fn avg_len(&self) -> f64 {
        self.avg_len
    }

    fn idf(&self, token: &str) -> Option<(f64, u32)> {
        let tid = self.term_id(token)?;
        Some((scoring::idf(self.n_docs, self.postings_of(tid).len()), tid))
    }

    fn postings(&self, &tid: &u32, mut visit: impl FnMut(u32, f32, f64)) {
        for p in self.postings_of(tid) {
            visit(p.page.0, p.tf, self.doc_len[p.page.0 as usize]);
        }
    }
}

/// The raw construction of an [`InvertedIndex`], reduced to primitives
/// whose byte encoding is unambiguous — the exchange type `teda-store`
/// serializes into snapshot sections and validates on the way back in.
///
/// Floats travel as IEEE-754 bit patterns (`f32::to_bits` /
/// `f64::to_bits`), never as decimal text, so a load reproduces every
/// BM25 input *bit for bit* and loaded top-k results are identical to
/// the freshly built index, ties and all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexParts {
    /// Interned terms in dense-id order (`terms[id]` is term `id`).
    pub terms: Vec<String>,
    /// The offset table: term `t` owns postings `offsets[t]..offsets[t+1]`.
    pub offsets: Vec<u32>,
    /// The flat posting arena as `(page id, tf bits)` pairs.
    pub postings: Vec<(u32, u32)>,
    /// Per-document lengths as `f64` bit patterns, in document order.
    pub doc_len_bits: Vec<u64>,
    /// The average document length as an `f64` bit pattern.
    pub avg_len_bits: u64,
    /// Number of indexed documents.
    pub n_docs: u64,
}

/// Why a deserialized [`IndexParts`] cannot be turned back into an
/// index. Carried verbatim inside `teda-store`'s corruption error —
/// untrusted snapshot bytes must degrade to a typed error, never a
/// panic in the scoring loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidIndexParts(String);

impl InvalidIndexParts {
    fn new(msg: impl Into<String>) -> Self {
        InvalidIndexParts(msg.into())
    }

    /// The human-readable reason.
    pub fn message(&self) -> &str {
        &self.0
    }
}

/// Crate-internal constructor so sibling modules (the corpus reassembly
/// check) can report their own consistency failures under the same type.
pub(crate) fn invalid_parts(msg: String) -> InvalidIndexParts {
    InvalidIndexParts::new(msg)
}

impl std::fmt::Display for InvalidIndexParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid index parts: {}", self.0)
    }
}

impl std::error::Error for InvalidIndexParts {}

impl InvertedIndex {
    /// Decomposes the index into its serializable parts. The inverse of
    /// [`from_parts`](Self::from_parts):
    /// `from_parts(idx.to_parts()) == idx` for every built index.
    pub fn to_parts(&self) -> IndexParts {
        // Invert the interning map into dense-id order.
        let mut terms = vec![String::new(); self.term_ids.len()];
        // teda-lint: allow(nondeterministic_iteration) -- scatter into unique dense id slots; write order cannot affect the result
        for (token, &id) in &self.term_ids {
            terms[id as usize] = token.clone();
        }
        IndexParts {
            terms,
            offsets: self.offsets.clone(),
            postings: self
                .postings
                .iter()
                .map(|p| (p.page.0, p.tf.to_bits()))
                .collect(),
            doc_len_bits: self.doc_len.iter().map(|d| d.to_bits()).collect(),
            avg_len_bits: self.avg_len.to_bits(),
            n_docs: self.n_docs as u64,
        }
    }

    /// Reassembles an index from deserialized parts, validating every
    /// structural invariant the scoring loop relies on (offset
    /// monotonicity, posting page bounds, document-count consistency)
    /// so corrupt or adversarial snapshot bytes are rejected with a
    /// typed error instead of panicking inside a later query.
    ///
    /// For parts produced by [`to_parts`](Self::to_parts) the result is
    /// equal to the original index in every field, which makes every
    /// query's top-k bit-identical.
    pub fn from_parts(parts: IndexParts) -> Result<Self, InvalidIndexParts> {
        let n_docs = usize::try_from(parts.n_docs)
            .map_err(|_| InvalidIndexParts::new("document count overflows usize"))?;
        if parts.offsets.len() != parts.terms.len() + 1 {
            return Err(InvalidIndexParts::new(format!(
                "offset table has {} entries for {} terms (want terms + 1)",
                parts.offsets.len(),
                parts.terms.len()
            )));
        }
        if parts.offsets.first() != Some(&0) {
            return Err(InvalidIndexParts::new("offset table must start at 0"));
        }
        if parts.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(InvalidIndexParts::new("offset table must be monotonic"));
        }
        if *parts.offsets.last().expect("checked non-empty") as usize != parts.postings.len() {
            return Err(InvalidIndexParts::new(format!(
                "offset table ends at {} but the arena holds {} postings",
                parts.offsets.last().expect("checked non-empty"),
                parts.postings.len()
            )));
        }
        if parts.doc_len_bits.len() != n_docs {
            return Err(InvalidIndexParts::new(format!(
                "{} document lengths for {} documents",
                parts.doc_len_bits.len(),
                n_docs
            )));
        }
        if let Some(&(page, _)) = parts.postings.iter().find(|&&(p, _)| p as usize >= n_docs) {
            return Err(InvalidIndexParts::new(format!(
                "posting references page {page} of a {n_docs}-document collection"
            )));
        }
        if u32::try_from(parts.terms.len()).is_err() {
            return Err(InvalidIndexParts::new("term vocabulary exceeds u32 ids"));
        }
        let mut term_ids = HashMap::with_capacity(parts.terms.len());
        for (id, token) in parts.terms.into_iter().enumerate() {
            if term_ids.insert(token, id as u32).is_some() {
                return Err(InvalidIndexParts::new("duplicate term in the vocabulary"));
            }
        }
        Ok(InvertedIndex {
            term_ids,
            offsets: parts.offsets,
            postings: parts
                .postings
                .into_iter()
                .map(|(page, tf_bits)| Posting {
                    page: PageId(page),
                    tf: f32::from_bits(tf_bits),
                })
                .collect(),
            doc_len: parts.doc_len_bits.into_iter().map(f64::from_bits).collect(),
            avg_len: f64::from_bits(parts.avg_len_bits),
            n_docs,
        })
    }

    /// Extends this index with per-segment partial indexes (each built
    /// over its own page slice, document ids local and 0-based) —
    /// **without re-tokenizing anything**. This is the O(delta) journal
    /// fold: the base index replays the role of shard 0 and every
    /// partial plays a later shard, so the `build_sharded` merge proof
    /// applies unchanged and the result is byte-identical to a
    /// sequential [`build`](Self::build) over the concatenated page
    /// list (provided each partial really was built over its slice —
    /// which [`from_parts`](Self::from_parts)-level validation cannot
    /// check, but which holds for every partial this workspace writes,
    /// because they are all produced by `build` itself).
    ///
    /// Untrusted parts cannot panic: every partial passes the full
    /// [`from_parts`](Self::from_parts) validation and the combined
    /// document/posting/vocabulary counts are checked against `u32`
    /// before the merge's internal conversions run.
    pub fn extend_with_parts(self, adds: Vec<IndexParts>) -> Result<Self, InvalidIndexParts> {
        let mut docs = self.n_docs as u64;
        let mut posts = self.postings.len() as u64;
        let mut vocab = self.term_ids.len() as u64;
        for p in &adds {
            docs = docs
                .checked_add(p.n_docs)
                .ok_or_else(|| InvalidIndexParts::new("combined document count overflows"))?;
            posts = posts
                .checked_add(p.postings.len() as u64)
                .ok_or_else(|| InvalidIndexParts::new("combined posting count overflows"))?;
            vocab = vocab
                .checked_add(p.terms.len() as u64)
                .ok_or_else(|| InvalidIndexParts::new("combined vocabulary overflows"))?;
        }
        if docs > u64::from(u32::MAX) {
            return Err(InvalidIndexParts::new(
                "combined document count exceeds u32 page ids",
            ));
        }
        if posts > u64::from(u32::MAX) || vocab > u64::from(u32::MAX) {
            return Err(InvalidIndexParts::new(
                "combined posting arena or vocabulary exceeds u32 offsets",
            ));
        }
        let mut offset = self.n_docs as u32;
        let mut shards = Vec::with_capacity(adds.len() + 1);
        shards.push(self.into_shard(0));
        for parts in adds {
            let n = parts.n_docs as u32; // fits: bounded by `docs` above
            shards.push(InvertedIndex::from_parts(parts)?.into_shard(offset));
            offset += n;
        }
        Ok(Self::merge(shards, docs as usize))
    }

    /// Converts a built index back into the shard accumulation the
    /// merge consumes, rebasing page ids by `base`. Exact inverse of
    /// what `merge` did to produce it: terms in dense-id (= global
    /// first-occurrence) order, per-term postings ascending.
    fn into_shard(self, base: u32) -> ShardAccum {
        let mut terms = vec![String::new(); self.term_ids.len()];
        // teda-lint: allow(nondeterministic_iteration) -- scatter into unique dense id slots; write order cannot affect the result
        for (token, id) in self.term_ids {
            terms[id as usize] = token;
        }
        let mut acc = Vec::with_capacity(terms.len());
        for t in 0..terms.len() {
            let lo = self.offsets[t] as usize;
            let hi = self.offsets[t + 1] as usize;
            acc.push(
                self.postings[lo..hi]
                    .iter()
                    .map(|p| Posting {
                        page: PageId(p.page.0 + base),
                        tf: p.tf,
                    })
                    .collect(),
            );
        }
        ShardAccum {
            terms,
            acc,
            doc_len: self.doc_len,
        }
    }
}

/// Interns `token`, growing the accumulator table (and the id → token
/// table the shard merge translates through) for new terms.
fn intern(
    term_ids: &mut HashMap<String, u32>,
    terms: &mut Vec<String>,
    acc: &mut Vec<Vec<Posting>>,
    token: &str,
) -> u32 {
    if let Some(&id) = term_ids.get(token) {
        return id;
    }
    let id = u32::try_from(acc.len()).expect("term vocabulary fits u32");
    terms.push(token.to_owned());
    term_ids.insert(token.to_owned(), id);
    acc.push(Vec::new());
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(url: &str, title: &str, body: &str) -> WebPage {
        WebPage {
            url: url.into(),
            title: title.into(),
            body: body.into(),
        }
    }

    fn collection() -> Vec<WebPage> {
        vec![
            page(
                "u0",
                "Melisse - Official Site",
                "melisse restaurant santa monica menu tasting cuisine chef",
            ),
            page(
                "u1",
                "Melisse Records",
                "melisse jazz label records quartet saxophone sessions",
            ),
            page(
                "u2",
                "Best restaurants",
                "restaurant restaurant dining guide menu city top list",
            ),
            page("u3", "Random", "online information website page home free"),
        ]
    }

    #[test]
    fn name_query_retrieves_both_senses() {
        let idx = InvertedIndex::build(&collection());
        let hits = idx.search("Melisse", 10);
        let pages: Vec<u32> = hits.iter().map(|(p, _)| p.0).collect();
        assert!(pages.contains(&0) && pages.contains(&1), "{pages:?}");
        assert!(!pages.contains(&3), "noise page shouldn't match");
    }

    #[test]
    fn type_word_disambiguates() {
        let idx = InvertedIndex::build(&collection());
        let hits = idx.search("Melisse restaurant", 10);
        assert_eq!(hits[0].0 .0, 0, "restaurant page should rank first");
    }

    #[test]
    fn city_disambiguates() {
        let idx = InvertedIndex::build(&collection());
        let hits = idx.search("Melisse Santa Monica", 10);
        assert_eq!(hits[0].0 .0, 0);
    }

    #[test]
    fn bare_type_word_finds_type_pages() {
        let idx = InvertedIndex::build(&collection());
        let hits = idx.search("restaurant", 10);
        assert!(!hits.is_empty());
        // The directory page repeats "restaurant" → highest tf saturation.
        assert_eq!(hits[0].0 .0, 2);
    }

    #[test]
    fn k_truncates() {
        let idx = InvertedIndex::build(&collection());
        assert_eq!(idx.search("melisse restaurant jazz", 1).len(), 1);
        assert!(idx.search("melisse", 0).is_empty());
    }

    #[test]
    fn unknown_terms_yield_empty() {
        let idx = InvertedIndex::build(&collection());
        assert!(idx.search("zanzibar", 10).is_empty());
        assert!(idx.search("", 10).is_empty());
    }

    #[test]
    fn title_terms_count_double() {
        let a = page("a", "records", "melisse");
        let b = page("b", "nothing", "melisse records");
        let idx = InvertedIndex::build(&[a, b]);
        let hits = idx.search("records", 2);
        assert_eq!(hits[0].0 .0, 0, "title match outranks body match");
    }

    #[test]
    fn empty_collection() {
        let idx = InvertedIndex::build(&[]);
        assert!(idx.search("anything", 5).is_empty());
        assert_eq!(idx.n_docs(), 0);
    }

    #[test]
    fn scores_are_deterministic() {
        let idx = InvertedIndex::build(&collection());
        assert_eq!(idx.search("melisse", 10), idx.search("melisse", 10));
    }

    #[test]
    fn terms_are_interned_and_postings_flat() {
        let idx = InvertedIndex::build(&collection());
        assert!(idx.term_id("melisse").is_some());
        assert!(idx.term_id("zanzibar").is_none());
        assert_eq!(idx.offsets.len(), idx.n_terms() + 1);
        assert_eq!(idx.n_postings(), *idx.offsets.last().unwrap() as usize);
        // every term id round-trips to a non-empty contiguous slice
        for tid in 0..idx.n_terms() as u32 {
            assert!(!idx.postings_of(tid).is_empty());
        }
    }

    #[test]
    fn heap_topk_matches_full_sort_everywhere() {
        let idx = InvertedIndex::build(&collection());
        for q in [
            "melisse",
            "restaurant",
            "melisse restaurant jazz",
            "menu city records",
        ] {
            for k in [1, 2, 3, 10] {
                assert_eq!(
                    idx.search(q, k),
                    idx.search_full_sort(q, k),
                    "query {q:?} k {k}"
                );
            }
        }
    }

    #[test]
    fn sharded_build_is_byte_identical_to_sequential() {
        let pages = collection();
        let reference = InvertedIndex::build(&pages);
        for n_shards in [1, 2, 3, 4, 7, 16] {
            let sharded = InvertedIndex::build_sharded(&pages, n_shards);
            assert_eq!(
                sharded, reference,
                "sharded build diverged at {n_shards} shards"
            );
        }
        assert_eq!(InvertedIndex::build_parallel(&pages), reference);
    }

    #[test]
    fn sharded_build_handles_degenerate_shapes() {
        // Empty collection, single page, more shards than pages.
        assert_eq!(
            InvertedIndex::build_sharded(&[], 8),
            InvertedIndex::build(&[])
        );
        let one = vec![page("u", "solo", "melisse restaurant")];
        assert_eq!(
            InvertedIndex::build_sharded(&one, 8),
            InvertedIndex::build(&one)
        );
    }

    #[test]
    fn sharded_build_on_a_larger_synthetic_collection() {
        // Vocabulary overlap across shard boundaries: shared terms,
        // shard-local terms, and title terms that double-count.
        let pages: Vec<WebPage> = (0..57)
            .map(|i| {
                page(
                    &format!("u{i}"),
                    &format!("title{} shared", i % 5),
                    &format!("shared term{} word{} melisse common{}", i, i % 7, i % 3),
                )
            })
            .collect();
        let reference = InvertedIndex::build(&pages);
        for n_shards in [2, 5, 8, 57, 100] {
            assert_eq!(
                InvertedIndex::build_sharded(&pages, n_shards),
                reference,
                "{n_shards} shards"
            );
        }
    }

    #[test]
    fn heap_topk_breaks_ties_by_page_id_like_the_full_sort() {
        // Identical pages → identical BM25 scores → ranked by page id.
        let pages: Vec<WebPage> = (0..8)
            .map(|i| page(&format!("u{i}"), "tie", "melisse restaurant"))
            .collect();
        let idx = InvertedIndex::build(&pages);
        let hits = idx.search("melisse", 5);
        assert_eq!(hits.len(), 5);
        let ids: Vec<u32> = hits.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "ties rank by ascending page id");
        assert!(hits.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(hits, idx.search_full_sort("melisse", 5));
    }

    #[test]
    fn parts_round_trip_is_field_identical() {
        let idx = InvertedIndex::build(&collection());
        let rebuilt = InvertedIndex::from_parts(idx.to_parts()).expect("own parts are valid");
        assert_eq!(rebuilt, idx, "from_parts(to_parts(idx)) must equal idx");
        // And therefore every query's top-k is bit-identical.
        for q in ["melisse", "restaurant", "melisse restaurant jazz", ""] {
            assert_eq!(rebuilt.search(q, 10), idx.search(q, 10));
        }
        let empty = InvertedIndex::build(&[]);
        assert_eq!(
            InvertedIndex::from_parts(empty.to_parts()).expect("empty parts valid"),
            empty
        );
    }

    #[test]
    fn corrupt_parts_are_rejected_not_panics() {
        let idx = InvertedIndex::build(&collection());
        let good = idx.to_parts();

        let mut bad = good.clone();
        bad.offsets.pop();
        assert!(
            InvertedIndex::from_parts(bad).is_err(),
            "short offset table"
        );

        let mut bad = good.clone();
        bad.offsets[0] = 1;
        assert!(
            InvertedIndex::from_parts(bad).is_err(),
            "nonzero first offset"
        );

        let mut bad = good.clone();
        let last = bad.offsets.len() - 1;
        bad.offsets[last] += 7;
        assert!(
            InvertedIndex::from_parts(bad).is_err(),
            "arena length mismatch"
        );

        let mut bad = good.clone();
        if bad.offsets.len() > 2 {
            bad.offsets.swap(1, 2);
            // Only a real inversion must fail; equal neighbours are legal.
            if bad.offsets[1] > bad.offsets[2] {
                assert!(
                    InvertedIndex::from_parts(bad).is_err(),
                    "non-monotonic offsets"
                );
            }
        }

        let mut bad = good.clone();
        bad.postings[0].0 = bad.n_docs as u32 + 10;
        assert!(
            InvertedIndex::from_parts(bad).is_err(),
            "posting page out of range"
        );

        let mut bad = good.clone();
        bad.doc_len_bits.pop();
        assert!(
            InvertedIndex::from_parts(bad).is_err(),
            "doc_len count mismatch"
        );

        let mut bad = good.clone();
        bad.terms[1] = bad.terms[0].clone();
        assert!(
            InvertedIndex::from_parts(bad).is_err(),
            "duplicate vocabulary term"
        );
    }

    #[test]
    fn extend_with_parts_is_byte_identical_to_full_rebuild() {
        let base_pages = collection();
        let added_a: Vec<WebPage> = (0..9)
            .map(|i| {
                page(
                    &format!("a{i}"),
                    &format!("added {}", i % 2),
                    &format!("melisse extra term{} shared word{}", i, i % 3),
                )
            })
            .collect();
        let added_b = vec![page("b0", "late", "restaurant melisse late arrival")];

        let base = InvertedIndex::build(&base_pages);
        let parts_a = InvertedIndex::build(&added_a).to_parts();
        let parts_b = InvertedIndex::build(&added_b).to_parts();
        let merged = base
            .extend_with_parts(vec![parts_a, parts_b])
            .expect("own parts merge");

        let mut all = base_pages;
        all.extend(added_a);
        all.extend(added_b);
        assert_eq!(merged, InvertedIndex::build(&all), "merge != rebuild");
    }

    #[test]
    fn extend_with_corrupt_parts_is_a_typed_error() {
        let base = InvertedIndex::build(&collection());
        let mut bad = InvertedIndex::build(&[page("x", "t", "one two")]).to_parts();
        bad.offsets[0] = 3;
        assert!(base.extend_with_parts(vec![bad]).is_err());
    }
}
