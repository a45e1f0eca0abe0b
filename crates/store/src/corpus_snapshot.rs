//! Corpus snapshot codec: a [`WebCorpus`] — page store plus
//! [`InvertedIndex`] parts — in and out of the section container.
//!
//! Four sections, each CRC-protected independently so a report can name
//! which part of a damaged snapshot rotted:
//!
//! | tag | section  | contents                                         |
//! |-----|----------|--------------------------------------------------|
//! | 1   | pages    | count, then `(url, title, body)` per page        |
//! | 2   | terms    | interned vocabulary in dense-id order            |
//! | 3   | postings | offset table (`u32`s), then `(page, tf-bits)`    |
//! | 4   | docmeta  | per-doc length bits, average-length bits, n_docs |
//!
//! Floats are stored as IEEE-754 bit patterns (`f32::to_bits` /
//! `f64::to_bits`): the loaded index's every BM25 input is the same
//! bits as the saved one, which is what makes loaded search results
//! bit-identical rather than merely close. The whole encoding is a pure
//! function of the corpus — no timestamps, no randomness, no map
//! iteration order (terms travel in dense-id order) — so equal corpora
//! produce byte-identical snapshot files; `compact == full rebuild`
//! byte-identity rests on this.

use std::ops::Range;
use std::sync::Arc;

use teda_websim::scoring::{self, ScoreSource};
use teda_websim::{IndexParts, InvertedIndex, PageFields, PageId, WebCorpus, WebPage};

use crate::format::{
    decode_container, encode_container, put_string, put_u32, put_u64, Cursor, KIND_CORPUS,
};
use crate::StoreError;

pub(crate) const SEC_PAGES: u32 = 1;
pub(crate) const SEC_TERMS: u32 = 2;
pub(crate) const SEC_POSTINGS: u32 = 3;
pub(crate) const SEC_DOCMETA: u32 = 4;

/// The four sections of a corpus snapshot, slotted by tag.
pub(crate) struct CorpusSections<T> {
    pub pages: T,
    pub terms: T,
    pub postings: T,
    pub docmeta: T,
}

/// Slots `(tag, payload)` pairs into the four known corpus sections,
/// rejecting unknown tags, duplicates and missing sections — the shared
/// front half of every corpus-snapshot reader (eager and mapped).
pub(crate) fn slot_corpus_sections<T>(
    sections: Vec<(u32, T)>,
) -> Result<CorpusSections<T>, StoreError> {
    let mut pages = None;
    let mut terms = None;
    let mut postings = None;
    let mut docmeta = None;
    for (tag, payload) in sections {
        let slot = match tag {
            SEC_PAGES => &mut pages,
            SEC_TERMS => &mut terms,
            SEC_POSTINGS => &mut postings,
            SEC_DOCMETA => &mut docmeta,
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown corpus section tag {other}"
                )))
            }
        };
        if slot.replace(payload).is_some() {
            return Err(StoreError::Corrupt(format!(
                "duplicate corpus section tag {tag}"
            )));
        }
    }
    let missing = |name: &str| StoreError::Corrupt(format!("missing corpus section: {name}"));
    Ok(CorpusSections {
        pages: pages.ok_or_else(|| missing("pages"))?,
        terms: terms.ok_or_else(|| missing("terms"))?,
        postings: postings.ok_or_else(|| missing("postings"))?,
        docmeta: docmeta.ok_or_else(|| missing("docmeta"))?,
    })
}

fn put_terms_payload(out: &mut Vec<u8>, parts: &IndexParts) {
    put_u64(out, parts.terms.len() as u64);
    for term in &parts.terms {
        put_string(out, term);
    }
}

fn put_postings_payload(out: &mut Vec<u8>, parts: &IndexParts) {
    put_u64(out, parts.offsets.len() as u64);
    for &off in &parts.offsets {
        put_u32(out, off);
    }
    put_u64(out, parts.postings.len() as u64);
    for &(page, tf_bits) in &parts.postings {
        put_u32(out, page);
        put_u32(out, tf_bits);
    }
}

fn put_docmeta_payload(out: &mut Vec<u8>, parts: &IndexParts) {
    put_u64(out, parts.doc_len_bits.len() as u64);
    for &bits in &parts.doc_len_bits {
        put_u64(out, bits);
    }
    put_u64(out, parts.avg_len_bits);
    put_u64(out, parts.n_docs);
}

fn read_terms_payload(cur: &mut Cursor<'_>) -> Result<Vec<String>, StoreError> {
    let n_terms = cur.len_prefix(8, "term count")?;
    let mut terms = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        terms.push(cur.string("term")?);
    }
    Ok(terms)
}

// The fixed-width payloads decode in bulk (`chunks_exact` over one
// bounds-checked take) — the posting arena is the bulk of a snapshot
// and a per-element cursor loop would dominate load time, defeating
// the point of skipping the cold build.
type PostingsPayload = (Vec<u32>, Vec<(u32, u32)>);

fn read_postings_payload(cur: &mut Cursor<'_>) -> Result<PostingsPayload, StoreError> {
    let n_offsets = cur.len_prefix(4, "offset count")?;
    let offsets: Vec<u32> = cur
        .take(n_offsets * 4, "offset table")?
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk")))
        .collect();
    let n_postings = cur.len_prefix(8, "posting count")?;
    let postings: Vec<(u32, u32)> = cur
        .take(n_postings * 8, "posting arena")?
        .chunks_exact(8)
        .map(|b| {
            (
                u32::from_le_bytes(b[..4].try_into().expect("4-byte chunk")),
                u32::from_le_bytes(b[4..].try_into().expect("4-byte chunk")),
            )
        })
        .collect();
    Ok((offsets, postings))
}

fn read_docmeta_payload(cur: &mut Cursor<'_>) -> Result<(Vec<u64>, u64, u64), StoreError> {
    let n_docs_len = cur.len_prefix(8, "doc length count")?;
    let doc_len_bits: Vec<u64> = cur
        .take(n_docs_len * 8, "doc length table")?
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect();
    let avg_len_bits = cur.u64("average length")?;
    let n_docs = cur.u64("document count")?;
    Ok((doc_len_bits, avg_len_bits, n_docs))
}

/// Serializes bare [`IndexParts`] as one contiguous payload — the terms,
/// postings and docmeta layouts of a corpus snapshot concatenated (same
/// field order, same widths). Delta segments embed one of these per add
/// operation: the partial index over exactly that op's pages, built
/// once at append time so no later load ever re-tokenizes them.
pub(crate) fn encode_index_parts(parts: &IndexParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_terms_payload(&mut out, parts);
    put_postings_payload(&mut out, parts);
    put_docmeta_payload(&mut out, parts);
    out
}

/// Inverse of [`encode_index_parts`]. Purely structural decoding — the
/// semantic validation (offset monotonicity, page bounds, …) happens in
/// `InvertedIndex::from_parts`, which every caller feeds this into.
pub(crate) fn decode_index_parts(bytes: &[u8]) -> Result<IndexParts, StoreError> {
    let mut cur = Cursor::new(bytes);
    let terms = read_terms_payload(&mut cur)?;
    let (offsets, postings) = read_postings_payload(&mut cur)?;
    let (doc_len_bits, avg_len_bits, n_docs) = read_docmeta_payload(&mut cur)?;
    if !cur.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after index parts",
            cur.remaining()
        )));
    }
    Ok(IndexParts {
        terms,
        offsets,
        postings,
        doc_len_bits,
        avg_len_bits,
        n_docs,
    })
}

/// Serializes the corpus into a complete snapshot file image.
pub fn encode_corpus(corpus: &WebCorpus) -> Vec<u8> {
    let parts = corpus.index().to_parts();

    let mut pages = Vec::new();
    put_u64(&mut pages, corpus.len() as u64);
    for page in corpus.pages() {
        put_string(&mut pages, &page.url);
        put_string(&mut pages, &page.title);
        put_string(&mut pages, &page.body);
    }

    let mut terms = Vec::new();
    put_terms_payload(&mut terms, &parts);
    let mut postings = Vec::new();
    put_postings_payload(&mut postings, &parts);
    let mut docmeta = Vec::new();
    put_docmeta_payload(&mut docmeta, &parts);

    encode_container(
        KIND_CORPUS,
        &[
            (SEC_PAGES, pages),
            (SEC_TERMS, terms),
            (SEC_POSTINGS, postings),
            (SEC_DOCMETA, docmeta),
        ],
    )
}

/// Deserializes and validates a snapshot file image back into a
/// [`WebCorpus`]. Beyond the container's CRC checks, the index parts go
/// through [`InvertedIndex::from_parts`]'s structural validation and
/// the page count must match the index's document count — a snapshot
/// that decodes is a snapshot that can serve queries safely.
pub fn decode_corpus(bytes: &[u8]) -> Result<WebCorpus, StoreError> {
    let secs = slot_corpus_sections(decode_container(bytes, KIND_CORPUS)?)?;

    let mut cur = Cursor::new(secs.pages);
    // 24 = three 8-byte string length prefixes per page: the tightest
    // lower bound an empty page can occupy, so a forged count cannot
    // amplify the allocation past ~1/24th of the input size.
    let n_pages = cur.len_prefix(24, "page count")?;
    let mut pages = Vec::with_capacity(n_pages);
    for _ in 0..n_pages {
        pages.push(WebPage {
            url: cur.string("page url")?,
            title: cur.string("page title")?,
            body: cur.string("page body")?,
        });
    }

    let mut cur = Cursor::new(secs.terms);
    let terms = read_terms_payload(&mut cur)?;

    let mut cur = Cursor::new(secs.postings);
    let (offsets, postings) = read_postings_payload(&mut cur)?;

    let mut cur = Cursor::new(secs.docmeta);
    let (doc_len_bits, avg_len_bits, n_docs) = read_docmeta_payload(&mut cur)?;

    let index = InvertedIndex::from_parts(IndexParts {
        terms,
        offsets,
        postings,
        doc_len_bits,
        avg_len_bits,
        n_docs,
    })
    .map_err(|e| StoreError::Corrupt(e.to_string()))?;
    WebCorpus::from_parts(pages, index).map_err(|e| StoreError::Corrupt(e.to_string()))
}

/// A byte span into the snapshot buffer whose UTF-8 validity was
/// checked at open.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: usize,
    end: usize,
}

/// The snapshot file image a view reads through: a heap buffer (an
/// image already in memory) or a kernel file mapping (the mmap'd
/// serving path). Both deref to the same `&[u8]`, so every codec and
/// view downstream is storage-agnostic; cloning clones an `Arc`, never
/// the bytes.
#[derive(Debug, Clone)]
pub enum SnapshotBytes {
    /// The file image read into memory.
    Heap(Arc<[u8]>),
    /// The file mapped read-only; pages fault in on first touch and
    /// live in the OS page cache, shared across processes.
    Mapped(Arc<memmap2::Mmap>),
}

impl std::ops::Deref for SnapshotBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            SnapshotBytes::Heap(buf) => buf,
            SnapshotBytes::Mapped(map) => map,
        }
    }
}

/// One string span: UTF-8-validated here so accessors can slice
/// without re-checking.
fn str_span(cur: &mut Cursor<'_>, base: usize, context: &'static str) -> Result<Span, StoreError> {
    let len = cur.len_prefix(1, context)?;
    let start = base + cur.position();
    let bytes = cur.take(len, context)?;
    std::str::from_utf8(bytes)
        .map_err(|_| StoreError::Corrupt(format!("{context}: invalid UTF-8")))?;
    Ok(Span {
        start,
        end: start + len,
    })
}

/// Validates the pages section (count, string structure, UTF-8) and
/// returns the `[url, title, body]` span triple per page, addressed
/// into the whole file image.
pub(crate) fn validate_page_spans(
    buf: &[u8],
    sec: Range<usize>,
) -> Result<Vec<[Span; 3]>, StoreError> {
    let mut cur = Cursor::new(&buf[sec.clone()]);
    let n_pages = cur.len_prefix(24, "page count")?;
    let mut page_spans = Vec::with_capacity(n_pages);
    for _ in 0..n_pages {
        page_spans.push([
            str_span(&mut cur, sec.start, "page url")?,
            str_span(&mut cur, sec.start, "page title")?,
            str_span(&mut cur, sec.start, "page body")?,
        ]);
    }
    Ok(page_spans)
}

/// Borrowed field views of page `id` out of `buf`, through spans
/// produced by [`validate_page_spans`] over the same buffer. Panics on
/// out-of-range ids (same contract as `WebCorpus::page`).
pub(crate) fn page_fields_at<'a>(buf: &'a [u8], spans: &[[Span; 3]], id: PageId) -> PageFields<'a> {
    let str_at =
        |s: Span| std::str::from_utf8(&buf[s.start..s.end]).expect("UTF-8 validated at open");
    let [url, title, body] = spans[id.0 as usize];
    PageFields {
        url: str_at(url),
        title: str_at(title),
        body: str_at(body),
    }
}

/// The index half of a snapshot, served in place: terms, postings and
/// docmeta validated and addressed into the file image — everything a
/// search needs, nothing a page read needs. `MappedSnapshot` opens it
/// on first touch, independently of the page-span table.
///
/// All structural invariants (offset monotonicity, posting page
/// bounds, term uniqueness, length-table arity — exactly the checks
/// `InvertedIndex::from_parts` makes) are established at open, so
/// accessors cannot panic on any byte sequence that opened
/// successfully.
#[derive(Debug)]
pub(crate) struct CoreIndexView {
    buf: SnapshotBytes,
    term_spans: Vec<Span>,
    /// Term ids sorted by term bytes — the lookup structure.
    term_order: Vec<u32>,
    /// Byte range of the offset table (`n_terms + 1` LE `u32`s).
    offsets: Range<usize>,
    /// Byte range of the posting arena (8 bytes per posting).
    postings: Range<usize>,
    /// Byte range of the document-length table (8 bytes per document).
    doc_len: Range<usize>,
    avg_len: f64,
    n_docs: usize,
}

impl CoreIndexView {
    /// Validates the three index sections and records where everything
    /// lives. Reads only — no string, posting or hash-map allocation;
    /// the side tables built here (term spans + sort permutation) are
    /// O(vocabulary), not O(corpus).
    pub(crate) fn open(
        buf: SnapshotBytes,
        terms_sec: Range<usize>,
        postings_sec: Range<usize>,
        docmeta_sec: Range<usize>,
    ) -> Result<Self, StoreError> {
        let bytes: &[u8] = &buf;

        let mut cur = Cursor::new(&bytes[terms_sec.clone()]);
        let n_terms = cur.len_prefix(8, "term count")?;
        if u32::try_from(n_terms).is_err() {
            return Err(StoreError::Corrupt(
                "term vocabulary exceeds u32 ids".into(),
            ));
        }
        let mut term_spans = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            term_spans.push(str_span(&mut cur, terms_sec.start, "term")?);
        }
        let mut term_order: Vec<u32> = (0..n_terms as u32).collect();
        term_order.sort_unstable_by(|&a, &b| {
            let sa = term_spans[a as usize];
            let sb = term_spans[b as usize];
            bytes[sa.start..sa.end].cmp(&bytes[sb.start..sb.end])
        });
        if term_order.windows(2).any(|w| {
            let sa = term_spans[w[0] as usize];
            let sb = term_spans[w[1] as usize];
            bytes[sa.start..sa.end] == bytes[sb.start..sb.end]
        }) {
            return Err(StoreError::Corrupt(
                "duplicate term in the vocabulary".into(),
            ));
        }

        let mut cur = Cursor::new(&bytes[postings_sec.clone()]);
        let n_offsets = cur.len_prefix(4, "offset count")?;
        if n_offsets != n_terms + 1 {
            return Err(StoreError::Corrupt(format!(
                "offset table has {n_offsets} entries for {n_terms} terms (want terms + 1)"
            )));
        }
        let off_start = postings_sec.start + cur.position();
        let offset_bytes = cur.take(n_offsets * 4, "offset table")?;
        let offsets_range = off_start..off_start + n_offsets * 4;
        let n_postings = cur.len_prefix(8, "posting count")?;
        let post_start = postings_sec.start + cur.position();
        let posting_bytes = cur.take(n_postings * 8, "posting arena")?;
        let postings_range = post_start..post_start + n_postings * 8;
        // The same structural walk `InvertedIndex::from_parts` makes —
        // reads only, so a forged arena costs bounded time and zero
        // allocation.
        let mut prev = 0u32;
        for (i, b) in offset_bytes.chunks_exact(4).enumerate() {
            let off = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
            if i == 0 && off != 0 {
                return Err(StoreError::Corrupt("offset table must start at 0".into()));
            }
            if off < prev {
                return Err(StoreError::Corrupt("offset table must be monotonic".into()));
            }
            prev = off;
        }
        if prev as usize != n_postings {
            return Err(StoreError::Corrupt(format!(
                "offset table ends at {prev} but the arena holds {n_postings} postings"
            )));
        }

        let mut cur = Cursor::new(&bytes[docmeta_sec.clone()]);
        let n_doc_lens = cur.len_prefix(8, "doc length count")?;
        let len_start = docmeta_sec.start + cur.position();
        cur.take(n_doc_lens * 8, "doc length table")?;
        let doc_len_range = len_start..len_start + n_doc_lens * 8;
        let avg_len_bits = cur.u64("average length")?;
        let n_docs = cur.u64("document count")?;
        let n_docs = usize::try_from(n_docs)
            .map_err(|_| StoreError::Corrupt("document count overflows usize".into()))?;
        if n_doc_lens != n_docs {
            return Err(StoreError::Corrupt(format!(
                "{n_doc_lens} document lengths for {n_docs} documents"
            )));
        }
        for b in posting_bytes.chunks_exact(8) {
            let page = u32::from_le_bytes(b[..4].try_into().expect("4-byte chunk"));
            if page as usize >= n_docs {
                return Err(StoreError::Corrupt(format!(
                    "posting references page {page} of a {n_docs}-document collection"
                )));
            }
        }

        Ok(CoreIndexView {
            buf,
            term_spans,
            term_order,
            offsets: offsets_range,
            postings: postings_range,
            doc_len: doc_len_range,
            avg_len: f64::from_bits(avg_len_bits),
            n_docs,
        })
    }

    fn offset_at(&self, i: usize) -> usize {
        let at = self.offsets.start + i * 4;
        u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("in-range offset")) as usize
    }

    fn posting_at(&self, j: usize) -> (u32, f32) {
        let at = self.postings.start + j * 8;
        let page = u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("in-range posting"));
        let tf = f32::from_bits(u32::from_le_bytes(
            self.buf[at + 4..at + 8]
                .try_into()
                .expect("in-range posting"),
        ));
        (page, tf)
    }

    /// Indexed length of document `i`, as stored.
    pub(crate) fn doc_len_of(&self, i: usize) -> f64 {
        let at = self.doc_len.start + i * 8;
        f64::from_bits(u64::from_le_bytes(
            self.buf[at..at + 8]
                .try_into()
                .expect("in-range doc length"),
        ))
    }

    /// The dense id of `term`, if interned — a binary search through
    /// the sorted permutation instead of a hash lookup.
    pub(crate) fn term_id(&self, term: &str) -> Option<u32> {
        self.term_order
            .binary_search_by(|&tid| {
                let s = self.term_spans[tid as usize];
                self.buf[s.start..s.end].cmp(term.as_bytes())
            })
            .ok()
            .map(|at| self.term_order[at])
    }

    /// Arena indices of term `tid`'s postings.
    fn posting_range(&self, tid: u32) -> Range<usize> {
        self.offset_at(tid as usize)..self.offset_at(tid as usize + 1)
    }

    /// Posting-list length of term `tid` (its raw document frequency).
    pub(crate) fn postings_len(&self, tid: u32) -> usize {
        self.posting_range(tid).len()
    }

    /// Visits term `tid`'s postings in stored order, straight off the
    /// little-endian bytes.
    pub(crate) fn for_each_posting(&self, tid: u32, visit: &mut dyn FnMut(u32, f32)) {
        for j in self.posting_range(tid) {
            let (page, tf) = self.posting_at(j);
            visit(page, tf);
        }
    }

    /// Number of documents the index covers.
    pub(crate) fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Size of the interned vocabulary (term ids are `0..n_terms()`).
    pub(crate) fn n_terms(&self) -> usize {
        self.term_spans.len()
    }

    /// Heap bytes of the side tables this view materialized (term
    /// spans + sort permutation) — the O(vocabulary) resident cost of
    /// serving off the mapping.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.term_spans.len() * std::mem::size_of::<Span>() + self.term_order.len() * 4
    }
}

/// The in-place flavour of the BM25 kernel: the heap index's numbers
/// (local document count, posting-list lengths as dfs), read straight
/// off the little-endian bytes — so results are bit-identical to the
/// eager index's `search`.
impl ScoreSource for CoreIndexView {
    type Term = u32;

    fn n_docs(&self) -> usize {
        self.n_docs
    }

    fn avg_len(&self) -> f64 {
        self.avg_len
    }

    fn idf(&self, token: &str) -> Option<(f64, u32)> {
        let tid = self.term_id(token)?;
        Some((scoring::idf(self.n_docs, self.postings_len(tid)), tid))
    }

    fn postings(&self, &tid: &u32, mut visit: impl FnMut(u32, f32, f64)) {
        for j in self.posting_range(tid) {
            let (page, tf) = self.posting_at(j);
            visit(page, tf, self.doc_len_of(page as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teda_kb::{World, WorldSpec};
    use teda_websim::WebCorpusSpec;

    fn corpus() -> WebCorpus {
        let world = World::generate(WorldSpec::tiny(), 42);
        WebCorpus::build(&world, WebCorpusSpec::tiny(), 42)
    }

    #[test]
    fn corpus_round_trips_to_an_identical_index() {
        let original = corpus();
        let loaded = decode_corpus(&encode_corpus(&original)).expect("own bytes decode");
        assert_eq!(
            loaded.index(),
            original.index(),
            "index must be field-identical"
        );
        assert_eq!(loaded.pages(), original.pages());
    }

    #[test]
    fn encoding_is_a_pure_function_of_the_corpus() {
        let a = encode_corpus(&corpus());
        let b = encode_corpus(&corpus());
        assert_eq!(a, b, "equal corpora must produce byte-identical snapshots");
    }

    #[test]
    fn empty_corpus_round_trips() {
        let empty = WebCorpus::from_pages(Vec::new());
        let loaded = decode_corpus(&encode_corpus(&empty)).expect("empty decodes");
        assert_eq!(loaded.len(), 0);
        assert!(loaded.index().search("anything", 5).is_empty());
    }

    #[test]
    fn index_parts_round_trip() {
        let parts = corpus().index().to_parts();
        let decoded = decode_index_parts(&encode_index_parts(&parts)).expect("own bytes decode");
        assert_eq!(decoded, parts);
    }

    #[test]
    fn truncated_index_parts_are_typed_errors() {
        let bytes = encode_index_parts(&corpus().index().to_parts());
        for cut in [0, 1, 7, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_index_parts(&bytes[..cut]),
                    Err(StoreError::Truncated { .. } | StoreError::Corrupt(_))
                ),
                "cut at {cut}"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            decode_index_parts(&long),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn page_count_index_mismatch_is_corrupt_not_panic() {
        // Re-encode with one page dropped but the index intact: both
        // sections checksum fine, so this must be caught by the
        // cross-section consistency check.
        let original = corpus();
        let mut fewer_pages = original.pages().to_vec();
        fewer_pages.pop();
        let truncated = WebCorpus::from_pages(fewer_pages);
        // Graft the *original* (bigger) index onto the smaller page
        // list at the byte level: encode both, swap the pages section.
        let small = encode_corpus(&truncated);
        let sections_small = decode_container(&small, KIND_CORPUS).unwrap();
        let big = encode_corpus(&original);
        let sections_big = decode_container(&big, KIND_CORPUS).unwrap();
        let grafted: Vec<(u32, Vec<u8>)> = sections_big
            .iter()
            .map(|&(tag, payload)| {
                if tag == SEC_PAGES {
                    let pages = sections_small
                        .iter()
                        .find(|&&(t, _)| t == SEC_PAGES)
                        .unwrap()
                        .1;
                    (tag, pages.to_vec())
                } else {
                    (tag, payload.to_vec())
                }
            })
            .collect();
        let bytes = encode_container(KIND_CORPUS, &grafted);
        assert!(matches!(decode_corpus(&bytes), Err(StoreError::Corrupt(_))));
    }
}
