//! The search-backend seam: how a ranked index is consumed, without
//! saying which index it is.
//!
//! [`BingSim`](crate::BingSim) (and through it `BatchAnnotator` and the
//! annotation service) only ever needs three things from the corpus:
//! rank pages for a query, assemble the ranked pages into results, and
//! know the collection size. [`SearchBackend`] is that contract,
//! implemented by the monolithic [`WebCorpus`], the read-time-merged
//! [`SegmentedCorpus`](crate::SegmentedCorpus), `teda-store`'s in-place
//! `ViewBackend` and `teda-cluster`'s shard backend and router. [`SwappableBackend`] adds atomic hot swap so a
//! live service can fold in a freshly journaled segment without
//! restarting (each query, and each batch of queries, runs against one
//! coherent backend, before or after the swap, never a mixture).

use std::sync::{Arc, RwLock};

use crate::corpus::WebCorpus;
use crate::engine::SearchResult;
use crate::page::{snippet_of, PageId};

/// Borrowed views of one page's fields, as a search result consumes
/// them. Borrowing (rather than cloning three `String`s per access) is
/// what lets the zero-copy snapshot view serve page reads straight out
/// of its byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFields<'a> {
    /// The page URL.
    pub url: &'a str,
    /// The page title.
    pub title: &'a str,
    /// The page text.
    pub body: &'a str,
}

impl PageFields<'_> {
    /// The search-result snippet: the first
    /// [`SNIPPET_WORDS`](crate::page::SNIPPET_WORDS) words of the body.
    pub fn snippet(&self) -> String {
        snippet_of(self.body)
    }

    /// The `(url, title, snippet)` triple the engine facade returns.
    pub fn to_result(self) -> SearchResult {
        SearchResult {
            url: self.url.to_string(),
            title: self.title.to_string(),
            snippet: self.snippet(),
        }
    }
}

/// A ranked page collection, as the engine facade consumes it.
///
/// Implementations must rank identically for identical logical corpora:
/// BM25 through [`crate::scoring`], ties broken by ascending page id.
/// Every method takes `&self` so one backend can serve concurrent
/// workers. `search_results` exists (rather than a borrowed per-page
/// accessor) so a hot-swappable backend can resolve one coherent
/// backend per query — ranking and field assembly never straddle a
/// swap.
pub trait SearchBackend: Send + Sync {
    /// Up to `k` pages by descending BM25 score, ties by ascending id.
    fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)>;

    /// The top-`k` results with their fields assembled.
    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult>;

    /// Answers a batch of `(query, k)` pairs: `answer(i, results)` runs
    /// exactly once per position `i` of `queries`, each with what
    /// [`search_results`](Self::search_results) would return for that
    /// pair, in any order. The default loops over `search_results` and
    /// hands each answer back as soon as it exists; a backend whose
    /// queries cost a round trip (the cluster router) overrides it to
    /// send the batch at once.
    fn search_many(
        &self,
        queries: &[(&str, usize)],
        answer: &mut dyn FnMut(usize, Vec<SearchResult>),
    ) {
        for (i, &(query, k)) in queries.iter().enumerate() {
            answer(i, self.search_results(query, k));
        }
    }

    /// The fields of pages `ids`, in the order given, with no ranking:
    /// the hydrate half of a query-then-fetch search, whose rank half is
    /// [`search`](Self::search). An id the backend does not hold is
    /// refused with the reason. The default refuses every id; so does
    /// [`SwappableBackend`], because an id from one ranking may name
    /// another page after a swap.
    fn fetch(&self, ids: &[PageId]) -> Result<Vec<SearchResult>, String> {
        let _ = ids;
        Err("this backend does not fetch pages by id".into())
    }

    /// Number of pages in the collection.
    fn n_docs(&self) -> usize;
}

/// Assembles the results of ranked hits through a page-field accessor —
/// the one-liner every concrete backend's `search_results` reduces to.
pub fn results_of<'a>(
    hits: Vec<(PageId, f64)>,
    fields: impl Fn(PageId) -> PageFields<'a>,
) -> Vec<SearchResult> {
    hits.into_iter()
        .map(|(page, _)| fields(page).to_result())
        .collect()
}

impl SearchBackend for WebCorpus {
    fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        self.index().search(query, k)
    }

    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult> {
        results_of(self.index().search(query, k), |id| self.page_fields(id))
    }

    fn fetch(&self, ids: &[PageId]) -> Result<Vec<SearchResult>, String> {
        ids.iter()
            .map(|&id| {
                if (id.0 as usize) < self.len() {
                    Ok(self.page_fields(id).to_result())
                } else {
                    Err(format!(
                        "page {} is past this corpus of {}",
                        id.0,
                        self.len()
                    ))
                }
            })
            .collect()
    }

    fn n_docs(&self) -> usize {
        self.len()
    }
}

/// The raw index surface a [`SegmentedCorpus`](crate::SegmentedCorpus)
/// merges over — everything the two-pass overlay search needs from its
/// base collection, without saying how that collection is stored.
///
/// [`WebCorpus`] implements it over its heap-resident
/// [`InvertedIndex`](crate::InvertedIndex); `teda-store`'s mmap'd view
/// backend implements it by walking posting bytes in place. Because the
/// overlay search consumes *exactly* these accessors — same values,
/// same visit order — any two implementations that agree on them
/// produce bit-identical merged rankings.
///
/// Contract: `tid` arguments must come from `term_id` on the same
/// instance; `doc` and page ids are `0..n_docs()`. Postings are visited
/// in ascending page order with the `tf` bit patterns the index stores
/// (floats travel as bits precisely so this trait can't introduce
/// drift).
pub trait BaseCorpus: Send + Sync + std::fmt::Debug {
    /// Number of documents in the base collection.
    fn n_docs(&self) -> usize;

    /// The dense id of `term`, if interned.
    fn term_id(&self, term: &str) -> Option<u32>;

    /// Size of the interned vocabulary (term ids are `0..n_terms()`).
    /// The cluster's shard backend validates its manifest's per-term
    /// global-df table against this, so a `term_id` hit can never
    /// index past the table.
    fn n_terms(&self) -> usize;

    /// Posting-list length of term `tid` — its raw document frequency.
    fn postings_len(&self, tid: u32) -> usize;

    /// Visits term `tid`'s postings in stored (ascending page id)
    /// order as `(page id, tf)` pairs.
    fn for_each_posting(&self, tid: u32, visit: &mut dyn FnMut(u32, f32));

    /// Indexed token length of document `doc`, as stored.
    fn doc_len_of(&self, doc: usize) -> f64;

    /// Borrowed field views of page `id`.
    fn page_fields(&self, id: PageId) -> PageFields<'_>;
}

impl BaseCorpus for WebCorpus {
    fn n_docs(&self) -> usize {
        self.len()
    }

    fn term_id(&self, term: &str) -> Option<u32> {
        self.index().term_id(term)
    }

    fn n_terms(&self) -> usize {
        self.index().n_terms()
    }

    fn postings_len(&self, tid: u32) -> usize {
        self.index().postings_of(tid).len()
    }

    fn for_each_posting(&self, tid: u32, visit: &mut dyn FnMut(u32, f32)) {
        for p in self.index().postings_of(tid) {
            visit(p.page.0, p.tf);
        }
    }

    fn doc_len_of(&self, doc: usize) -> f64 {
        self.index().doc_len_of(doc)
    }

    fn page_fields(&self, id: PageId) -> PageFields<'_> {
        WebCorpus::page_fields(self, id)
    }
}

/// An atomically swappable backend: the indirection a live service
/// queries through, so folding in a new segment is one pointer swap.
///
/// The lock is held only long enough to clone or replace the `Arc` —
/// never across a search — so a slow query can't block a refresh and a
/// refresh can't block queries. A query that raced a swap completes
/// against the backend it resolved (its `Arc` keeps that corpus
/// alive), which is exactly the snapshot-isolation semantics a reader
/// wants.
pub struct SwappableBackend {
    inner: RwLock<Arc<dyn SearchBackend>>,
}

impl SwappableBackend {
    /// A swappable wrapper starting at `initial`.
    pub fn new(initial: Arc<dyn SearchBackend>) -> Self {
        SwappableBackend {
            inner: RwLock::new(initial),
        }
    }

    /// The current backend (cheap: one `Arc` clone under a read lock).
    pub fn current(&self) -> Arc<dyn SearchBackend> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Atomically replaces the backend; in-flight queries finish
    /// against the one they resolved.
    pub fn swap(&self, next: Arc<dyn SearchBackend>) {
        *self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = next;
    }
}

impl std::fmt::Debug for SwappableBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwappableBackend")
            .field("n_docs", &self.current().n_docs())
            .finish()
    }
}

impl SearchBackend for SwappableBackend {
    fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        self.current().search(query, k)
    }

    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult> {
        // One resolve per query: ranking and field assembly both run
        // against the same backend even if a swap lands mid-call.
        self.current().search_results(query, k)
    }

    fn search_many(
        &self,
        queries: &[(&str, usize)],
        answer: &mut dyn FnMut(usize, Vec<SearchResult>),
    ) {
        // One resolve per batch: every query of it runs against the
        // backend current at the call.
        self.current().search_many(queries, answer)
    }

    // `fetch` keeps the refusing default: a swap between a ranking and
    // its fetch would hydrate another corpus's pages under its ids.

    fn n_docs(&self) -> usize {
        self.current().n_docs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::WebPage;

    fn corpus() -> WebCorpus {
        WebCorpus::from_pages(vec![
            WebPage {
                url: "u0".into(),
                title: "Melisse".into(),
                body: "melisse restaurant santa monica".into(),
            },
            WebPage {
                url: "u1".into(),
                title: "Noise".into(),
                body: "unrelated words entirely".into(),
            },
        ])
    }

    #[test]
    fn corpus_backend_matches_direct_index_search() {
        let c = corpus();
        let via_backend = SearchBackend::search(&c, "melisse", 5);
        let direct = c.index().search("melisse", 5);
        assert_eq!(via_backend, direct);
        let results = c.search_results("melisse", 5);
        assert_eq!(results[0].url, "u0");
        assert_eq!(results[0].snippet, "melisse restaurant santa monica");
    }

    #[test]
    fn a_corpus_fetches_what_it_ranks_and_a_swappable_backend_refuses() {
        let c = corpus();
        let ids: Vec<PageId> = SearchBackend::search(&c, "melisse", 5)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(c.fetch(&ids).unwrap(), c.search_results("melisse", 5));
        assert_eq!(c.fetch(&[PageId(1), PageId(0)]).unwrap()[0].url, "u1");
        assert!(c.fetch(&[PageId(0), PageId(2)]).is_err(), "past the corpus");
        let sw = SwappableBackend::new(Arc::new(c));
        assert!(sw.fetch(&[PageId(0)]).is_err());
    }

    #[test]
    fn swap_changes_results_atomically() {
        let a = Arc::new(corpus());
        let b = Arc::new(WebCorpus::from_pages(Vec::new()));
        let sw = SwappableBackend::new(a.clone());
        assert_eq!(sw.n_docs(), 2);
        assert!(!sw.search("melisse", 5).is_empty());
        // A reader holding the pre-swap backend keeps its view.
        let held = sw.current();
        sw.swap(b);
        assert_eq!(sw.n_docs(), 0);
        assert!(sw.search("melisse", 5).is_empty());
        assert_eq!(held.n_docs(), 2);
    }
}
