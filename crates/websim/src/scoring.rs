//! The BM25 scoring kernel: the one accumulation loop every index
//! flavour ranks through.
//!
//! [`accumulate_into`] owns the per-query body (tokenize, idf, posting
//! walk, [`weight`], first-touch `+=`) and [`top_k`] ranks its output
//! under [`rank_order`]. A flavour only says where the numbers come
//! from, as a [`ScoreSource`]. There are four: the heap
//! [`InvertedIndex`](crate::InvertedIndex); `teda-store`'s
//! `CoreIndexView`, reading the same numbers in place from snapshot
//! bytes; the [`SegmentedCorpus`](crate::SegmentedCorpus) overlay,
//! counting surviving postings for df and walking in final-id order;
//! and `teda-cluster`'s `ShardBackend`, scoring local postings with the
//! manifest's global statistics.
//!
//! Bit-identity across flavours therefore holds by construction: the
//! same arithmetic (same operations in the same order on the same bit
//! patterns) and the same tie rules (score descending, page id
//! ascending, compared with `f64::total_cmp`). The kernel is generic,
//! so each source gets its own monomorphized loop and the posting
//! visit inlines.
//!
//! A query costs what its postings cost, not what the corpus costs.
//! [`top_k`] scores into a per-thread dense scratch that stays all-zero
//! between queries: after ranking, it writes `0.0` back only at the
//! touched ids, so the reset is O(touched), not O(`n_docs`). Each
//! searching thread keeps 8 bytes × the largest `n_docs` it has scored
//! (plus the touched-id list of its largest query). The scratch grows
//! through a fresh `vec![0.0; n]`, whose pages the allocator hands out
//! zeroed and the OS faults in only once a query touches them. The
//! reset runs from a drop guard, so a [`ScoreSource`] that panics
//! mid-walk (the service's workers catch panics and keep serving)
//! leaves the scratch clean for the thread's next query. The reference
//! [`accumulate`] runs the same body against a fresh buffer.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use teda_text::tokenize::TokenScanner;

use crate::page::PageId;

/// BM25 `k1`: term-frequency saturation.
pub const K1: f64 = 1.2;
/// BM25 `b`: document-length normalization strength.
pub const B: f64 = 0.75;

/// BM25 IDF with the standard +1 floor against negative values.
#[inline]
pub fn idf(n_docs: usize, df: usize) -> f64 {
    let df = df as f64;
    (((n_docs as f64 - df + 0.5) / (df + 0.5)) + 1.0).ln()
}

/// One posting's BM25 contribution. The expression tree is fixed here
/// so every caller performs the identical float operations in the
/// identical order — the foundation of cross-flavour bit-identity.
#[inline]
pub fn weight(idf: f64, tf: f64, doc_len: f64, avg_len: f64) -> f64 {
    let norm = K1 * (1.0 - B + B * doc_len / avg_len.max(1e-9));
    idf * (tf * (K1 + 1.0)) / (tf + norm)
}

/// One index flavour as the BM25 kernel sees it: collection statistics,
/// a per-term idf, and the term's postings in accumulation order.
///
/// Score-space ids are `0..n_docs()`; they are the ids [`top_k`]
/// returns. Postings must be visited in ascending score-space id —
/// that order fixes both the per-document addition order and the
/// first-touch order the ranking's tie handling starts from.
pub trait ScoreSource {
    /// What [`idf`](Self::idf) resolves a query term to, handed back to
    /// [`postings`](Self::postings) (e.g. a term id).
    type Term;

    /// Size of the score space (documents that can be scored).
    fn n_docs(&self) -> usize;

    /// The average document length BM25 normalizes against.
    fn avg_len(&self) -> f64;

    /// The idf of `token` and its resolved term, or `None` to skip it
    /// (not indexed, or no surviving postings).
    fn idf(&self, token: &str) -> Option<(f64, Self::Term)>;

    /// Calls `visit(id, tf, doc_len)` for each posting of `term`, in
    /// ascending score-space id.
    fn postings(&self, term: &Self::Term, visit: impl FnMut(u32, f32, f64));
}

/// Accumulates BM25 contributions for `query` over `src` into
/// `scores`, pushing each id onto `touched` when its score is first
/// written (query-term order, then posting order — deterministic).
///
/// `scores` must be all zero and at least `src.n_docs()` long; every id
/// this call writes lands in `touched`, so zeroing those ids restores
/// the precondition.
pub fn accumulate_into<S: ScoreSource>(
    src: &S,
    query: &str,
    scores: &mut [f64],
    touched: &mut Vec<u32>,
) {
    let avg_len = src.avg_len();
    let mut scanner = TokenScanner::new(query);
    let mut token = String::new();
    while scanner.next_into(&mut token) {
        let Some((idf, term)) = src.idf(&token) else {
            continue;
        };
        // Reborrowed and captured by value (the slice as pointer +
        // length), so the inlined posting loop keeps them in registers
        // across pushes.
        let (scores, touched) = (&mut *scores, &mut *touched);
        src.postings(&term, move |id, tf, doc_len| {
            let i = id as usize;
            let contrib = weight(idf, f64::from(tf), doc_len, avg_len);
            if scores[i] == 0.0 {
                touched.push(id);
            }
            scores[i] += contrib;
        });
    }
}

/// The reference accumulation: [`accumulate_into`] against a fresh
/// dense score array, returned with the touched ids in first-touch
/// order. Shares no state with [`top_k`]'s per-thread scratch.
pub fn accumulate<S: ScoreSource>(src: &S, query: &str) -> (Vec<f64>, Vec<u32>) {
    let mut scores = vec![0.0f64; src.n_docs()];
    let mut touched: Vec<u32> = Vec::new();
    accumulate_into(src, query, &mut scores, &mut touched);
    (scores, touched)
}

/// One thread's reusable score space: `scores` is all zero and
/// `touched` empty between queries.
#[derive(Default)]
struct Scratch {
    scores: Vec<f64>,
    touched: Vec<u32>,
}

thread_local! {
    /// Per-thread scratch for [`top_k`]. Reuse is an allocation
    /// optimisation, not state: the buffer is all zero whenever no
    /// query is running, so every query starts from the bits a fresh
    /// `vec![0.0; n]` would give it.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Restores the [`Scratch`] invariant when dropped — after ranking, or
/// while unwinding out of a panicking [`ScoreSource`].
struct ResetOnDrop<'a>(&'a mut Scratch);

impl Drop for ResetOnDrop<'_> {
    fn drop(&mut self) {
        // Cannot panic (which would abort mid-unwind): each touched id
        // was bounds-checked against `scores` before it was pushed.
        let Scratch { scores, touched } = &mut *self.0;
        for &id in touched.iter() {
            scores[id as usize] = 0.0;
        }
        touched.clear();
    }
}

/// Up to `k` score-space ids by descending BM25 score, ties by
/// ascending id: [`accumulate_into`] over this thread's scratch, ranked
/// through [`rank_top_k`], then the touched ids reset.
pub fn top_k<S: ScoreSource>(src: &S, query: &str, k: usize) -> Vec<(PageId, f64)> {
    let n = src.n_docs();
    if k == 0 || n == 0 {
        return Vec::new();
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if scratch.scores.len() < n {
            // Never `resize`: it would write (and so fault in) every
            // page, where `vec!` gets zeroed pages from the allocator.
            scratch.scores = vec![0.0f64; n];
        }
        let guard = ResetOnDrop(&mut scratch);
        let Scratch { scores, touched } = &mut *guard.0;
        accumulate_into(src, query, &mut scores[..n], touched);
        rank_top_k(scores, touched, k)
    })
}

/// The one total order every ranked list in the system uses: higher
/// score first (compared with `total_cmp`, so a NaN degrades to an
/// ordinary value instead of panicking inside every query), ascending
/// page id on ties. `Less` means "`a` ranks better than `b`" — i.e.
/// sorting by this comparator puts the best hit first.
///
/// This is the single definition of the tie rules. The bounded heap
/// ([`rank_top_k`]), the full-sort reference ([`rank_full_sort`]) and
/// the cluster router's k-way merge ([`merge_topk`]) all defer to it,
/// which is why their outputs can be compared bit for bit.
#[inline]
pub fn rank_order(a: &(PageId, f64), b: &(PageId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Merges already-ranked lists (each sorted best-first by
/// [`rank_order`], e.g. per-shard `search` outputs) into one global
/// top-`k` under the identical order. Page ids must be globally unique
/// across the lists — duplicate ids are kept as-is, never summed.
///
/// Correctness of scatter-gather rides on this: any document in the
/// global top-k beats all but fewer than k documents globally, hence
/// all but fewer than k in its own shard, hence appears in that shard's
/// local top-k — so merging local top-k lists and truncating is exact,
/// ties included.
pub fn merge_topk<I>(lists: I, k: usize) -> Vec<(PageId, f64)>
where
    I: IntoIterator<Item = Vec<(PageId, f64)>>,
{
    let mut merged: Vec<(PageId, f64)> = lists.into_iter().flatten().collect();
    merged.sort_by(rank_order);
    merged.truncate(k);
    merged
}

/// Heap entry ordered so that `a > b` means "a ranks better": higher
/// score first, lower page id on ties — the exact order of a full
/// descending sort with id tie-breaks.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: f64,
    page: PageId,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.page == other.page
    }
}

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // `rank_order` puts the better entry first (`Less`); the heap
        // wants "better" to be `Greater`, hence the reverse.
        rank_order(&(self.page, self.score), &(other.page, other.score)).reverse()
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Selects the top `k` of the touched pages by descending score, page
/// id ascending on ties, through a bounded binary heap (`O(n log k)`).
/// `touched` lists the pages with non-zero accumulated score (any
/// deterministic order works — the heap result is order-insensitive,
/// but every caller produces first-touch order for its own scan).
pub fn rank_top_k(scores: &[f64], touched: &[u32], k: usize) -> Vec<(PageId, f64)> {
    if k == 0 {
        return Vec::new();
    }
    // Bounded min-heap of the k best (the heap's minimum is the
    // current k-th entry; anything better evicts it).
    let mut heap: BinaryHeap<std::cmp::Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
    for &page in touched {
        let entry = Ranked {
            score: scores[page as usize],
            page: PageId(page),
        };
        if heap.len() < k {
            heap.push(std::cmp::Reverse(entry));
        } else if entry > heap.peek().expect("non-empty heap").0 {
            heap.pop();
            heap.push(std::cmp::Reverse(entry));
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|std::cmp::Reverse(r)| (r.page, r.score))
        .collect()
}

/// The historical ranking path — score everything, sort everything —
/// kept as the reference [`rank_top_k`] must match exactly (tie order
/// included) and as the baseline for microbenchmarks.
pub fn rank_full_sort(scores: &[f64], touched: &[u32], k: usize) -> Vec<(PageId, f64)> {
    let mut ranked: Vec<(PageId, f64)> = touched
        .iter()
        .map(|&p| (PageId(p), scores[p as usize]))
        .collect();
    ranked.sort_by(rank_order);
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a NaN score (a degenerate idf/length interaction in
    /// some future scoring tweak) must order deterministically, not
    /// panic inside every query — and both ranking paths must agree.
    #[test]
    fn nan_scores_order_deterministically_instead_of_panicking() {
        let entries = [
            Ranked {
                score: f64::NAN,
                page: PageId(0),
            },
            Ranked {
                score: 1.5,
                page: PageId(1),
            },
            Ranked {
                score: f64::NAN,
                page: PageId(2),
            },
            Ranked {
                score: 0.5,
                page: PageId(3),
            },
        ];
        let mut heap_order = entries;
        heap_order.sort(); // would have panicked via partial_cmp
        let mut full_sort_order: Vec<(PageId, f64)> =
            entries.iter().map(|r| (r.page, r.score)).collect();
        full_sort_order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        // `sort` is ascending "worse first"; the full-sort comparator is
        // descending "best first" — reversed, they must agree exactly.
        heap_order.reverse();
        let from_ranked: Vec<(PageId, f64)> =
            heap_order.iter().map(|r| (r.page, r.score)).collect();
        assert_eq!(
            format!("{from_ranked:?}"),
            format!("{full_sort_order:?}"),
            "Ranked::cmp and the full-sort comparator disagree on NaN"
        );
        // NaN ranks above every finite score under total_cmp; ties on
        // NaN still break by ascending page id.
        assert_eq!(from_ranked[0].0, PageId(0));
        assert_eq!(from_ranked[1].0, PageId(2));
        assert_eq!(from_ranked[2].0, PageId(1));
        assert_eq!(from_ranked[3].0, PageId(3));
    }

    #[test]
    fn rank_paths_agree_on_ties() {
        let scores = vec![2.0, 1.0, 2.0, 0.0, 1.0];
        let touched = vec![0, 1, 2, 4];
        for k in 0..=5 {
            assert_eq!(
                rank_top_k(&scores, &touched, k),
                rank_full_sort(&scores, &touched, k),
                "k = {k}"
            );
        }
        let top = rank_top_k(&scores, &touched, 3);
        assert_eq!(
            top,
            vec![(PageId(0), 2.0), (PageId(2), 2.0), (PageId(1), 1.0)]
        );
    }

    /// Merging per-shard top-k lists equals ranking the union — the
    /// scatter-gather exactness argument, exercised on ties.
    #[test]
    fn merge_topk_equals_ranking_the_union() {
        // Global scores with cross-shard ties (pages 0/2 tie at 2.0,
        // pages 1/4 tie at 1.0) split over three "shards", one empty.
        let scores = vec![2.0, 1.0, 2.0, 0.5, 1.0, 3.0];
        let all: Vec<u32> = (0..scores.len() as u32).collect();
        let shards: [&[u32]; 3] = [&[0, 3], &[], &[1, 2, 4, 5]];
        for k in 0..=scores.len() + 1 {
            let locals = shards
                .iter()
                .map(|pages| rank_top_k(&scores, pages, k))
                .collect::<Vec<_>>();
            assert_eq!(
                merge_topk(locals, k),
                rank_top_k(&scores, &all, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn merge_topk_orders_nan_like_the_single_node_paths() {
        let a = vec![(PageId(4), f64::NAN), (PageId(7), 1.0)];
        let b = vec![(PageId(2), f64::NAN), (PageId(9), 2.0)];
        let merged = merge_topk([a, b], 3);
        let ids: Vec<u32> = merged.iter().map(|(p, _)| p.0).collect();
        // NaN ranks above every finite score under total_cmp; NaN ties
        // break by ascending page id.
        assert_eq!(ids, vec![2, 4, 9]);
    }
}
