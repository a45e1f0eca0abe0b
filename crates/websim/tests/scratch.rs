//! The per-thread score scratch behind `scoring::top_k` must be
//! invisible: whatever ran on the thread before — a larger index, a
//! smaller one, the same query again, a source that panicked halfway
//! through its postings — every ranking equals the full-sort reference,
//! which accumulates into a fresh buffer, bit for bit.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use teda_websim::scoring::{self, ScoreSource};
use teda_websim::{InvertedIndex, PageId, WebPage};

/// Small closed vocabulary so queries share postings across documents
/// and scores collide often.
const VOCAB: [&str; 16] = [
    "harbor", "museum", "jazz", "espresso", "quartet", "granite", "lantern", "orchard", "velvet",
    "cinnamon", "atlas", "meridian", "falcon", "tundra", "saffron", "willow",
];

/// `n` deterministic pages: word choice from a fixed LCG, so the test
/// needs no RNG and every run builds the same index.
fn pages(n: usize, seed: u64) -> Vec<WebPage> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut word = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        VOCAB[(state >> 33) as usize % VOCAB.len()]
    };
    (0..n)
        .map(|i| {
            let title = (0..2).map(|_| word()).collect::<Vec<_>>().join(" ");
            let body = (0..3 + i % 9).map(|_| word()).collect::<Vec<_>>().join(" ");
            WebPage {
                url: format!("http://scratch/{seed}/{i}"),
                title,
                body,
            }
        })
        .collect()
}

fn queries() -> Vec<&'static str> {
    vec![
        "harbor",
        "museum jazz",
        "espresso quartet granite",
        "willow saffron",
        "harbor harbor museum",
        "zanzibar",
        "",
    ]
}

fn to_bits(hits: &[(PageId, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

/// Every probe at several depths, ranked through the scratch, against
/// the fresh-buffer reference.
fn assert_matches_reference(index: &InvertedIndex, label: &str) {
    for q in queries() {
        for k in [1, 5, 50, 5000] {
            assert_eq!(
                to_bits(&index.search(q, k)),
                to_bits(&index.search_full_sort(q, k)),
                "{label}: {q:?} k {k}"
            );
        }
    }
}

#[test]
fn interleaved_indexes_on_one_thread_match_the_full_sort_reference() {
    let large = InvertedIndex::build(&pages(1500, 1));
    let small = InvertedIndex::build(&pages(40, 2));
    assert_eq!(large.n_docs(), 1500);

    assert_matches_reference(&large, "large, first");
    // The scratch is now longer than the small index's score space.
    assert_matches_reference(&small, "small after large");
    assert_matches_reference(&large, "large after small");
    // Query by query, alternating, plus immediate repeats.
    for q in queries() {
        for index in [&small, &large, &large, &small, &small] {
            assert_eq!(
                to_bits(&index.search(q, 10)),
                to_bits(&index.search_full_sort(q, 10)),
                "alternating: {q:?} on {} docs",
                index.n_docs()
            );
        }
    }
}

/// Delegates to an index but panics at the `panic_at`-th posting it
/// visits, leaving the kernel mid-walk.
struct PanicsMidWalk<'a> {
    inner: &'a InvertedIndex,
    visited: Cell<usize>,
    panic_at: usize,
}

impl ScoreSource for PanicsMidWalk<'_> {
    type Term = u32;

    fn n_docs(&self) -> usize {
        self.inner.n_docs()
    }

    fn avg_len(&self) -> f64 {
        self.inner.avg_len()
    }

    fn idf(&self, token: &str) -> Option<(f64, u32)> {
        self.inner.idf(token)
    }

    fn postings(&self, term: &u32, mut visit: impl FnMut(u32, f32, f64)) {
        self.inner.postings(term, |id, tf, doc_len| {
            let n = self.visited.get() + 1;
            self.visited.set(n);
            assert!(n < self.panic_at, "source failed mid-walk");
            visit(id, tf, doc_len);
        });
    }
}

#[test]
fn a_source_panicking_mid_walk_leaves_the_scratch_clean() {
    let index = InvertedIndex::build(&pages(1500, 3));
    let query = "harbor museum jazz";
    let postings: usize = ["harbor", "museum", "jazz"]
        .iter()
        .map(|t| {
            let (_, tid) = index.idf(t).expect("probe term is indexed");
            let mut n = 0;
            index.postings(&tid, |_, _, _| n += 1);
            n
        })
        .sum();
    assert!(postings > 100, "the walk is long enough to cut in half");

    for panic_at in [1, postings / 2, postings] {
        let source = PanicsMidWalk {
            inner: &index,
            visited: Cell::new(0),
            panic_at,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| scoring::top_k(&source, query, 10)));
        assert!(outcome.is_err(), "panic_at {panic_at}: the source panics");
        assert_eq!(source.visited.get(), panic_at);
        // Same thread, same scratch: the next queries see no residue.
        assert_matches_reference(&index, &format!("after a panic at posting {panic_at}"));
    }
}
