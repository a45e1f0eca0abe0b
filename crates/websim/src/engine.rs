//! The search-engine facade: the Bing API stand-in.
//!
//! §5.2: "It submits the content of the cell to a Web search engine; it
//! collects the top-k search results, each consisting of a link to a Web
//! page, its title and a short summary of its content, often referred to
//! as a snippet." The engine charges virtual latency per query — "querying
//! a Web search engine is a costly operation" (§5) is the whole reason the
//! paper has a pre-processing step, and the efficiency experiment (§6.4)
//! measures exactly this cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;

use teda_simkit::{LatencyModel, VirtualClock};

use crate::backend::SearchBackend;

/// One search result, as the annotator consumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Link to the page.
    pub url: String,
    /// Page title.
    pub title: String,
    /// Short summary (≤ ~20 words).
    pub snippet: String,
}

/// A Web search engine.
///
/// `search` takes `&self` so one engine instance can serve concurrent
/// annotation workers; implementations that need interior state (latency
/// RNG, counters) synchronize it themselves, as [`BingSim`] does.
pub trait SearchEngine {
    /// Returns the top-`k` results for `query` (possibly fewer).
    fn search(&self, query: &str, k: usize) -> Vec<SearchResult>;

    /// Answers a batch of `(query, k)` pairs: `answer(i, results)` runs
    /// exactly once per position `i` of `queries`, each with what
    /// [`search`](Self::search) would return for that pair, in any
    /// order. The default loops over `search` and hands each answer
    /// back as soon as it exists; an engine that can resolve a batch
    /// in fewer round trips overrides it.
    fn search_many(
        &self,
        queries: &[(&str, usize)],
        answer: &mut dyn FnMut(usize, Vec<SearchResult>),
    ) {
        for (i, &(query, k)) in queries.iter().enumerate() {
            answer(i, self.search(query, k));
        }
    }
}

impl<E: SearchEngine + ?Sized> SearchEngine for &E {
    fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        (**self).search(query, k)
    }

    fn search_many(
        &self,
        queries: &[(&str, usize)],
        answer: &mut dyn FnMut(usize, Vec<SearchResult>),
    ) {
        (**self).search_many(queries, answer)
    }
}

impl<E: SearchEngine + ?Sized> SearchEngine for Arc<E> {
    fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        (**self).search(query, k)
    }

    fn search_many(
        &self,
        queries: &[(&str, usize)],
        answer: &mut dyn FnMut(usize, Vec<SearchResult>),
    ) {
        (**self).search_many(queries, answer)
    }
}

/// The simulated Bing API over any [`SearchBackend`] — the monolithic
/// [`crate::WebCorpus`], a segmented corpus, or a hot-swappable handle.
///
/// Cheaply shareable across threads: the backend is behind an `Arc`
/// (read-only, or internally synchronized like
/// [`crate::backend::SwappableBackend`]), the query counter is atomic,
/// and the only mutable state — the latency RNG — sits behind a mutex
/// held just long enough to draw one sample. Results are a pure
/// function of `(query, k)` against the backend's current collection;
/// concurrent callers only interleave *which* latency sample each query
/// draws, and the virtual clock accumulates the same total either way.
pub struct BingSim {
    backend: Arc<dyn SearchBackend>,
    clock: VirtualClock,
    latency: LatencyModel,
    rng: Mutex<StdRng>,
    queries: AtomicU64,
}

impl BingSim {
    /// Creates an engine charging `latency` per query into `clock`.
    /// `Arc<WebCorpus>` coerces here, so existing callers are unchanged.
    pub fn new(
        backend: Arc<dyn SearchBackend>,
        clock: VirtualClock,
        latency: LatencyModel,
    ) -> Self {
        BingSim {
            backend,
            clock,
            latency,
            rng: Mutex::new(StdRng::seed_from_u64(0xb19)),
            queries: AtomicU64::new(0),
        }
    }

    /// A zero-latency engine for tests.
    pub fn instant(backend: Arc<dyn SearchBackend>) -> Self {
        BingSim::new(backend, VirtualClock::new(), LatencyModel::zero())
    }

    /// Number of queries served (the paper's daily-allowance concern).
    pub fn query_count(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Number of pages in the backing collection (as of now — a
    /// swappable backend may grow between calls).
    pub fn n_docs(&self) -> usize {
        self.backend.n_docs()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Charges `n` queries: one latency sample each on the shared
    /// clock, and `n` on the query counter.
    fn charge(&self, n: usize) {
        let mut rng = self.rng.lock().expect("engine rng poisoned");
        for _ in 0..n {
            self.clock.advance(self.latency.sample(&mut *rng));
        }
        drop(rng);
        self.queries.fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl SearchEngine for BingSim {
    fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        self.charge(1);
        self.backend.search_results(query, k)
    }

    /// Charges one query per key, as that many `search` calls would,
    /// then hands the whole batch to the backend.
    fn search_many(
        &self,
        queries: &[(&str, usize)],
        answer: &mut dyn FnMut(usize, Vec<SearchResult>),
    ) {
        self.charge(queries.len());
        self.backend.search_many(queries, answer)
    }
}

// Compile-time proof that the engine is shareable across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BingSim>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use teda_kb::{World, WorldSpec};

    use crate::corpus::{WebCorpus, WebCorpusSpec};

    fn engine() -> (World, BingSim) {
        let w = World::generate(WorldSpec::tiny(), 42);
        let c = WebCorpus::build(&w, WebCorpusSpec::tiny(), 42);
        (w, BingSim::instant(Arc::new(c)))
    }

    #[test]
    fn results_have_url_title_snippet() {
        let (w, engine) = engine();
        let name = &w.entities()[0].name;
        let results = engine.search(name, 5);
        assert!(!results.is_empty());
        for r in &results {
            assert!(r.url.starts_with("http"));
            assert!(!r.title.is_empty());
            assert!(r.snippet.split_whitespace().count() <= 20);
        }
    }

    #[test]
    fn k_is_respected() {
        let (w, engine) = engine();
        let name = &w.entities()[0].name;
        assert!(engine.search(name, 3).len() <= 3);
    }

    #[test]
    fn latency_accumulates_on_the_shared_clock() {
        let w = World::generate(WorldSpec::tiny(), 1);
        let c = WebCorpus::build(&w, WebCorpusSpec::tiny(), 1);
        let clock = VirtualClock::new();
        let engine = BingSim::new(
            Arc::new(c),
            clock.clone(),
            LatencyModel::Fixed(Duration::from_millis(400)),
        );
        engine.search("anything", 10);
        engine.search("anything else", 10);
        assert_eq!(clock.now(), Duration::from_millis(800));
        assert_eq!(engine.query_count(), 2);
    }

    #[test]
    fn a_batch_charges_each_key_and_answers_like_search() {
        let w = World::generate(WorldSpec::tiny(), 1);
        let c = WebCorpus::build(&w, WebCorpusSpec::tiny(), 1);
        let clock = VirtualClock::new();
        let engine = BingSim::new(
            Arc::new(c),
            clock.clone(),
            LatencyModel::Fixed(Duration::from_millis(400)),
        );
        let name = w.entities()[0].name.clone();
        let batch = [(name.as_str(), 5), ("anything", 10), (name.as_str(), 0)];
        let mut answers = vec![None; batch.len()];
        engine.search_many(&batch, &mut |i, results| answers[i] = Some(results));
        assert_eq!(engine.query_count(), 3, "one query per key");
        assert_eq!(clock.now(), Duration::from_millis(1200));
        for (answer, &(query, k)) in answers.into_iter().zip(&batch) {
            assert_eq!(answer, Some(engine.search(query, k)));
        }
    }

    #[test]
    fn unknown_query_returns_empty() {
        let (_, engine) = engine();
        assert!(engine.search("xylophone zanzibar quux", 10).is_empty());
    }
}
