//! Query memoization for the batch annotation engine and service.
//!
//! "Querying a Web search engine is a costly operation" (§5) — the
//! paper's pre-processing step exists to cut query volume, and real
//! tables amplify the concern: duplicate cell contents (repeated category
//! words, shared names across tables of a corpus) would re-issue the same
//! query over and over. [`QueryCache`] memoizes `(query, k) → results`
//! behind a sharded lock so concurrent annotation workers share one
//! result set per distinct query.
//!
//! The lookup is [`teda_memo::Memo`], shared with `teda-geo`'s geocoding
//! memo and the snippet-class memo: misses are *single-flight per key* (workers racing on the same
//! `(query, k)` wait for the first one's search, workers on different
//! keys never wait on each other's engine calls), and a bounded cache
//! evicts by exact per-shard LRU. One search per distinct key, identical
//! results for every caller, and the engine's query counter (the
//! paper's daily-allowance concern) stays deterministic. This module
//! keeps what is the query cache's own: the verdict slot beside each
//! result list, the `search` stage timer around the engine call, the
//! snapshot exchange with `teda-store`, and the `cache.*` counter names.
//!
//! # Boundedness
//!
//! A long-running annotation *service* cannot let the memo grow without
//! bound the way an offline corpus run can. [`CacheConfig::capacity`]
//! caps the memoized entries; the shard count follows it (64 shards of
//! 4 entries at the served 256-entry bound, 64 shards when unbounded).
//!
//! Entries never expire by age. **Determinism invariant (hard):** search
//! results are a pure function of `(query, k)` over the corpus, and the
//! service [`clear`](QueryCache::clear)s the memo on every corpus
//! publish, so an entry is never stale and an eviction can only change
//! the *cost* of a lookup (one extra engine call), never its result.
//! Bounded and unbounded caches produce bit-identical annotations.
//!
//! # The verdict slot
//!
//! Each entry also has room for the §5.2.1 [`Verdict`] over its result
//! list, filled on first use through a `OnceLock`. A verdict is a pure
//! function of the results, the classifier and the config, and the
//! batch annotator that owns this cache also owns the classifier and a
//! config fixed at construction, so the slot never holds a verdict
//! another model would not give. A cache hit then costs a lookup, not
//! `k` featurizations and classifications. The slot lives and dies with
//! its results: eviction and [`clear`](QueryCache::clear) drop both
//! together. Snapshots carry results only
//! ([`export_entries`](QueryCache::export_entries)), so a restored entry
//! computes its verdict on its first hit.

use std::sync::{Arc, OnceLock};

pub use teda_memo::CacheStats;
use teda_memo::Memo;
use teda_obs::{Histogram, StageTimer, Stopwatch};
use teda_websim::{SearchEngine, SearchResult};

use crate::annotate::Verdict;

/// Capacity of a [`QueryCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total memoized-entry bound, split evenly across the shards the
    /// cache derives from it (each holds at least one entry). `None` is
    /// unbounded — the right choice for one-shot corpus runs, not for a
    /// long-running service.
    pub capacity: Option<usize>,
}

/// The memoized answer of one `(query, k)` entry: its shared result
/// list and, once some caller has judged it, the §5.2.1 verdict over it.
#[derive(Debug)]
pub(crate) struct Answer {
    results: Arc<[SearchResult]>,
    verdict: OnceLock<Option<Verdict>>,
}

impl Answer {
    fn new(results: Arc<[SearchResult]>) -> Arc<Answer> {
        Arc::new(Answer {
            results,
            verdict: OnceLock::new(),
        })
    }

    /// The memoized result list.
    pub(crate) fn results(&self) -> &Arc<[SearchResult]> {
        &self.results
    }

    /// The verdict over the results: `judge` runs on the first call
    /// only, and every later call (from any thread) returns its answer.
    /// Callers must pass the same pure judge every time.
    pub(crate) fn verdict(
        &self,
        judge: impl FnOnce(&[SearchResult]) -> Option<Verdict>,
    ) -> Option<Verdict> {
        *self.verdict.get_or_init(|| judge(&self.results))
    }
}

/// One exported cache entry, as
/// [`QueryCache::export_entries`]/[`QueryCache::restore_entries`]
/// exchange them with the persistence layer (`teda-store`).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntrySnapshot {
    /// The query text.
    pub query: String,
    /// The `k` the results were requested with.
    pub k: usize,
    /// The memoized result list, shared not copied.
    pub results: Arc<[SearchResult]>,
}

/// A sharded, thread-safe, optionally bounded memo of search-engine
/// responses.
#[derive(Debug)]
pub struct QueryCache {
    memo: Memo<Arc<Answer>>,
    /// `search` stage histogram — the leader's engine call on a miss.
    hist_search: OnceLock<Arc<Histogram>>,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::with_config(CacheConfig::default())
    }
}

impl QueryCache {
    /// Creates a cache bounded as `config` says.
    pub fn with_config(config: CacheConfig) -> Self {
        QueryCache {
            memo: Memo::new(config.capacity),
            hist_search: OnceLock::new(),
        }
    }

    /// Attaches the serving node's observability registry: lookups
    /// record into its `cache_lookup` stage histogram and leader engine
    /// calls into `search` (first attach wins), and the cache's
    /// counters join the node's as `cache.hits`, `cache.misses` and
    /// `cache.evictions`. Timing is observation only — results stay a
    /// pure function of `(query, k)`.
    pub fn attach_obs(&self, obs: &teda_obs::Registry) {
        self.memo
            .register_counters(obs, ["cache.hits", "cache.misses", "cache.evictions"]);
        self.memo
            .time_lookups(obs.histogram(teda_obs::stage::CACHE_LOOKUP));
        let _ = self.hist_search.set(obs.histogram(teda_obs::stage::SEARCH));
    }

    /// The effective total capacity (`None` when unbounded). Rounded up
    /// from the configured value to a multiple of the shard count, since
    /// the bound is enforced per shard.
    pub fn capacity(&self) -> Option<usize> {
        self.memo.capacity()
    }

    /// Returns the memoized results for `(query, k)`, consulting `engine`
    /// once per distinct *live* key across all threads: racing callers of
    /// the same key wait for the first caller's flight; distinct keys
    /// never wait on each other's engine calls; evicted keys are simply
    /// re-searched (same results, one more engine call).
    pub fn get_or_search<E: SearchEngine + ?Sized>(
        &self,
        engine: &E,
        query: &str,
        k: usize,
    ) -> Arc<[SearchResult]> {
        let answer = self.memo.get_or_compute(query, k, || {
            let timer = self.hist_search.get().map(|h| StageTimer::start(h));
            let results = engine.search(query, k).into();
            drop(timer);
            Answer::new(results)
        });
        Arc::clone(answer.results())
    }

    /// The entries of a batch of `(query, k)` keys, in batch order, so
    /// the caller can read or fill each one's verdict slot: the batch
    /// form of [`get_or_search`](Self::get_or_search).
    /// Hits answer from the memo; the distinct keys no thread is
    /// fetching go to `engine` in one
    /// [`search_many`](SearchEngine::search_many) call, each published
    /// as soon as the engine hands it back; keys another thread is
    /// fetching are waited on afterwards, never sent again. Counters
    /// and `cache_lookup` observations are per key, as for a loop of
    /// single lookups, and the batch's engine time is split evenly over
    /// its keys' `search` observations.
    pub(crate) fn get_or_search_many<E: SearchEngine + ?Sized>(
        &self,
        engine: &E,
        keys: &[(&str, usize)],
    ) -> Vec<Arc<Answer>> {
        self.memo.get_or_compute_many(keys, |misses, publish| {
            let hist = self.hist_search.get().filter(|h| h.is_enabled());
            let watch = Stopwatch::started_if(hist.is_some());
            engine.search_many(misses, &mut |j, results| {
                publish(j, Answer::new(results.into()))
            });
            if let Some(hist) = hist {
                let share = watch.elapsed_us() / misses.len() as u64;
                for _ in misses {
                    hist.record(share);
                }
            }
        })
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Number of memoized `(query, k)` entries (in-flight searches not
    /// yet counted).
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Exports every memoized entry's results for persistence
    /// (`teda-store`'s cache snapshot; verdicts are not exported, see
    /// the module doc), sorted by `(query, k)` so snapshots of the same
    /// cache state are byte-identical. A search still in flight has
    /// nothing to persist.
    pub fn export_entries(&self) -> Vec<CacheEntrySnapshot> {
        self.memo
            .ready_entries()
            .into_iter()
            .map(|(query, k, answer)| CacheEntrySnapshot {
                query,
                k,
                results: Arc::clone(answer.results()),
            })
            .collect()
    }

    /// Restores exported entries into this cache. Live entries for the
    /// same `(query, k)` are never overwritten (the running process
    /// knows better than the snapshot), and the capacity bound is
    /// enforced as usual — a snapshot from a larger cache evicts down to
    /// this cache's limit. Hit/miss counters are untouched: restoration
    /// is not traffic. A restored entry starts with an empty verdict
    /// slot.
    ///
    /// Returns the number of entries actually installed.
    pub fn restore_entries(&self, entries: impl IntoIterator<Item = CacheEntrySnapshot>) -> usize {
        entries
            .into_iter()
            .map(|e| self.memo.restore(&e.query, e.k, Answer::new(e.results)))
            .filter(|&installed| installed)
            .count()
    }

    /// Drops all entries, their verdicts with them. The counters keep
    /// counting: they are monotonic, so a scraper never sees a reset.
    pub fn clear(&self) {
        self.memo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Engine that counts calls and answers `k` canned results.
    struct Counting(AtomicUsize);

    impl SearchEngine for Counting {
        fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
            self.0.fetch_add(1, Ordering::Relaxed);
            (0..k)
                .map(|i| SearchResult {
                    url: format!("http://c/{query}/{i}"),
                    title: format!("t{i}"),
                    snippet: format!("{query} snippet {i}"),
                })
                .collect()
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = QueryCache::default();
        let engine = Counting(AtomicUsize::new(0));
        let a = cache.get_or_search(&engine, "melisse", 10);
        let b = cache.get_or_search(&engine, "melisse", 10);
        let c = cache.get_or_search(&engine, "louvre", 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(engine.0.load(Ordering::Relaxed), 2, "one search per key");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                ..CacheStats::default()
            }
        );
        assert!((cache.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), None, "the default stays unbounded");
    }

    #[test]
    fn concurrent_duplicate_queries_search_once() {
        let cache = QueryCache::default();
        let engine = Counting(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for q in ["melisse", "louvre", "bayona"] {
                        let r = cache.get_or_search(&engine, q, 10);
                        assert_eq!(r.len(), 10);
                    }
                });
            }
        });
        assert_eq!(
            engine.0.load(Ordering::Relaxed),
            3,
            "single flight per distinct query"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 21);
    }

    #[test]
    fn distinct_k_is_a_distinct_key() {
        let cache = QueryCache::default();
        let engine = Counting(AtomicUsize::new(0));
        let ten = cache.get_or_search(&engine, "melisse", 10);
        let three = cache.get_or_search(&engine, "melisse", 3);
        assert_eq!(ten.len(), 10);
        assert_eq!(three.len(), 3);
        assert_eq!(cache.stats().misses, 2);
        // both stay independently cached
        assert_eq!(cache.get_or_search(&engine, "melisse", 10).len(), 10);
        assert_eq!(cache.get_or_search(&engine, "melisse", 3).len(), 3);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn clear_drops_entries_and_keeps_counters() {
        let cache = QueryCache::default();
        let engine = Counting(AtomicUsize::new(0));
        cache.get_or_search(&engine, "a", 5);
        cache.get_or_search(&engine, "a", 5);
        let before = cache.stats();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), before, "counters are monotonic");
        cache.get_or_search(&engine, "a", 5);
        assert_eq!(
            engine.0.load(Ordering::Relaxed),
            2,
            "re-searched after clear"
        );
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let cache = QueryCache::with_config(CacheConfig { capacity: Some(2) });
        assert_eq!(cache.capacity(), Some(2));
        let engine = Counting(AtomicUsize::new(0));
        cache.get_or_search(&engine, "a", 1);
        cache.get_or_search(&engine, "b", 1);
        // Touch "a" so "b" is now the LRU entry.
        cache.get_or_search(&engine, "a", 1);
        cache.get_or_search(&engine, "c", 1); // evicts "b"
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // "a" and "c" still hit; "b" re-searches.
        let calls = engine.0.load(Ordering::Relaxed);
        cache.get_or_search(&engine, "a", 1);
        cache.get_or_search(&engine, "c", 1);
        assert_eq!(engine.0.load(Ordering::Relaxed), calls, "a and c cached");
        cache.get_or_search(&engine, "b", 1);
        assert_eq!(engine.0.load(Ordering::Relaxed), calls + 1, "b re-searched");
    }

    #[test]
    fn eviction_never_changes_results() {
        let cache = QueryCache::with_config(CacheConfig { capacity: Some(1) });
        let engine = Counting(AtomicUsize::new(0));
        let first = cache.get_or_search(&engine, "melisse", 5);
        cache.get_or_search(&engine, "louvre", 5); // evicts "melisse"
        let again = cache.get_or_search(&engine, "melisse", 5);
        assert_eq!(first, again, "evict-then-rehit must be bit-identical");
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn capacity_smaller_than_shard_count_clamps_the_shards() {
        // 64 shards over capacity 3 would round the per-shard split up
        // to one entry per shard — 64 entries. The shard count follows
        // the capacity instead (one shard here), so the bound holds
        // exactly.
        let cache = QueryCache::with_config(CacheConfig { capacity: Some(3) });
        assert_eq!(cache.capacity(), Some(3));
        let engine = Counting(AtomicUsize::new(0));
        for i in 0..32 {
            cache.get_or_search(&engine, &format!("q{i}"), 1);
        }
        assert!(
            cache.len() <= 3,
            "cache holds {} entries over a capacity of 3",
            cache.len()
        );
        assert!(cache.stats().evictions >= 29);
    }

    #[test]
    fn export_skips_pending_and_restore_serves_hits() {
        let cache = QueryCache::default();
        let engine = Counting(AtomicUsize::new(0));
        cache.get_or_search(&engine, "melisse", 3);
        cache.get_or_search(&engine, "louvre", 2);
        let exported = cache.export_entries();
        assert_eq!(exported.len(), 2);
        assert_eq!(
            exported
                .iter()
                .map(|e| (e.query.as_str(), e.k))
                .collect::<Vec<_>>(),
            vec![("louvre", 2), ("melisse", 3)],
            "export order is sorted (query, k)"
        );

        let warm = QueryCache::default();
        assert_eq!(warm.restore_entries(exported.clone()), 2);
        let warm_engine = Counting(AtomicUsize::new(0));
        let hit = warm.get_or_search(&warm_engine, "melisse", 3);
        assert_eq!(hit, cache.get_or_search(&engine, "melisse", 3));
        assert_eq!(
            warm_engine.0.load(Ordering::Relaxed),
            0,
            "restored entries must answer without re-searching"
        );
        assert_eq!(warm.stats().hits, 1);
        assert_eq!(warm.stats().misses, 0, "restoration is not traffic");

        // Live entries win over a snapshot replayed on top of them.
        assert_eq!(warm.restore_entries(exported), 0);
    }

    #[test]
    fn restore_respects_capacity() {
        let cache = QueryCache::default();
        let engine = Counting(AtomicUsize::new(0));
        for q in ["a", "b", "c"] {
            cache.get_or_search(&engine, q, 1);
        }
        let exported = cache.export_entries();

        // A smaller cache enforces its own capacity during restore: the
        // first restored entry is the least recently used, so it goes.
        let small = QueryCache::with_config(CacheConfig { capacity: Some(2) });
        assert_eq!(small.restore_entries(exported), 3);
        assert_eq!(small.len(), 2, "restore must respect the capacity bound");
        assert_eq!(small.stats().evictions, 1);
        let counting = Counting(AtomicUsize::new(0));
        small.get_or_search(&counting, "b", 1);
        small.get_or_search(&counting, "c", 1);
        assert_eq!(counting.0.load(Ordering::Relaxed), 0, "b and c restored");
        small.get_or_search(&counting, "a", 1);
        assert_eq!(counting.0.load(Ordering::Relaxed), 1, "a was evicted");
    }

    /// A judge that counts its calls and gives a fixed verdict.
    fn counting_judge(calls: &AtomicUsize) -> impl FnOnce(&[SearchResult]) -> Option<Verdict> + '_ {
        move |results| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some(Verdict {
                etype: teda_kb::EntityType::Museum,
                score: results.len() as f64,
                votes: results.len(),
            })
        }
    }

    #[test]
    fn a_verdict_is_judged_once_per_entry_and_dropped_with_it() {
        let cache = QueryCache::with_config(CacheConfig { capacity: Some(1) });
        let engine = Counting(AtomicUsize::new(0));
        let calls = AtomicUsize::new(0);
        let judge = |cache: &QueryCache, q: &str| {
            cache.get_or_search_many(&engine, &[(q, 3)])[0].verdict(counting_judge(&calls))
        };
        let first = judge(&cache, "melisse");
        assert_eq!(first.map(|v| v.votes), Some(3));
        assert_eq!(judge(&cache, "melisse"), first, "a hit reuses the verdict");
        assert_eq!(calls.load(Ordering::Relaxed), 1, "judged once");

        judge(&cache, "louvre"); // evicts "melisse", verdict and all
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(judge(&cache, "melisse"), first);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "evicted → judged again");

        cache.clear();
        assert_eq!(judge(&cache, "melisse"), first);
        assert_eq!(calls.load(Ordering::Relaxed), 4, "cleared → judged again");

        // Snapshots carry results only: a restored entry is a hit whose
        // verdict is judged on first use.
        let restored = QueryCache::default();
        restored.restore_entries(cache.export_entries());
        let searches = engine.0.load(Ordering::Relaxed);
        assert_eq!(judge(&restored, "melisse"), first);
        assert_eq!(engine.0.load(Ordering::Relaxed), searches, "restored hit");
        assert_eq!(calls.load(Ordering::Relaxed), 5, "restored → judged once");
        assert_eq!(judge(&restored, "melisse"), first);
        assert_eq!(calls.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn every_hit_is_one_lookup_observation() {
        // The histogram's count is the hit count (fast hits record 0 µs
        // untimed, waits record their time); misses record nothing here.
        let obs = teda_obs::Registry::new("node");
        let cache = QueryCache::default();
        cache.attach_obs(&obs);
        let engine = Counting(AtomicUsize::new(0));
        for q in ["a", "b", "a", "a", "b", "c"] {
            cache.get_or_search(&engine, q, 2);
        }
        let lookups = obs.histogram(teda_obs::stage::CACHE_LOOKUP).snapshot();
        assert_eq!(lookups.count(), cache.stats().hits);
        assert_eq!(lookups.count(), 3);
        let searches = obs.histogram(teda_obs::stage::SEARCH).snapshot();
        assert_eq!(searches.count(), cache.stats().misses);
    }

    /// Counts the batches it is sent and the queries in them.
    struct Batching {
        batches: AtomicUsize,
        queries: AtomicUsize,
    }

    impl SearchEngine for Batching {
        fn search(&self, _: &str, _: usize) -> Vec<SearchResult> {
            unreachable!("the batch path sends batches")
        }

        fn search_many(
            &self,
            queries: &[(&str, usize)],
            answer: &mut dyn FnMut(usize, Vec<SearchResult>),
        ) {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.queries.fetch_add(queries.len(), Ordering::Relaxed);
            // Answers in reverse: the order is the engine's to choose.
            for (i, &(query, k)) in queries.iter().enumerate().rev() {
                answer(i, Counting(AtomicUsize::new(0)).search(query, k));
            }
        }
    }

    #[test]
    fn a_batch_sends_its_distinct_misses_once_and_counts_per_key() {
        let obs = teda_obs::Registry::new("node");
        let cache = QueryCache::default();
        cache.attach_obs(&obs);
        let engine = Batching {
            batches: AtomicUsize::new(0),
            queries: AtomicUsize::new(0),
        };
        cache.get_or_search(&Counting(AtomicUsize::new(0)), "a", 2);
        let keys = [("a", 2), ("b", 2), ("c", 2), ("b", 2), ("b", 3)];
        let answers = cache.get_or_search_many(&engine, &keys);
        for (answer, &(query, k)) in answers.iter().zip(&keys) {
            let want = Counting(AtomicUsize::new(0)).search(query, k);
            assert_eq!(answer.results().as_ref(), want.as_slice());
        }
        assert_eq!(engine.batches.load(Ordering::Relaxed), 1);
        assert_eq!(engine.queries.load(Ordering::Relaxed), 3, "b#2, c#2, b#3");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 4,
                ..CacheStats::default()
            },
            "a is a hit, and so is b's repeat"
        );
        assert_eq!(
            obs.histogram(teda_obs::stage::CACHE_LOOKUP)
                .snapshot()
                .count(),
            2
        );
        assert_eq!(obs.histogram(teda_obs::stage::SEARCH).snapshot().count(), 4);

        // A batch of hits sends nothing.
        cache.get_or_search_many(&engine, &keys);
        assert_eq!(engine.batches.load(Ordering::Relaxed), 1);
    }
}
