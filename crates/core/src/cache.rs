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
//! Misses are *single-flight per key*: the first worker to miss a
//! `(query, k)` installs an in-flight marker, releases the shard lock,
//! and searches; workers racing on the *same* key block on that flight
//! (not on the shard), while workers on *different* keys of the same
//! shard proceed immediately. One search per distinct key, identical
//! results for every caller, and the engine's query counter (the
//! paper's daily-allowance concern) stays deterministic — without
//! serializing unrelated queries behind a slow engine call.
//!
//! # Boundedness
//!
//! A long-running annotation *service* cannot let the memo grow without
//! bound the way an offline corpus run can. [`CacheConfig`] adds two
//! knobs:
//!
//! * **capacity** — a cap on memoized entries, split evenly across the
//!   shards and enforced per shard with exact LRU eviction (shards are
//!   small — `capacity / shards` entries — so the eviction scan is a
//!   short, bounded critical section; an intrusive LRU list would buy
//!   nothing at this size);
//! * **TTL** — entries older than the deadline answer as misses and are
//!   re-searched, so a service that runs for days does not serve
//!   arbitrarily stale results.
//!
//! **Determinism invariant (hard):** search results are a pure function
//! of `(query, k)`, so an eviction or expiry can only change the *cost*
//! of a lookup (one extra engine call), never its result. Bounded and
//! unbounded caches produce bit-identical annotations.
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
//! its results: eviction, TTL expiry and [`clear`](QueryCache::clear)
//! drop both together. Snapshots carry results only
//! ([`export_entries`](QueryCache::export_entries)), so a restored entry
//! computes its verdict on its first hit.
//!
//! The single-flight machinery itself — [`Flight`], [`Slot`], shard
//! routing, leader execution — lives in [`teda_memo`], shared with `teda-geo`'s geocoding memo; this module
//! keeps only what is specific to the query cache: the per-`k` entry
//! layout, the LRU + TTL eviction policy, and the [`SearchEngine`]
//! integration.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub use teda_memo::CacheStats;
use teda_memo::{lead, Flight, Shards, Slot};
use teda_obs::{Counter, Histogram, StageTimer, Stopwatch};
use teda_websim::{SearchEngine, SearchResult};

use crate::annotate::Verdict;

/// Capacity/TTL/sharding knobs of a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Lock shards (rounded up to 1). More shards, less contention.
    pub shards: usize,
    /// Total memoized-entry bound, split evenly across shards (each shard
    /// holds at most `ceil(capacity / shards)`, minimum 1). `None` is
    /// unbounded — the right choice for one-shot corpus runs, not for a
    /// long-running service.
    pub capacity: Option<usize>,
    /// Entries older than this answer as misses and are re-searched.
    /// `None` never expires.
    pub ttl: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 64,
            capacity: None,
            ttl: None,
        }
    }
}

/// The memoized value of one `(query, k)` entry: its shared result
/// list and, once some caller has judged it, the §5.2.1 verdict over it.
#[derive(Debug)]
pub(crate) struct Memo {
    results: Arc<[SearchResult]>,
    verdict: OnceLock<Option<Verdict>>,
}

impl Memo {
    fn new(results: Arc<[SearchResult]>) -> Arc<Memo> {
        Arc::new(Memo {
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

/// What a slot holds.
type Memoized = Arc<Memo>;

/// One exported cache entry, as
/// [`QueryCache::export_entries`]/[`QueryCache::restore_entries`]
/// exchange them with the persistence layer (`teda-store`).
///
/// `age` is the entry's elapsed residency at export time — the portable
/// form of the TTL clock. An `Instant` cannot cross a process boundary;
/// an age can, and the restoring cache turns it back into "inserted
/// `age` ago on *my* clock".
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntrySnapshot {
    /// The query text.
    pub query: String,
    /// The `k` the results were requested with.
    pub k: usize,
    /// The memoized result list, shared not copied.
    pub results: Arc<[SearchResult]>,
    /// Time since the entry was published, at export time.
    pub age: Duration,
}

/// One memo entry under a query key.
#[derive(Debug)]
struct Entry {
    k: usize,
    slot: Slot<Memoized>,
    /// Shard tick at the last hit (LRU recency). Pending entries carry
    /// their install tick but are never eviction victims.
    last_used: u64,
    /// Publish time, read only when a TTL is configured.
    inserted: Instant,
}

/// One shard: query text → per-k entries, plus the shard-local LRU tick
/// and the count of `Ready` entries the capacity bound applies to.
///
/// Keyed by the query string alone so a hit needs no key allocation;
/// `k` rarely takes more than one value per run, so the inner list is a
/// linear scan over one or two entries.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, Vec<Entry>>,
    tick: u64,
    ready: usize,
}

/// A sharded, thread-safe, optionally bounded memo of search-engine
/// responses.
#[derive(Debug)]
pub struct QueryCache {
    shards: Shards<Shard>,
    /// `Ready` entries allowed per shard; `usize::MAX` when unbounded.
    per_shard_capacity: usize,
    ttl: Option<Duration>,
    /// Queries answered from the cache (searches saved).
    hits: Arc<Counter>,
    /// Queries that went to the engine.
    misses: Arc<Counter>,
    /// Entries evicted to honour the capacity bound.
    evictions: Arc<Counter>,
    /// Lookups that found an entry past its TTL (counted in `misses`
    /// too).
    expired: Arc<Counter>,
    /// `cache_lookup` stage histogram — time from lookup to a memoized
    /// answer (fast-path hits and follower waits), one observation per
    /// hit. Only waits are timed: a hit that took its shard lock at the
    /// first try holds it for one map probe, far below the histogram's
    /// 1 µs resolution, and records 0 µs without reading the clock.
    /// Unattached (the default) records nothing; see
    /// [`attach_obs`](Self::attach_obs).
    hist_lookup: OnceLock<Arc<Histogram>>,
    /// `search` stage histogram — the leader's engine call on a miss.
    hist_search: OnceLock<Arc<Histogram>>,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::with_config(CacheConfig::default())
    }
}

impl QueryCache {
    /// Creates an unbounded cache with `shards` lock shards (rounded up
    /// to 1) — the PR-1 constructor, kept for offline corpus runs.
    pub fn new(shards: usize) -> Self {
        QueryCache::with_config(CacheConfig {
            shards,
            ..CacheConfig::default()
        })
    }

    /// Creates a cache from the full knob set. When a capacity is set,
    /// the shard count is clamped to it so the per-shard split never
    /// inflates the bound (`capacity: 8` with 64 shards would otherwise
    /// round up to one entry *per shard* — 64 entries).
    pub fn with_config(config: CacheConfig) -> Self {
        let n = match config.capacity {
            Some(cap) => config.shards.clamp(1, cap.max(1)),
            None => config.shards.max(1),
        };
        let per_shard_capacity = match config.capacity {
            Some(cap) => cap.div_ceil(n).max(1),
            None => usize::MAX,
        };
        QueryCache {
            shards: Shards::new(n),
            per_shard_capacity,
            ttl: config.ttl,
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
            expired: Arc::default(),
            hist_lookup: OnceLock::new(),
            hist_search: OnceLock::new(),
        }
    }

    /// Attaches the serving node's observability registry: lookups
    /// record into its `cache_lookup` stage histogram and leader engine
    /// calls into `search` (first attach wins), and the cache's
    /// counters join the node's as `cache.hits`, `cache.misses`,
    /// `cache.evictions` and `cache.expired`. Timing is observation
    /// only — results stay a pure function of `(query, k)`.
    pub fn attach_obs(&self, obs: &teda_obs::Registry) {
        obs.register_counter("cache.hits", &self.hits);
        obs.register_counter("cache.misses", &self.misses);
        obs.register_counter("cache.evictions", &self.evictions);
        obs.register_counter("cache.expired", &self.expired);
        let _ = self
            .hist_lookup
            .set(obs.histogram(teda_obs::stage::CACHE_LOOKUP));
        let _ = self.hist_search.set(obs.histogram(teda_obs::stage::SEARCH));
    }

    /// A stopwatch running only when the `cache_lookup` histogram is
    /// attached and recording.
    fn lookup_watch(&self) -> Stopwatch {
        Stopwatch::started_if(self.hist_lookup.get().is_some_and(|h| h.is_enabled()))
    }

    /// Starts `watch` unless it runs already: the lookup is about to
    /// wait.
    fn time_wait(&self, watch: &mut Stopwatch) {
        if !watch.is_running() {
            *watch = self.lookup_watch();
        }
    }

    /// Records one hit: the waited time when `watch` runs, else 0 µs
    /// (no-op when unattached or disabled).
    fn record_lookup(&self, watch: Stopwatch) {
        if let Some(h) = self.hist_lookup.get() {
            h.record(watch.elapsed_us());
        }
    }

    /// The effective total capacity (`None` when unbounded). Rounded up
    /// from the configured value to a multiple of the shard count, since
    /// the bound is enforced per shard.
    pub fn capacity(&self) -> Option<usize> {
        if self.per_shard_capacity == usize::MAX {
            None
        } else {
            Some(self.per_shard_capacity * self.shards.len())
        }
    }

    /// Returns the memoized results for `(query, k)`, consulting `engine`
    /// once per distinct *live* key across all threads: racing callers of
    /// the same key wait for the first caller's flight; distinct keys
    /// never wait on each other's engine calls; evicted or expired keys
    /// are simply re-searched (same results, one more engine call).
    pub fn get_or_search<E: SearchEngine + ?Sized>(
        &self,
        engine: &E,
        query: &str,
        k: usize,
    ) -> Arc<[SearchResult]> {
        Arc::clone(self.get_or_search_memo(engine, query, k).results())
    }

    /// [`get_or_search`](Self::get_or_search), answering with the whole
    /// entry, so the caller can read or fill its verdict slot.
    pub(crate) fn get_or_search_memo<E: SearchEngine + ?Sized>(
        &self,
        engine: &E,
        query: &str,
        k: usize,
    ) -> Memoized {
        /// What the shard held for the key, borrow-free.
        enum Found {
            Hit(Memoized),
            Stale,
            InFlight(Arc<Flight<Memoized>>),
            Missing,
        }
        let mut watch = Stopwatch::started_if(false);
        loop {
            let flight = {
                let mut shard = match self.shards.try_lock(query.as_bytes()) {
                    Some(shard) => shard,
                    None => {
                        self.time_wait(&mut watch);
                        self.shards.lock(query.as_bytes())
                    }
                };
                shard.tick += 1;
                let tick = shard.tick;
                let found = match shard
                    .map
                    .get_mut(query)
                    .and_then(|entries| entries.iter_mut().find(|e| e.k == k))
                {
                    Some(entry) => match &entry.slot {
                        Slot::Ready(memo) => {
                            if self.ttl.is_some_and(|ttl| entry.inserted.elapsed() >= ttl) {
                                Found::Stale
                            } else {
                                let memo = Arc::clone(memo);
                                entry.last_used = tick;
                                Found::Hit(memo)
                            }
                        }
                        Slot::Pending(flight) => Found::InFlight(Arc::clone(flight)),
                    },
                    None => Found::Missing,
                };
                match found {
                    Found::Hit(memo) => {
                        self.hits.inc();
                        drop(shard);
                        self.record_lookup(watch);
                        return memo;
                    }
                    Found::InFlight(flight) => flight,
                    stale_or_missing => {
                        // First caller (or the entry aged out): install
                        // the flight, then search outside the shard lock.
                        if matches!(stale_or_missing, Found::Stale) {
                            self.expired.inc();
                            remove_entry(&mut shard, query, k);
                        }
                        self.misses.inc();
                        let flight = install_flight(&mut shard, query, k, tick);
                        drop(shard);
                        // Leader: run the engine call outside the shard
                        // lock; on unwind the slot is removed so
                        // followers retry instead of hanging.
                        return lead(
                            || {
                                let timer = self.hist_search.get().map(|h| StageTimer::start(h));
                                let results = engine.search(query, k).into();
                                drop(timer);
                                Memo::new(results)
                            },
                            |memo| self.resolve_slot(query, k, &flight, memo),
                        );
                    }
                }
            };
            // Follower: wait for the leader's result (a hit — the memo
            // saved this engine call). `None` means the leader unwound;
            // loop and race to become the new leader.
            self.time_wait(&mut watch);
            if let Some(memo) = flight.wait() {
                self.hits.inc();
                self.record_lookup(watch);
                return memo;
            }
        }
    }

    /// Publishes a flight's outcome: `Some` marks the slot ready (and
    /// enforces the capacity bound), `None` (abandon) removes it. Only
    /// touches the slot if it still holds this very flight (a concurrent
    /// `clear` may have dropped it).
    fn resolve_slot(
        &self,
        query: &str,
        k: usize,
        flight: &Arc<Flight<Memoized>>,
        memo: Option<&Memoized>,
    ) {
        let mut shard = self.shards.lock(query.as_bytes());
        shard.tick += 1;
        let tick = shard.tick;
        let held = shard.map.get_mut(query).and_then(|entries| {
            entries
                .iter_mut()
                .find(|e| e.k == k && e.slot.holds(flight))
        });
        if let Some(entry) = held {
            match memo {
                Some(m) => {
                    entry.slot = Slot::Ready(Arc::clone(m));
                    entry.last_used = tick;
                    entry.inserted = Instant::now();
                    shard.ready += 1;
                    while shard.ready > self.per_shard_capacity {
                        if !evict_lru(&mut shard) {
                            break;
                        }
                        self.evictions.inc();
                    }
                }
                None => remove_entry(&mut shard, query, k),
            }
        }
        drop(shard);
        flight.finish(memo.map(Arc::clone));
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            expired: self.expired.get(),
        }
    }

    /// Number of memoized `(query, k)` entries (in-flight searches not
    /// yet counted).
    pub fn len(&self) -> usize {
        let mut total = 0;
        self.shards.for_each(|s| total += s.ready);
        total
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports every `Ready` entry's results for persistence
    /// (`teda-store`'s cache snapshot; verdicts are not exported, see
    /// the module doc): in-flight (`Pending`) slots are skipped — a
    /// search that has not finished has nothing to persist — and
    /// entries already past the TTL are skipped too. Each entry carries
    /// its **age** (time since publish), so a restore into another
    /// process can rebase the TTL clock instead of granting stale
    /// entries a fresh lease on life.
    ///
    /// Entries are sorted by `(query, k)` so snapshots of the same
    /// cache state are byte-identical regardless of shard iteration
    /// order.
    pub fn export_entries(&self) -> Vec<CacheEntrySnapshot> {
        let mut out = Vec::new();
        self.shards.for_each(|shard| {
            // teda-lint: allow(nondeterministic_iteration) -- collected across shards, then sorted by (query, k) before return
            for (query, entries) in shard.map.iter() {
                for e in entries {
                    let Slot::Ready(memo) = &e.slot else {
                        continue;
                    };
                    let age = e.inserted.elapsed();
                    if self.ttl.is_some_and(|ttl| age >= ttl) {
                        continue;
                    }
                    out.push(CacheEntrySnapshot {
                        query: query.clone(),
                        k: e.k,
                        results: Arc::clone(memo.results()),
                        age,
                    });
                }
            }
        });
        out.sort_by(|a, b| a.query.cmp(&b.query).then(a.k.cmp(&b.k)));
        out
    }

    /// Restores exported entries into this cache, rebasing each TTL
    /// clock: an entry restored with age `a` expires `ttl − a` from
    /// now, exactly as if the process had never restarted. Entries
    /// whose age already exceeds this cache's TTL are dropped, live
    /// entries for the same `(query, k)` are never overwritten (the
    /// running process knows better than the snapshot), and the
    /// capacity bound is enforced as usual — a snapshot from a larger
    /// cache evicts down to this cache's limit. Hit/miss counters are
    /// untouched: restoration is not traffic. A restored entry starts
    /// with an empty verdict slot.
    ///
    /// Returns the number of entries actually installed.
    pub fn restore_entries(&self, entries: impl IntoIterator<Item = CacheEntrySnapshot>) -> usize {
        let mut installed = 0usize;
        for entry in entries {
            if self.ttl.is_some_and(|ttl| entry.age >= ttl) {
                continue;
            }
            // Rebase the publish instant. If the age reaches back past
            // what `Instant` can represent here, the entry is ancient:
            // drop it when a TTL could ever expire it, otherwise age is
            // irrelevant and "now" is as good as any instant.
            let inserted = match Instant::now().checked_sub(entry.age) {
                Some(at) => at,
                None if self.ttl.is_some() => continue,
                None => Instant::now(),
            };
            let mut shard = self.shards.lock(entry.query.as_bytes());
            shard.tick += 1;
            let tick = shard.tick;
            let slots = shard.map.entry(entry.query).or_default();
            if slots.iter().any(|e| e.k == entry.k) {
                continue; // live state wins over the snapshot
            }
            slots.push(Entry {
                k: entry.k,
                slot: Slot::Ready(Memo::new(entry.results)),
                last_used: tick,
                inserted,
            });
            shard.ready += 1;
            installed += 1;
            while shard.ready > self.per_shard_capacity {
                if !evict_lru(&mut shard) {
                    break;
                }
                self.evictions.inc();
            }
        }
        installed
    }

    /// Drops all entries, their verdicts with them. The counters keep
    /// counting: they are monotonic, so a scraper never sees a reset.
    pub fn clear(&self) {
        self.shards.for_each(|shard| {
            shard.map.clear();
            shard.ready = 0;
            shard.tick = 0;
        });
    }
}

/// Installs a fresh `Pending` entry for `(query, k)` and returns its
/// flight. Caller must have verified the key is absent.
fn install_flight(shard: &mut Shard, query: &str, k: usize, tick: u64) -> Arc<Flight<Memoized>> {
    let flight = Flight::new();
    shard.map.entry(query.to_owned()).or_default().push(Entry {
        k,
        slot: Slot::Pending(Arc::clone(&flight)),
        last_used: tick,
        inserted: Instant::now(),
    });
    flight
}

/// Removes the `(query, k)` entry if present, maintaining the ready count
/// and dropping emptied key lists.
fn remove_entry(shard: &mut Shard, query: &str, k: usize) {
    if let Some(entries) = shard.map.get_mut(query) {
        if let Some(pos) = entries.iter().position(|e| e.k == k) {
            if matches!(entries[pos].slot, Slot::Ready(_)) {
                shard.ready -= 1;
            }
            entries.remove(pos);
            if entries.is_empty() {
                shard.map.remove(query);
            }
        }
    }
}

/// Evicts the least-recently-used `Ready` entry of the shard. Returns
/// `false` when no `Ready` entry exists (all Pending — nothing evictable).
fn evict_lru(shard: &mut Shard) -> bool {
    let mut victim: Option<(&String, usize, u64)> = None;
    // teda-lint: allow(nondeterministic_iteration) -- last_used ticks are unique (one per shard op), so the strict-< minimum is order-independent
    for (q, entries) in shard.map.iter() {
        for e in entries {
            if matches!(e.slot, Slot::Ready(_))
                && victim.is_none_or(|(_, _, used)| e.last_used < used)
            {
                victim = Some((q, e.k, e.last_used));
            }
        }
    }
    let Some((q, k, _)) = victim.map(|(q, k, u)| (q.clone(), k, u)) else {
        return false;
    };
    remove_entry(shard, &q, k);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

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
        let cache = QueryCache::new(8);
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
        assert_eq!(cache.capacity(), None, "new() stays unbounded");
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
        let cache = QueryCache::new(4);
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
    fn concurrent_duplicate_queries_search_once() {
        let cache = Arc::new(QueryCache::new(16));
        let engine = Arc::new(Counting(AtomicUsize::new(0)));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    for q in ["melisse", "louvre", "bayona"] {
                        let r = cache.get_or_search(engine.as_ref(), q, 10);
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
    fn distinct_keys_do_not_serialize_behind_a_slow_search() {
        use std::time::{Duration, Instant};

        /// Engine whose every search takes a fixed wall-clock time.
        struct Slow;
        impl SearchEngine for Slow {
            fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
                std::thread::sleep(Duration::from_millis(120));
                (0..k)
                    .map(|i| SearchResult {
                        url: format!("http://s/{query}/{i}"),
                        title: "t".into(),
                        snippet: "s".into(),
                    })
                    .collect()
            }
        }

        // One shard: both keys *must* share it. Misses still overlap
        // because the engine call runs outside the shard lock.
        let cache = Arc::new(QueryCache::new(1));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for q in ["alpha", "beta"] {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    assert_eq!(cache.get_or_search(&Slow, q, 2).len(), 2);
                });
            }
        });
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(220),
            "two distinct slow searches serialized: {elapsed:?}"
        );
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn abandoned_flight_lets_the_next_caller_retry() {
        /// Engine that panics on its first call only.
        struct PanicsOnce(AtomicUsize);
        impl SearchEngine for PanicsOnce {
            fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
                if self.0.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("engine exploded");
                }
                (0..k)
                    .map(|i| SearchResult {
                        url: format!("http://p/{query}/{i}"),
                        title: "t".into(),
                        snippet: "s".into(),
                    })
                    .collect()
            }
        }

        let cache = QueryCache::new(4);
        let engine = PanicsOnce(AtomicUsize::new(0));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_search(&engine, "boom", 3)
        }));
        assert!(unwound.is_err(), "first call must propagate the panic");
        // The abandoned flight's slot was removed — the retry searches
        // again instead of hanging on a dead Pending marker.
        assert_eq!(cache.get_or_search(&engine, "boom", 3).len(), 3);
        assert_eq!(cache.stats().misses, 2, "both attempts were misses");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let cache = QueryCache::with_config(CacheConfig {
            shards: 1,
            capacity: Some(2),
            ttl: None,
        });
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
        let cache = QueryCache::with_config(CacheConfig {
            shards: 1,
            capacity: Some(1),
            ttl: None,
        });
        let engine = Counting(AtomicUsize::new(0));
        let first = cache.get_or_search(&engine, "melisse", 5);
        cache.get_or_search(&engine, "louvre", 5); // evicts "melisse"
        let again = cache.get_or_search(&engine, "melisse", 5);
        assert_eq!(first, again, "evict-then-rehit must be bit-identical");
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn ttl_expires_entries() {
        let cache = QueryCache::with_config(CacheConfig {
            shards: 4,
            capacity: None,
            ttl: Some(Duration::from_millis(40)),
        });
        let engine = Counting(AtomicUsize::new(0));
        let fresh = cache.get_or_search(&engine, "melisse", 3);
        assert_eq!(
            cache.get_or_search(&engine, "melisse", 3),
            fresh,
            "within TTL: a hit"
        );
        assert_eq!(engine.0.load(Ordering::Relaxed), 1);
        std::thread::sleep(Duration::from_millis(120));
        let stale_rehit = cache.get_or_search(&engine, "melisse", 3);
        assert_eq!(engine.0.load(Ordering::Relaxed), 2, "expired → re-search");
        assert_eq!(stale_rehit, fresh, "expiry never changes the result");
        let stats = cache.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn capacity_smaller_than_shard_count_clamps_the_shards() {
        // 64 shards over capacity 3 would round the per-shard split up
        // to one entry per shard — 64 entries. The constructor clamps
        // the shard count instead, so the bound holds exactly.
        let cache = QueryCache::with_config(CacheConfig {
            shards: 64,
            capacity: Some(3),
            ttl: None,
        });
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
    fn zero_ttl_expires_immediately_but_never_changes_results() {
        let cache = QueryCache::with_config(CacheConfig {
            shards: 2,
            capacity: None,
            ttl: Some(Duration::ZERO),
        });
        let engine = Counting(AtomicUsize::new(0));
        let first = cache.get_or_search(&engine, "melisse", 3);
        let second = cache.get_or_search(&engine, "melisse", 3);
        assert_eq!(first, second, "expiry must never change a result");
        assert_eq!(
            engine.0.load(Ordering::Relaxed),
            2,
            "ttl == 0 answers every lookup as a miss"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.expired, 1, "the re-lookup found and dropped a corpse");
        // Nothing survives export either: every entry is already stale.
        assert!(cache.export_entries().is_empty());
    }

    #[test]
    fn export_skips_pending_and_restore_serves_hits() {
        let cache = QueryCache::new(4);
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

        let warm = QueryCache::new(4);
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
    fn restore_respects_ttl_and_capacity() {
        let cache = QueryCache::new(2);
        let engine = Counting(AtomicUsize::new(0));
        for q in ["a", "b", "c"] {
            cache.get_or_search(&engine, q, 1);
        }
        let mut exported = cache.export_entries();
        // Pretend "a" sat in the cache for an hour before the export.
        exported
            .iter_mut()
            .find(|e| e.query == "a")
            .expect("exported")
            .age = Duration::from_secs(3600);

        // A TTL-bearing cache drops the entry that is already past its
        // lease; the fresh ones land with their clocks rebased.
        let ttl_cache = QueryCache::with_config(CacheConfig {
            shards: 2,
            capacity: None,
            ttl: Some(Duration::from_secs(60)),
        });
        assert_eq!(ttl_cache.restore_entries(exported.clone()), 2);
        let counting = Counting(AtomicUsize::new(0));
        ttl_cache.get_or_search(&counting, "b", 1);
        ttl_cache.get_or_search(&counting, "c", 1);
        assert_eq!(counting.0.load(Ordering::Relaxed), 0, "b and c restored");
        ttl_cache.get_or_search(&counting, "a", 1);
        assert_eq!(counting.0.load(Ordering::Relaxed), 1, "a was already stale");

        // A smaller cache enforces its own capacity during restore.
        let small = QueryCache::with_config(CacheConfig {
            shards: 1,
            capacity: Some(1),
            ttl: None,
        });
        small.restore_entries(exported);
        assert!(small.len() <= 1, "restore must respect the capacity bound");
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
        let cache = QueryCache::with_config(CacheConfig {
            shards: 1,
            capacity: Some(1),
            ttl: None,
        });
        let engine = Counting(AtomicUsize::new(0));
        let calls = AtomicUsize::new(0);
        let judge = |cache: &QueryCache, q: &str| {
            cache
                .get_or_search_memo(&engine, q, 3)
                .verdict(counting_judge(&calls))
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
        let restored = QueryCache::new(1);
        restored.restore_entries(cache.export_entries());
        let searches = engine.0.load(Ordering::Relaxed);
        assert_eq!(judge(&restored, "melisse"), first);
        assert_eq!(engine.0.load(Ordering::Relaxed), searches, "restored hit");
        assert_eq!(calls.load(Ordering::Relaxed), 5, "restored → judged once");
        assert_eq!(judge(&restored, "melisse"), first);
        assert_eq!(calls.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn lookups_read_no_clock_unless_they_can_record() {
        let cache = QueryCache::new(1);
        assert!(!cache.lookup_watch().is_running(), "unattached");
        cache.attach_obs(&teda_obs::Registry::noop("off"));
        assert!(!cache.lookup_watch().is_running(), "disabled histogram");

        let live = QueryCache::new(1);
        live.attach_obs(&teda_obs::Registry::new("on"));
        assert!(live.lookup_watch().is_running(), "recording histogram");
    }

    #[test]
    fn every_hit_is_one_lookup_observation() {
        // The histogram's count is the hit count (fast hits record 0 µs
        // untimed, waits record their time); misses record nothing here.
        let obs = teda_obs::Registry::new("node");
        let cache = QueryCache::new(4);
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

    #[test]
    fn pending_flights_are_never_evicted() {
        use std::sync::mpsc;

        /// Engine whose first search blocks until released.
        struct Gated {
            release: Mutex<Option<mpsc::Receiver<()>>>,
        }
        impl SearchEngine for Gated {
            fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
                if query == "slow" {
                    if let Some(rx) = self.release.lock().unwrap().take() {
                        rx.recv().unwrap();
                    }
                }
                (0..k)
                    .map(|i| SearchResult {
                        url: format!("http://g/{query}/{i}"),
                        title: "t".into(),
                        snippet: "s".into(),
                    })
                    .collect()
            }
        }

        let (tx, rx) = mpsc::channel();
        let engine = Arc::new(Gated {
            release: Mutex::new(Some(rx)),
        });
        let cache = Arc::new(QueryCache::with_config(CacheConfig {
            shards: 1,
            capacity: Some(1),
            ttl: None,
        }));
        std::thread::scope(|s| {
            let c = Arc::clone(&cache);
            let e = Arc::clone(&engine);
            let slow = s.spawn(move || c.get_or_search(e.as_ref(), "slow", 2));
            // While "slow" is in flight, fill the shard past capacity.
            std::thread::sleep(Duration::from_millis(30));
            for q in ["a", "b", "c"] {
                cache.get_or_search(engine.as_ref(), q, 2);
            }
            tx.send(()).unwrap();
            let r = slow.join().expect("slow search panicked");
            assert_eq!(r.len(), 2, "in-flight search survived eviction pressure");
        });
        assert!(cache.len() <= 1 + 1, "capacity still honoured after flight");
        assert!(cache.stats().evictions >= 2);
    }
}
