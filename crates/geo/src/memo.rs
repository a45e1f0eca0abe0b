//! Batch-aware geocoding: a sharded, single-flight memo of
//! `address → candidate locations`.
//!
//! Spatial disambiguation (§5.2.2) geocodes every address cell, and a
//! table corpus repeats addresses the same way it repeats entity names —
//! the same street across listings, the same city column value down a
//! table. [`GeocodeCache`] is the `QueryCache` trick applied to the
//! geocoder: distinct addresses are geocoded once per corpus, duplicate
//! addresses are answered from the memo, and concurrent workers racing
//! on the *same* address share one geocoder call (single flight) while
//! distinct addresses never wait on each other.
//!
//! Determinism: the simulated geocoder is a pure function of the address
//! string (latency aside), so memoization changes the number of geocoder
//! round-trips — the §6.4 cost — never a candidate set.
//!
//! The single-flight machinery — [`Flight`], [`Slot`], shard routing,
//! leader execution — lives in [`teda_memo`], shared with `teda-core`'s query cache; this module
//! keeps only the geocoding-specific parts: the flat address map and the
//! flush-the-shard eviction policy.

use std::collections::HashMap;
use std::sync::Arc;

use teda_memo::{lead, CacheStats, Flight, Shards, Slot};
use teda_obs::Counter;

use crate::gazetteer::LocationId;
use crate::geocoder::Geocoder;

/// The memoized value: one shared candidate set per address.
type Candidates = Arc<[LocationId]>;

/// A sharded, thread-safe memo of geocoder responses, keyed by the raw
/// address string.
///
/// [`new`](Self::new) is unbounded — right for a one-shot corpus run,
/// which holds at most one entry per *distinct* address and then drops
/// the whole memo. A long-running service should use
/// [`bounded`](Self::bounded): when a shard fills, it is flushed
/// (cheap wholesale reset — addresses are cheap to re-geocode and the
/// memo's value is within-burst deduplication, so LRU bookkeeping buys
/// little here). Flushing only ever costs extra geocoder calls; the
/// geocoder is a pure function of the address, so candidates never
/// change.
#[derive(Debug)]
pub struct GeocodeCache {
    shards: Shards<HashMap<String, Slot<Candidates>>>,
    /// `Ready` entries allowed per shard before it is flushed;
    /// `usize::MAX` when unbounded.
    per_shard_capacity: usize,
    /// Addresses answered from the memo (geocoder calls saved).
    hits: Arc<Counter>,
    /// Addresses that went to the geocoder.
    misses: Arc<Counter>,
    /// Entries dropped by shard flushes of a bounded memo.
    evictions: Arc<Counter>,
}

impl Default for GeocodeCache {
    fn default() -> Self {
        GeocodeCache::new(16)
    }
}

impl GeocodeCache {
    /// Creates an unbounded cache with `shards` lock shards (rounded up
    /// to 1).
    pub fn new(shards: usize) -> Self {
        GeocodeCache::with_capacity(shards, usize::MAX)
    }

    /// Creates a cache bounded to ~`capacity` memoized addresses, split
    /// across `shards` (clamped so the split cannot inflate the bound).
    pub fn bounded(shards: usize, capacity: usize) -> Self {
        let n = shards.clamp(1, capacity.max(1));
        GeocodeCache::with_capacity(n, capacity.div_ceil(n).max(1))
    }

    fn with_capacity(shards: usize, per_shard_capacity: usize) -> Self {
        GeocodeCache {
            shards: Shards::new(shards),
            per_shard_capacity,
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
        }
    }

    /// Registers the memo's counters on the serving node's
    /// observability registry as `geocode.hits`, `geocode.misses` and
    /// `geocode.evictions`.
    pub fn attach_obs(&self, obs: &teda_obs::Registry) {
        obs.register_counter("geocode.hits", &self.hits);
        obs.register_counter("geocode.misses", &self.misses);
        obs.register_counter("geocode.evictions", &self.evictions);
    }

    /// The effective total capacity (`None` when unbounded).
    pub fn capacity(&self) -> Option<usize> {
        if self.per_shard_capacity == usize::MAX {
            None
        } else {
            Some(self.per_shard_capacity * self.shards.len())
        }
    }

    /// Returns the memoized candidate set for `address`, consulting
    /// `geocoder` exactly once per distinct address across all threads.
    pub fn get_or_geocode<G: Geocoder + ?Sized>(
        &self,
        geocoder: &G,
        address: &str,
    ) -> Arc<[LocationId]> {
        loop {
            let flight = {
                let mut map = self.shards.lock(address.as_bytes());
                match map.get(address) {
                    Some(Slot::Ready(cands)) => {
                        self.hits.inc();
                        return Arc::clone(cands);
                    }
                    Some(Slot::Pending(flight)) => Arc::clone(flight),
                    None => {
                        self.misses.inc();
                        let flight = Flight::new();
                        map.insert(address.to_owned(), Slot::Pending(Arc::clone(&flight)));
                        drop(map);
                        // Leader: geocode outside the shard lock; on
                        // unwind the slot is removed so followers retry.
                        return lead(
                            || geocoder.geocode(address).into(),
                            |cands| self.resolve(address, &flight, cands),
                        );
                    }
                }
            };
            if let Some(cands) = flight.wait() {
                self.hits.inc();
                return cands;
            }
        }
    }

    /// Publishes a flight's outcome if the slot still holds this flight,
    /// flushing the shard first when the capacity bound is reached
    /// (in-flight entries survive the flush).
    fn resolve(&self, address: &str, flight: &Arc<Flight<Candidates>>, cands: Option<&Candidates>) {
        let mut map = self.shards.lock(address.as_bytes());
        let held = map.get(address).is_some_and(|slot| slot.holds(flight));
        if held {
            match cands {
                Some(c) => {
                    let ready = map.values().filter(|s| s.is_ready()).count();
                    if ready >= self.per_shard_capacity {
                        map.retain(|_, slot| !slot.is_ready());
                        self.evictions.add(ready as u64);
                    }
                    map.insert(address.to_owned(), Slot::Ready(Arc::clone(c)));
                }
                None => {
                    map.remove(address);
                }
            }
        }
        drop(map);
        flight.finish(cands.map(Arc::clone));
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Number of memoized addresses.
    pub fn len(&self) -> usize {
        let mut total = 0;
        self.shards
            .for_each(|map| total += map.values().filter(|slot| slot.is_ready()).count());
        total
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries. The counters keep counting: they are
    /// monotonic, so a scraper never sees a reset.
    pub fn clear(&self) {
        self.shards.for_each(|map| map.clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gazetteer::Gazetteer;
    use crate::geocoder::SimGeocoder;

    fn geocoder() -> SimGeocoder {
        SimGeocoder::instant(Arc::new(Gazetteer::figure7()))
    }

    #[test]
    fn distinct_addresses_geocode_once() {
        let gc = geocoder();
        let cache = GeocodeCache::default();
        let a = cache.get_or_geocode(&gc, "Paris");
        let b = cache.get_or_geocode(&gc, "Paris");
        let c = cache.get_or_geocode(&gc, "Washington");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(gc.query_count(), 2, "one geocoder call per address");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                ..CacheStats::default()
            }
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), None, "new() stays unbounded");
    }

    #[test]
    fn bounded_memo_flushes_but_never_changes_candidates() {
        let gc = geocoder();
        let cache = GeocodeCache::bounded(1, 2);
        assert_eq!(cache.capacity(), Some(2));
        let addresses = ["Paris", "Washington", "College Park, GA", "Paris"];
        for addr in addresses {
            let direct = gc.geocode(addr);
            assert_eq!(
                &*cache.get_or_geocode(&gc, addr),
                &direct[..],
                "flush changed candidates: {addr}"
            );
        }
        assert!(cache.stats().evictions > 0, "capacity 2 must flush");
        assert!(cache.len() <= 2, "bound exceeded: {}", cache.len());
    }

    #[test]
    fn memoized_candidates_match_direct_geocoding() {
        let gc = geocoder();
        let cache = GeocodeCache::new(4);
        for addr in [
            "1600 Pennsylvania Avenue",
            "Paris",
            "College Park, GA",
            "nowhere at all",
        ] {
            let direct = gc.geocode(addr);
            let memod = cache.get_or_geocode(&gc, addr);
            assert_eq!(&*memod, &direct[..], "memo changed candidates: {addr}");
            // and the memoized re-read is identical too
            assert_eq!(&*cache.get_or_geocode(&gc, addr), &direct[..]);
        }
    }

    #[test]
    fn concurrent_duplicate_addresses_single_flight() {
        let gc = Arc::new(geocoder());
        let cache = Arc::new(GeocodeCache::new(8));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let gc = Arc::clone(&gc);
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for addr in ["Paris", "Washington", "College Park, GA"] {
                        cache.get_or_geocode(gc.as_ref(), addr);
                    }
                });
            }
        });
        assert_eq!(gc.query_count(), 3, "single flight per distinct address");
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 21);
    }

    #[test]
    fn clear_forces_regeocoding() {
        let gc = geocoder();
        let cache = GeocodeCache::default();
        cache.get_or_geocode(&gc, "Paris");
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_geocode(&gc, "Paris");
        assert_eq!(gc.query_count(), 2);
        assert_eq!(cache.stats().misses, 2, "clear keeps the counters");
    }
}
