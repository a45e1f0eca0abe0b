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
//! The lookup, the single flight and the LRU eviction are
//! [`teda_memo::Memo`], shared with `teda-core`'s query cache and
//! snippet-class memo; this module keeps the address key, the one
//! capacity bound and the `geocode.*` counter names.

use std::sync::Arc;

use teda_memo::{CacheStats, Memo};

use crate::gazetteer::LocationId;
use crate::geocoder::Geocoder;

/// Addresses a [`GeocodeCache`] remembers, at most, so a service
/// running for days cannot grow it without limit. An eviction only
/// costs an extra geocoder call.
pub const GEO_MEMO_CAPACITY: usize = 65_536;

/// A sharded, thread-safe memo of geocoder responses, keyed by the raw
/// address string and bounded to [`GEO_MEMO_CAPACITY`] addresses.
///
/// A one-shot corpus run holds one entry per *distinct* address, far
/// below the bound. Past it, the least recently used address of a shard
/// is evicted; the geocoder is a pure function of the address, so an
/// eviction never changes a candidate set.
#[derive(Debug)]
pub struct GeocodeCache {
    memo: Memo<Arc<[LocationId]>>,
}

impl Default for GeocodeCache {
    fn default() -> Self {
        GeocodeCache {
            memo: Memo::new(Some(GEO_MEMO_CAPACITY)),
        }
    }
}

impl GeocodeCache {
    /// Registers the memo's counters on the serving node's
    /// observability registry as `geocode.hits`, `geocode.misses` and
    /// `geocode.evictions`.
    pub fn attach_obs(&self, obs: &teda_obs::Registry) {
        self.memo
            .register_counters(obs, ["geocode.hits", "geocode.misses", "geocode.evictions"]);
    }

    /// Returns the memoized candidate set for `address`, consulting
    /// `geocoder` exactly once per distinct live address across all
    /// threads.
    pub fn get_or_geocode<G: Geocoder + ?Sized>(
        &self,
        geocoder: &G,
        address: &str,
    ) -> Arc<[LocationId]> {
        self.memo
            .get_or_compute(address, 0, || geocoder.geocode(address).into())
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Number of memoized addresses.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Drops all entries. The counters keep counting: they are
    /// monotonic, so a scraper never sees a reset.
    pub fn clear(&self) {
        self.memo.clear();
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
        assert_eq!(cache.memo.capacity(), Some(GEO_MEMO_CAPACITY));
    }

    #[test]
    fn bounded_memo_evicts_but_never_changes_candidates() {
        let gc = geocoder();
        let cache = GeocodeCache {
            memo: Memo::new(Some(2)),
        };
        let direct_gc = geocoder();
        let addresses = [
            "Paris",
            "Washington",
            "Paris",
            "College Park, GA",
            "Washington",
        ];
        for addr in addresses {
            let direct = direct_gc.geocode(addr);
            assert_eq!(
                &*cache.get_or_geocode(&gc, addr),
                &direct[..],
                "eviction changed candidates: {addr}"
            );
        }
        // "College Park, GA" evicted the least recent "Washington",
        // which had to be geocoded again and evicted "Paris".
        assert_eq!(gc.query_count(), 4);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn memoized_candidates_match_direct_geocoding() {
        let gc = geocoder();
        let cache = GeocodeCache::default();
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
        let cache = Arc::new(GeocodeCache::default());
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
