//! Query-cache snapshot codec: the warm-start file a restarted service
//! restores its memo from.
//!
//! One section (tag 2) of [`CacheEntrySnapshot`]s: per entry the query
//! text, `k`, and the memoized result list. In-flight (`Pending`)
//! entries never reach this codec: `QueryCache::export_entries` skips
//! them, and a restore installs only `Ready` values, so a snapshot can
//! turn misses into hits but never publish a half-computed result.
//!
//! Tag 1 must never be reused: older files carry an 8-byte entry age
//! after `k` under it. Such a file is refused as [`StoreError::Corrupt`]
//! (a cold start), never misread as the current layout.

use std::path::Path;
use std::sync::Arc;

use teda_core::cache::CacheEntrySnapshot;
use teda_websim::SearchResult;

use crate::format::{
    decode_container, encode_container, put_string, put_u64, sync_dir, write_atomic, Cursor,
    KIND_CACHE,
};
use crate::StoreError;

const SEC_ENTRIES: u32 = 2;

/// Serializes exported cache entries into a snapshot file image.
pub fn encode_cache(entries: &[CacheEntrySnapshot]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, entries.len() as u64);
    for entry in entries {
        put_string(&mut payload, &entry.query);
        put_u64(&mut payload, entry.k as u64);
        put_u64(&mut payload, entry.results.len() as u64);
        for result in entry.results.iter() {
            put_string(&mut payload, &result.url);
            put_string(&mut payload, &result.title);
            put_string(&mut payload, &result.snippet);
        }
    }
    encode_container(KIND_CACHE, &[(SEC_ENTRIES, payload)])
}

/// Deserializes a snapshot file image back into cache entries.
pub fn decode_cache(bytes: &[u8]) -> Result<Vec<CacheEntrySnapshot>, StoreError> {
    let sections = decode_container(bytes, KIND_CACHE)?;
    let [(SEC_ENTRIES, payload)] = sections.as_slice() else {
        return Err(StoreError::Corrupt(
            "cache snapshot must hold exactly one entries section".into(),
        ));
    };
    let mut cur = Cursor::new(payload);
    let n = cur.len_prefix(32, "cache entry count")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let query = cur.string("cache entry query")?;
        let k = usize::try_from(cur.u64("cache entry k")?)
            .map_err(|_| StoreError::Corrupt("cache entry k overflows usize".into()))?;
        let n_results = cur.len_prefix(24, "cache result count")?;
        let mut results = Vec::with_capacity(n_results);
        for _ in 0..n_results {
            results.push(SearchResult {
                url: cur.string("result url")?,
                title: cur.string("result title")?,
                snippet: cur.string("result snippet")?,
            });
        }
        entries.push(CacheEntrySnapshot {
            query,
            k,
            results: Arc::from(results),
        });
    }
    if !cur.is_empty() {
        return Err(StoreError::Corrupt(
            "trailing bytes after the last cache entry".into(),
        ));
    }
    Ok(entries)
}

/// Writes a cache snapshot atomically (temp file + rename).
pub fn save_cache_snapshot(path: &Path, entries: &[CacheEntrySnapshot]) -> Result<(), StoreError> {
    write_atomic(path, &encode_cache(entries))
}

/// Removes the cache snapshot at `path` ahead of a corpus change, so a
/// crash after the change can never restore entries computed over the
/// old corpus (a restore may only turn misses into hits). The unlink is
/// made durable by a directory sync before this returns; when no file
/// exists there is nothing to sync.
pub fn remove_cache_snapshot(path: &Path) -> Result<(), StoreError> {
    match std::fs::remove_file(path) {
        Ok(()) => sync_dir(path),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(StoreError::io(path, e)),
    }
}

/// Loads a cache snapshot. [`StoreError::Missing`] means no snapshot
/// was ever written — a cold start, not damage.
pub fn load_cache_snapshot(path: &Path) -> Result<Vec<CacheEntrySnapshot>, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
    decode_cache(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(query: &str, k: usize) -> CacheEntrySnapshot {
        let results: Vec<SearchResult> = (0..k)
            .map(|i| SearchResult {
                url: format!("http://{query}/{i}"),
                title: format!("t{i}"),
                snippet: format!("{query} snippet {i}"),
            })
            .collect();
        CacheEntrySnapshot {
            query: query.into(),
            k,
            results: Arc::from(results),
        }
    }

    #[test]
    fn cache_entries_round_trip() {
        let entries = vec![entry("louvre", 2), entry("melisse", 3)];
        let decoded = decode_cache(&encode_cache(&entries)).expect("own bytes decode");
        assert_eq!(decoded, entries);
        // Empty snapshots are legal (a service that never got a query).
        assert_eq!(decode_cache(&encode_cache(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn corrupt_cache_snapshots_are_typed_errors() {
        let bytes = encode_cache(&[entry("q", 1)]);
        assert!(decode_cache(&bytes[..bytes.len() - 3]).is_err());
        let mut flipped = bytes.clone();
        flipped[30] ^= 0xff;
        assert!(decode_cache(&flipped).is_err());
    }
}
