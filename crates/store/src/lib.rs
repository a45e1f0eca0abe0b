//! `teda-store` — persistence for the annotation stack: versioned,
//! checksummed snapshots of the search index and the query cache, plus
//! an incremental delta journal so the corpus can grow and shrink
//! without a full rebuild.
//!
//! Until now every service restart paid the full cold start: rebuild
//! the `InvertedIndex` over the whole synthetic Web and rewarm the
//! query memo from zero — exactly the operational gap production table
//! annotators close by treating the index as a durable, incrementally
//! updatable artifact. This crate is that durability layer:
//!
//! * [`format`](mod@format) — the shared on-disk container: `TEDASTOR` magic,
//!   format version, file kind, and length-prefixed sections each
//!   protected by a CRC-32. Every read is bounds-checked; corrupt,
//!   truncated or version-skewed bytes surface as a typed
//!   [`StoreError`], never a panic — snapshot files are untrusted
//!   input.
//! * [`corpus_snapshot`] — serializes a
//!   [`WebCorpus`](teda_websim::WebCorpus) (page store + index parts)
//!   such that the loaded index is **field-identical** to the one that
//!   was saved: term ids, posting order, and every BM25 input travel as
//!   exact bit patterns, so every query's top-k — ties included — is
//!   bit-identical to the freshly built index.
//! * [`delta`] — `add_pages` / `remove_pages` journaled as append-only
//!   segment files over a base snapshot. Replay applies the operations
//!   in journal order and re-indexes with the deterministic sharded
//!   build; [`CorpusStore::compact`] folds base + deltas into a new
//!   snapshot **byte-identical** to a full sequential rebuild of the
//!   same logical corpus (the argument rides on the `build_sharded`
//!   merge proof: both sides reduce to `WebCorpus::from_pages` on the
//!   same page list, and the codec is a pure function of the corpus).
//! * [`mapped`] — serves queries straight off the mmap'd snapshot
//!   file: [`MappedSnapshot`] defers per-section CRC verification to
//!   first touch and [`ViewBackend`] walks postings in place and
//!   hydrates page text lazily per hit, so cold start is O(sections)
//!   and peak RSS tracks what queries touch, not corpus size.
//! * [`cache_snapshot`] — persists
//!   [`QueryCache`](teda_core::cache::QueryCache) entries with their
//!   TTL clocks rebased (in-flight entries skipped), so a restarted
//!   service answers its first queries from the warm memo instead of
//!   re-spending the search allowance.
//! * [`CorpusStore`] — the directory-level API:
//!   [`open_or_build`](CorpusStore::open_or_build) is the fast path
//!   (load the snapshot, replay any deltas, fall back to a fresh build
//!   on *any* corruption), writes are temp-file + atomic rename, and
//!   stale `.tmp` leftovers from a crash between write and rename are
//!   swept at open.
//!
//! Determinism invariant (hard, extended to disk): `load(save(c))`
//! changes no query result bit; `compact` and a from-scratch rebuild of
//! the same logical corpus produce byte-identical snapshot files;
//! cache restore can only turn misses into hits, never change a hit's
//! value. Enforced by `tests/store.rs` and `exp_store` on every run.

pub mod cache_snapshot;
pub mod corpus_snapshot;
pub mod delta;
pub mod format;
pub mod mapped;
pub mod shard;
mod store;

use std::path::Path;

pub use cache_snapshot::{load_cache_snapshot, save_cache_snapshot};
pub use corpus_snapshot::SnapshotBytes;
pub use delta::{BaseId, DeltaOp, SegmentPayload};
pub use mapped::{MapStats, MappedSnapshot, ViewBackend};
pub use shard::{shard_dir_name, ShardManifest, MANIFEST_FILE};
pub use store::{
    CompactionReport, CorpusStore, Loaded, MappedLoad, OpenOutcome, OpenReport, SegmentedLoad,
    TierPolicy, CACHE_FILE, SNAPSHOT_FILE,
};

/// Why a store operation failed. Splits "nothing persisted yet"
/// ([`Missing`](StoreError::Missing)) from every corruption flavour so
/// callers can distinguish a cold start from a damaged store — both
/// fall back to a rebuild, but only the latter is worth reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No snapshot exists at the path (a cold start, not a failure).
    Missing(std::path::PathBuf),
    /// An I/O operation failed (path and rendered `io::Error`).
    Io {
        /// The file the operation touched.
        path: std::path::PathBuf,
        /// The rendered `std::io::Error`.
        error: String,
    },
    /// The file does not start with the `TEDASTOR` magic.
    BadMagic,
    /// The file was written by a different format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The file is a valid store file of the wrong kind (e.g. a cache
    /// snapshot where a corpus snapshot was expected).
    WrongKind {
        /// Kind found in the header.
        found: u32,
        /// The kind the caller asked for.
        expected: u32,
    },
    /// The input ended before a field it promised.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's payload does not match its CRC-32.
    ChecksumMismatch {
        /// The tag of the failing section.
        section: u32,
    },
    /// Structurally invalid content behind a valid checksum (forged or
    /// hand-edited bytes): bad counts, bad UTF-8, index invariant
    /// violations.
    Corrupt(String),
    /// The operation needs a configured store directory and none was
    /// given (e.g. a `SNAPSHOT` wire request against a service started
    /// without `store_dir`).
    NotConfigured,
}

impl StoreError {
    /// Wraps an `io::Error`, keeping `NotFound` distinct so callers can
    /// tell a cold start from real I/O trouble.
    pub fn io(path: &Path, error: std::io::Error) -> Self {
        if error.kind() == std::io::ErrorKind::NotFound {
            StoreError::Missing(path.to_path_buf())
        } else {
            StoreError::Io {
                path: path.to_path_buf(),
                error: error.to_string(),
            }
        }
    }

    /// Whether the error means "nothing persisted yet" rather than
    /// "something persisted is damaged".
    pub fn is_missing(&self) -> bool {
        matches!(self, StoreError::Missing(_))
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Missing(path) => write!(f, "no snapshot at {}", path.display()),
            StoreError::Io { path, error } => write!(f, "i/o on {}: {error}", path.display()),
            StoreError::BadMagic => write!(f, "not a teda-store file (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "format version {found} (this build supports {supported})"
                )
            }
            StoreError::WrongKind { found, expected } => {
                write!(f, "store file kind {found} where {expected} was expected")
            }
            StoreError::Truncated { context } => write!(f, "truncated while reading {context}"),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt store file: {msg}"),
            StoreError::NotConfigured => write!(f, "no store directory configured"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Removes stale `*.tmp` files under `dir` — the leftovers of a crash
/// between an atomic write's temp-file flush and its rename. Run at
/// every store open (and by the service for its cache snapshot
/// directory) so an interrupted snapshot can never be mistaken for, or
/// block, a real one. Returns how many leftovers were swept; a missing
/// directory sweeps nothing.
pub fn clean_stale_tmps(dir: &Path) -> Result<usize, StoreError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(StoreError::io(dir, e)),
    };
    let mut swept = 0;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "tmp") {
            std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
            swept += 1;
        }
    }
    Ok(swept)
}
