//! `teda-cluster` — the sharded scatter-gather serving tier.
//!
//! A single node serves the whole corpus from one index (heap-loaded or
//! mmap'd). This crate splits that corpus across N shard processes and
//! puts a stateless router in front, with one non-negotiable contract:
//! **the cluster's answer is bit-identical to the single node's** — the
//! same page ids, the same `f64` score bits, the same order, at every
//! `(query, k)`. The router passes the exact same conformance oracle
//! (`tests/backend_conformance.rs`) as every single-node backend.
//!
//! Three pieces:
//!
//! * [`partition_corpus`] — the deterministic partitioner: a stable
//!   hash of the page id ([`shard_of`]) assigns every page to a shard,
//!   and each shard image is written as an ordinary
//!   [`CorpusStore`](teda_store::CorpusStore) directory plus a
//!   [`ShardManifest`](teda_store::ShardManifest) carrying the *global*
//!   BM25 statistics (document count, exact average-length bits, and
//!   every local term's global document frequency).
//! * [`ShardServer`] / [`ShardBackend`] — one shard process: opens its
//!   image (mapped or heap), scores with the manifest's global
//!   statistics so every local score equals the global score bit for
//!   bit, and serves `SEARCH-MANY` (scored ids) / `FETCH` (page fields
//!   by id) / `SHARD-STATS` over the wire protocol.
//! * [`ClusterRouter`] — the stateless router: fans each query to all
//!   shards over pooled connections, merges the per-shard top-`k` under
//!   the one shared comparator ([`teda_websim::scoring::merge_topk`]),
//!   and fails over across read-only replicas with bounded
//!   retry-and-backoff. A whole replica group down is a typed
//!   [`ClusterError::PartialResults`] naming the dead shard — never a
//!   panic, never a silent wrong answer. It implements
//!   [`SearchBackend`](teda_websim::SearchBackend), so the annotation
//!   engine runs over a cluster unchanged, and sends a table's batch of
//!   cache misses as one `SEARCH-MANY` frame of scored ids per shard
//!   group, then one `FETCH` per group for the merged winners it holds.
//!
//! Why the merge is exact (and not just approximate): any document in
//! the global top-`k` beats all but fewer than `k` documents globally,
//! hence fewer than `k` in its own shard — so it is in its shard's
//! local top-`k`, and flatten-sort-truncate over the local lists
//! recovers the global list exactly. See `src/README.md` for the full
//! determinism argument.

pub mod error;
pub mod partition;
pub mod router;
pub mod shard;

pub use error::ClusterError;
pub use partition::{build_shard, partition_corpus, partition_pages, shard_of, write_partition};
pub use router::{ClusterRouter, RouterConfig};
pub use shard::{ShardBackend, ShardServer};
