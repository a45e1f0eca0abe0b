//! `teda-wire` — a line-protocol TCP front-end over
//! [`teda_service::AnnotationService`].
//!
//! Until now the annotator could only be reached by in-process Rust.
//! This crate puts a socket in front of it, the deployment setting
//! web-scale entity-annotation systems assume: many independent
//! clients — interactive lookups, bulk corpus ingesters — sharing one
//! scheduler, one bounded cache, and one metered query allowance.
//!
//! Three pieces (std TCP + threads only, same offline-build constraint
//! as the scheduler — and annotation latency dwarfs syscall overhead,
//! so a thread per connection is the right shape at this scale):
//!
//! * [`protocol`] — the grammar. Newline-delimited frames with
//!   backslash escaping (`\\`, `\n`, `\r`, `\t`), so CSV payloads with
//!   quoted embedded newlines are still one frame per request. Verbs:
//!
//!   ```text
//!   CLIENT <name>            set this connection's ClientId
//!   ANNOTATE <name> <csv>    blocking submit → OK <annotations> | ERR …
//!   TRY <name> <csv>         non-blocking submit (sheds under pressure)
//!   STATS                    service counters incl. per-client lines
//!   BUDGET                   remaining query pool
//!   SEARCH-MANY <n> <k> <q>\t…  scored top-k page ids (exact f64 bits),
//!                            for n ≤ 16 queries at once
//!   FETCH <m> <id>…          url/title/snippet of m ≤ 256 pages by id
//!                            (ids strictly ascending)
//!   SHARD-STATS              shard identity + global corpus stats
//!   STATS JSON               full ServiceStats as one JSON object
//!   METRICS                  Prometheus-style stage histograms
//!   TRACE-DUMP <id>          one completed span tree by trace id
//!   TRACE <id> <request>     run a search verb, ANNOTATE or TRY under trace id
//!   QUIT                     orderly close
//!   ```
//!
//!   Errors are typed ([`WireError`]) and mirror
//!   [`teda_service::Rejection`] one to one: `queue-full`,
//!   `budget-exhausted`, `too-large <need> <budget>`, `shutting-down`,
//!   plus `failed` (worker panic) and `bad-request` (framing/parse).
//! * [`WireServer`] — acceptor thread + one reader thread per
//!   connection, strict request/response, serving either the annotation
//!   service or a search backend. Submissions run as the
//!   connection's [`teda_service::ClientId`], so the scheduler's
//!   deficit-round-robin token buckets meter each wire client
//!   separately: a bulk streamer saturating `ANNOTATE` cannot starve
//!   an interactive client sharing the pool.
//! * [`WireClient`] — the blocking reference client the tests,
//!   `exp_wire`, the cluster router and the examples use. Opt-in
//!   idempotent auto-reconnect: a transport failure on a **read-only**
//!   verb redials once and retries; submissions are never replayed.
//!
//! The search verbs make a wire node a cluster building block: a
//! search-only [`WireServer`] over a shard's backend is the entire
//! shard-server process of `teda-cluster`, and search scores travel
//! as exact IEEE-754 bit patterns so scatter-gather merging can be
//! bit-identical to the single-node index. Ranking and hydration are
//! separate verbs, so a router fetches the fields of the hits it keeps
//! and no others.
//!
//! Determinism invariant (hard, inherited): the `OK` payload of
//! `ANNOTATE`/`TRY` is [`protocol::render_annotations`] of the
//! scheduler's result, which is bit-identical to
//! `BatchAnnotator::annotate_table` on the same table — so wire
//! results compare equal, as strings, to the offline batch path
//! (enforced by `tests/wire.rs` and `exp_wire` on every run).

pub mod client;
pub mod protocol;
pub mod server;

pub use client::WireClient;
pub use protocol::{Reply, Request, SearchHit, ShardInfo, ShardStatsReport, WireError};
pub use server::WireServer;
