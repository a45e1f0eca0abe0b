//! `teda-ledger` — the serving benchmark.
//!
//! Four workloads drive the annotation service over loopback TCP with a
//! seeded stream of 25-row POI tables, closed-loop from two client
//! connections against a two-worker service. An untraced run reports the
//! end-to-end metrics; a traced run (`--trace 1`) reports the per-layer
//! ledger: where a request's wall time goes, from CSV parse to rendered
//! reply, with a replay that must add up and must match the offline
//! annotator bit for bit. See `README.md` next to this package.

pub mod catalogue;
pub mod fixture;
pub mod json;
pub mod load;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
