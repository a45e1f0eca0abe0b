//! The per-node metric registry: named event counters and stage
//! histograms, the completed trace ring, and the deterministic trace-id
//! counter, with Prometheus-style exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::hist::{bucket_bounds, HistSnapshot, Histogram, BUCKETS};
use crate::trace::{static_name, TraceCtx, TraceRing};

/// How many completed traces a registry remembers.
pub const TRACE_RING_CAPACITY: usize = 256;

/// Canonical pipeline stage names — one histogram each, so dashboards
/// and tests agree on spelling.
pub mod stage {
    pub const QUEUE_WAIT: &str = "queue_wait";
    pub const CACHE_LOOKUP: &str = "cache_lookup";
    pub const SEARCH: &str = "search";
    pub const ANNOTATE: &str = "annotate";
    pub const REQUEST: &str = "request";
    pub const SHARD_SCATTER: &str = "shard_scatter";
    pub const MERGE: &str = "merge";
    pub const PAGE_HYDRATION: &str = "page_hydration";
    pub const SNAPSHOT: &str = "snapshot";
    pub const COMPACTION: &str = "compaction";
}

/// A monotonic event counter: one `AtomicU64`, bumped with one relaxed
/// add. It never goes down, so a scraper never sees a reset.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The count so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One node's observability surface. Cheap to share (`Arc`); a no-op
/// registry hands out disabled histograms and disabled trace contexts,
/// so instrumented code is written once and costs a branch when
/// telemetry is off. Counters count on a no-op registry too: they are
/// the node's accounting (requests, sheds, cache hits), not timing.
pub struct Registry {
    enabled: bool,
    /// The node label, `&'static` so every trace can carry it without
    /// a copy ([`static_name`]).
    node: &'static str,
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
    traces: Arc<TraceRing>,
    next_trace_id: AtomicU64,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// A recording registry for the named node.
    pub fn new(node: &str) -> Arc<Registry> {
        Arc::new(Registry {
            enabled: true,
            node: static_name(node),
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            traces: Arc::new(TraceRing::new(TRACE_RING_CAPACITY)),
            next_trace_id: AtomicU64::new(1),
        })
    }

    /// A disabled registry: histograms never record and trace contexts
    /// are inert; only counters count.
    pub fn noop(node: &str) -> Arc<Registry> {
        Arc::new(Registry {
            enabled: false,
            node: static_name(node),
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            traces: Arc::new(TraceRing::new(1)),
            next_trace_id: AtomicU64::new(1),
        })
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The node label exposition carries.
    pub fn node(&self) -> &str {
        self.node
    }

    /// Get-or-register the counter `name`. Callers cache the `Arc` —
    /// the lock here is for registration, not the count path.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(counters.entry(name).or_default())
    }

    /// Registers a counter its owner created, replacing any counter
    /// registered under `name` before: how a component that counts
    /// before it joins a node (a cache, a cluster router) exposes its
    /// counts there.
    pub fn register_counter(&self, name: &'static str, counter: &Arc<Counter>) {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        counters.insert(name, Arc::clone(counter));
    }

    /// Every registered counter's count, in name order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        counters.iter().map(|(&name, c)| (name, c.get())).collect()
    }

    /// Get-or-create the stage histogram. Callers cache the `Arc` —
    /// the lock here is for registration, not the record path. On a
    /// disabled registry the returned histogram is disabled too.
    pub fn histogram(&self, stage: &str) -> Arc<Histogram> {
        let mut hists = self.hists.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(hists.entry(stage.to_string()).or_insert_with(|| {
            Arc::new(if self.enabled {
                Histogram::new()
            } else {
                Histogram::disabled()
            })
        }))
    }

    /// Starts a trace with the next deterministic request-scoped id
    /// (1, 2, 3, … per registry). Inert on a disabled registry.
    pub fn start_trace(&self, root_name: &'static str) -> TraceCtx {
        if !self.enabled {
            return TraceCtx::disabled();
        }
        self.trace_from(self.reserve_trace_id(), root_name, Instant::now())
    }

    /// Takes the next deterministic trace id without starting a trace,
    /// for a caller that starts it later, on another thread
    /// ([`trace_from`](Self::trace_from)).
    pub fn reserve_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a trace under an id minted elsewhere — the wire server
    /// uses this for `TRACE <id>`-prefixed requests so the shard's tree
    /// joins the router's under one id.
    pub fn trace_with_id(&self, id: u64, root_name: &'static str) -> TraceCtx {
        self.trace_from(id, root_name, Instant::now())
    }

    /// Starts a trace under `id` whose root began at `origin`, an
    /// instant the caller already read. Inert on a disabled registry.
    pub fn trace_from(&self, id: u64, root_name: &'static str, origin: Instant) -> TraceCtx {
        if !self.enabled {
            return TraceCtx::disabled();
        }
        TraceCtx::new(id, self.node, root_name, origin, Arc::clone(&self.traces))
    }

    /// Every completed trace with this id, grafted into one tree
    /// ([`TraceRing::get`](crate::trace::TraceRing::get)).
    pub fn trace(&self, id: u64) -> Option<crate::trace::Trace> {
        self.traces.get(id)
    }

    /// Ids of every completed trace, oldest first.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.traces.ids()
    }

    /// Point-in-time snapshots of every registered histogram, in
    /// stable (sorted-name) order.
    pub fn snapshots(&self) -> Vec<(String, HistSnapshot)> {
        let hists = self.hists.lock().unwrap_or_else(PoisonError::into_inner);
        hists
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect()
    }

    /// Prometheus-style text exposition: one `teda_stage_us` histogram
    /// family with a `stage` label per registered histogram, non-empty
    /// buckets as cumulative `_bucket` samples plus the `+Inf` bucket
    /// and `_count`; the completed-trace gauge; and one
    /// `teda_counter_total` family with a `counter` label per
    /// registered counter. Ordering is stable (names sorted, buckets
    /// ascending), so two scrapes of identical state render
    /// identically.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;

        let snaps = self.snapshots();
        let mut out = String::new();
        out.push_str("# TYPE teda_stage_us histogram\n");
        for (name, snap) in &snaps {
            let node = &self.node;
            let mut cumulative = 0u64;
            for (i, &count) in snap.buckets.iter().enumerate() {
                cumulative = cumulative.saturating_add(count);
                if count == 0 {
                    continue;
                }
                let (_, upper) = bucket_bounds(i);
                let le = if i == BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    upper.to_string()
                };
                writeln!(
                    out,
                    "teda_stage_us_bucket{{node=\"{node}\",stage=\"{name}\",le=\"{le}\"}} {cumulative}"
                )
                .expect("string write");
            }
            writeln!(
                out,
                "teda_stage_us_bucket{{node=\"{node}\",stage=\"{name}\",le=\"+Inf\"}} {cumulative}\n\
                 teda_stage_us_count{{node=\"{node}\",stage=\"{name}\"}} {cumulative}"
            )
            .expect("string write");
        }
        writeln!(
            out,
            "# TYPE teda_traces_completed gauge\n\
             teda_traces_completed{{node=\"{}\"}} {}",
            self.node,
            self.traces.completed()
        )
        .expect("string write");
        out.push_str("# TYPE teda_counter_total counter\n");
        for (name, count) in self.counters() {
            writeln!(
                out,
                "teda_counter_total{{node=\"{}\",counter=\"{name}\"}} {count}",
                self.node
            )
            .expect("string write");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_get_or_create_and_shared() {
        let reg = Registry::new("test");
        let a = reg.histogram(stage::ANNOTATE);
        let b = reg.histogram(stage::ANNOTATE);
        a.record(10);
        assert_eq!(b.snapshot().count(), 1, "same underlying histogram");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn counters_are_get_or_register_and_count_when_disabled() {
        let reg = Registry::noop("off");
        let a = reg.counter("b.hits");
        a.add(2);
        reg.counter("b.hits").inc();
        assert_eq!(a.get(), 3, "same underlying counter");
        let owned = Arc::new(Counter::default());
        owned.add(5);
        reg.register_counter("a.misses", &owned);
        assert_eq!(reg.counters(), vec![("a.misses", 5), ("b.hits", 3)]);
        reg.register_counter("b.hits", &owned);
        assert_eq!(reg.counters(), vec![("a.misses", 5), ("b.hits", 5)]);
    }

    #[test]
    fn noop_registry_is_fully_inert() {
        let reg = Registry::noop("off");
        assert!(!reg.is_enabled());
        let h = reg.histogram(stage::SEARCH);
        h.record(99);
        assert!(h.snapshot().is_empty());
        let ctx = reg.start_trace("req");
        assert!(!ctx.is_enabled());
        ctx.finish();
        assert!(reg.trace_ids().is_empty());
    }

    #[test]
    fn trace_ids_are_deterministic_per_registry() {
        let reg = Registry::new("n");
        let ids: Vec<u64> = (0..3)
            .map(|_| {
                let ctx = reg.start_trace("r");
                let id = ctx.id().unwrap();
                ctx.finish();
                id
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(reg.trace_ids(), vec![1, 2, 3]);
        assert!(reg.trace(2).is_some());
        assert!(reg.trace(99).is_none());
    }

    #[test]
    fn prometheus_rendering_is_stable_and_ordered() {
        let reg = Registry::new("node-a");
        reg.histogram(stage::SEARCH).record(5);
        reg.histogram(stage::ANNOTATE).record(1000);
        reg.histogram(stage::ANNOTATE).record(3);
        let a = reg.to_prometheus();
        let b = reg.to_prometheus();
        assert_eq!(a, b, "identical state must render identically");
        let annotate_pos = a.find("stage=\"annotate\"").unwrap();
        let search_pos = a.find("stage=\"search\"").unwrap();
        assert!(annotate_pos < search_pos, "stages must be sorted");
        assert!(a.contains("teda_stage_us_count{node=\"node-a\",stage=\"annotate\"} 2"));
        assert!(a.contains("le=\"+Inf\""));
        reg.counter("shed").add(4);
        reg.counter("completed").inc();
        let c = reg.to_prometheus();
        assert!(c.ends_with(
            "# TYPE teda_counter_total counter\n\
             teda_counter_total{node=\"node-a\",counter=\"completed\"} 1\n\
             teda_counter_total{node=\"node-a\",counter=\"shed\"} 4\n"
        ));
    }
}
