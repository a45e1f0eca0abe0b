//! Service accounting: the node's counters, latency percentiles and
//! stage distributions, and per-client admission counts.

use std::time::Duration;

use teda_core::cache::CacheStats;

/// One pipeline stage's latency distribution, summarized from its
/// log-bucketed `teda-obs` histogram: counts are exact, quantiles and
/// max are bucket upper bounds (within 2× of the true value).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Canonical stage name (see [`teda_obs::stage`]).
    pub stage: String,
    /// Recorded observations.
    pub count: u64,
    /// Median, µs (bucket upper bound).
    pub p50_us: u64,
    /// 99th percentile, µs (bucket upper bound).
    pub p99_us: u64,
    /// Upper bound of the slowest observation, µs.
    pub max_us: u64,
}

/// Latency percentiles over the completed requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median submit-to-completion latency.
    pub p50: Duration,
    /// 99th-percentile submit-to-completion latency.
    pub p99: Duration,
    /// Worst observed latency.
    pub max: Duration,
}

impl LatencySummary {
    /// Computes the summary from raw per-request latencies (unsorted).
    /// Percentiles use the nearest-rank method; empty input is all-zero.
    pub fn from_latencies(latencies: &[Duration]) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let rank = |p: f64| {
            // Nearest-rank: ceil(p · n) clamped to [1, n], 1-based.
            let n = sorted.len() as f64;
            let r = (p * n).ceil().max(1.0) as usize;
            sorted[r.min(sorted.len()) - 1]
        };
        LatencySummary {
            p50: rank(0.50),
            p99: rank(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// One client's admission-control accounting (see [`crate::ClientId`]
/// and the fairness layer in `crates/service/src/fairness.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// The client's name (`"anonymous"` for unattributed submissions).
    pub client: String,
    /// Submission attempts by this client, accepted or not.
    pub submitted: u64,
    /// Requests of this client that ran to completion.
    pub completed: u64,
    /// Requests of this client whose worker panicked.
    pub failed: u64,
    /// Requests of this client shed or rejected (any reason).
    pub shed: u64,
    /// Query tokens this client has drawn from the shared pool —
    /// direct reservations plus deficit-round-robin grants.
    pub granted: u64,
    /// Tokens currently parked in the client's bucket (granted toward
    /// registered demand but not yet spent).
    pub bucket: u64,
    /// Submitters of this client currently parked on a dry pool.
    pub waiting: u64,
}

/// A point-in-time report of the service counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Every counter of the node's `teda-obs` registry, in name order:
    /// the scheduler's (`submitted`, `completed`, `shed_queue`, …), the
    /// query cache's `cache.*` and the geocoding memo's `geocode.*`,
    /// and an attached cluster router's `shard_fanouts`,
    /// `partial_results` and `replica_retries`. Counters are monotonic;
    /// [`counter`](Self::counter) reads one by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Bytes of the mmap'd corpus snapshot behind the live backend.
    /// The three mapping gauges are 0 only for a service started
    /// without a live corpus; they describe the *current* mapping — a
    /// full fold replaces it and they restart (a tier merge regroups
    /// the overlays in memory and keeps the mapping).
    pub mapped_bytes: u64,
    /// Heap bytes of the mapping's side tables (term lookup, page-span
    /// table) — the resident cost of serving off the mapping, always
    /// far below `mapped_bytes` because page text is never copied.
    pub resident_bytes: u64,
    /// Page-text hydrations served from the mapping (one per hit whose
    /// fields were materialized for display).
    pub page_hydrations: u64,
    /// Requests admitted but not yet completed (queued or running).
    /// The completed-only latency summary cannot see these; a wedged
    /// request shows up here *while* it is wedged.
    pub inflight: u64,
    /// Age of the oldest in-flight request, in milliseconds; 0 when
    /// nothing is in flight.
    pub inflight_oldest_ms: u64,
    /// Submit-to-completion latency percentiles, summarized from the
    /// `request` stage histogram (all completions since start; values
    /// are log-bucket upper bounds). All-zero with telemetry off.
    pub latency: LatencySummary,
    /// Per-stage latency distributions (queue wait, annotate, snapshot,
    /// …), sorted by stage name. Empty until a stage records.
    pub stages: Vec<StageStats>,
    /// Per-client admission accounting, sorted by client name. Clients
    /// appear once they have submitted (or registered) at least once.
    pub clients: Vec<ClientStats>,
}

impl ServiceStats {
    /// The count of the counter `name`; 0 when no such counter is
    /// registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, count)| count)
    }

    /// The counters of one client, if it has been seen.
    pub fn client(&self, name: &str) -> Option<&ClientStats> {
        self.clients.iter().find(|c| c.client == name)
    }

    /// The distribution of one pipeline stage, if it has recorded.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Shed + rejected requests.
    pub fn shed(&self) -> u64 {
        self.counter("shed_queue") + self.counter("shed_budget") + self.counter("rejected_oversize")
    }

    /// Fraction of submission attempts that were shed, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        match self.counter("submitted") {
            0 => 0.0,
            submitted => self.shed() as f64 / submitted as f64,
        }
    }

    /// Query-cache hit rate of the underlying engine, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        CacheStats {
            hits: self.counter("cache.hits"),
            misses: self.counter("cache.misses"),
            ..CacheStats::default()
        }
        .hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_latencies_are_zero() {
        let s = LatencySummary::from_latencies(&[]);
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = LatencySummary::from_latencies(&ms);
        assert_eq!(s.p50, Duration::from_millis(50));
        assert_eq!(s.p99, Duration::from_millis(99));
        assert_eq!(s.max, Duration::from_millis(100));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencySummary::from_latencies(&[Duration::from_millis(7)]);
        assert_eq!(s.p50, Duration::from_millis(7));
        assert_eq!(s.p99, Duration::from_millis(7));
        assert_eq!(s.max, Duration::from_millis(7));
    }

    #[test]
    fn shed_rate_math() {
        let stats = ServiceStats {
            counters: vec![
                ("completed", 7),
                ("shed_budget", 1),
                ("shed_queue", 2),
                ("submitted", 10),
            ],
            ..ServiceStats::default()
        };
        assert_eq!(stats.shed(), 3);
        assert!((stats.shed_rate() - 0.3).abs() < 1e-12);
        assert_eq!(ServiceStats::default().shed_rate(), 0.0);
    }
}
