//! The benchmark's fixed vocabulary: the four workloads and every metric
//! it reports, with units, direction and (end-to-end only) the regression
//! bound. `BENCHMARK.json` at the repository root restates this catalogue;
//! a test keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the serving stack sees. Measured with bench-side
/// tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("req_per_s", "req/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p95_ms", "ms", Lower, 0.25),
    e2e("f1_micro", "fraction", Higher, 0.02),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// The per-layer ledger of a traced run. Stage times are microseconds per
/// request unless the name carries a percentile.
pub const PER_LAYER: &[MetricDef] = &[
    // wire + CSV
    layer("wire.rtt_us_p50", "us", Lower),
    layer("wire.rtt_us_p99", "us", Lower),
    layer("wire.overhead_us_p50", "us", Lower),
    layer("wire.bytes_per_req", "bytes", Lower),
    layer("tabular.parse_us", "us", Lower),
    layer("wire.render_us", "us", Lower),
    // admission + queue
    layer("service.queue_wait_us_p50", "us", Lower),
    layer("service.queue_wait_us_p99", "us", Lower),
    layer("service.latency_us_p50", "us", Lower),
    layer("service.shed", "count", Lower),
    // column inference, preprocessing, geocoding, query build
    layer("tabular.infer_us", "us", Lower),
    layer("preprocess.us", "us", Lower),
    layer("preprocess.candidate_share", "fraction", Lower),
    layer("geo.spatial_us", "us", Lower),
    layer("geo.memo_hit_rate", "fraction", Higher),
    layer("query.build_us", "us", Lower),
    // query cache
    layer("cache.hit_rate", "fraction", Higher),
    layer("cache.lookup_us", "us", Lower),
    layer("cache.evictions", "count", Lower),
    layer("cache.distinct_keys", "count", Lower),
    // search
    layer("search.calls_per_req", "count", Lower),
    layer("search.us", "us", Lower),
    layer("search.loaded_us", "us", Lower),
    layer("search.rank_us_p50", "us", Lower),
    layer("search.rank_us_p99", "us", Lower),
    layer("search.hydrate_us_p50", "us", Lower),
    layer("search.n_docs", "count", Lower),
    // scatter-gather
    layer("cluster.scatter_us_p50", "us", Lower),
    layer("cluster.scatter_us_p99", "us", Lower),
    layer("cluster.merge_us_p50", "us", Lower),
    layer("cluster.retries", "count", Lower),
    layer("cluster.partial_results", "count", Lower),
    // classification
    layer("classify.featurize_us", "us", Lower),
    layer("classify.model_us", "us", Lower),
    layer("classify.vote_us", "us", Lower),
    layer("classify.snippets_per_req", "count", Lower),
    layer("classify.annotated_share", "fraction", Higher),
    // post-processing
    layer("postprocess.us", "us", Lower),
    layer("postprocess.removed_share", "fraction", Lower),
    // live ingest
    layer("live.publish_ms_p50", "ms", Lower),
    layer("live.publish_ms_p95", "ms", Lower),
    layer("live.add_ms_p50", "ms", Lower),
    layer("live.remove_ms_p50", "ms", Lower),
    layer("live.folds", "count", Lower),
    layer("live.merges", "count", Lower),
    layer("live.segments_max", "count", Lower),
    layer("live.lateness_ms_max", "ms", Lower),
    layer("store.page_hydrations", "count", Lower),
    layer("store.resident_mb", "MB", Lower),
    // set-up
    layer("setup.world_s", "s", Lower),
    layer("setup.web_s", "s", Lower),
    layer("setup.harvest_s", "s", Lower),
    layer("setup.train_s", "s", Lower),
    layer("setup.snapshot_s", "s", Lower),
    layer("setup.partition_s", "s", Lower),
    layer("setup.open_s", "s", Lower),
    // the ledger itself
    layer("ledger.replay_us_per_req", "us", Lower),
    layer("ledger.residual_share", "fraction", Lower),
    layer("ledger.search_share", "fraction", Lower),
    layer("ledger.classify_share", "fraction", Lower),
    layer("trace.overhead", "ratio", Higher),
];

/// The fixture seed: world, Web, training corpus and the quality set are
/// always generated from it. `--seed` only moves the request and ingest
/// streams.
pub const FIXTURE_SEED: u64 = 42;

/// Capacity of the bounded query cache on the two search-heavy workloads.
pub const SMALL_CACHE: usize = 256;

/// Shards behind the router on `serve_cluster`.
pub const CLUSTER_SHARDS: u32 = 4;

/// Service worker threads and client connections: the 2-core host the
/// benchmark is sized for.
pub const WORKERS: usize = 2;

/// The four serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeWarm,
    ServeLarge,
    ServeCluster,
    IngestLive,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeWarm,
        Workload::ServeLarge,
        Workload::ServeCluster,
        Workload::IngestLive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve_warm",
            Workload::ServeLarge => "serve_large",
            Workload::ServeCluster => "serve_cluster",
            Workload::IngestLive => "ingest_live",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeWarm => {
                "every lookup hits a warmed cache, so classification and per-request overhead dominate and search must stay flat"
            }
            Workload::ServeLarge => {
                "a 1.44M-page heap corpus behind a 256-entry cache makes per-query search cost O(corpus) dominate"
            }
            Workload::ServeCluster => {
                "4 mmap'd shards behind the router: each miss pays 4 loopback round-trips and a merge, so transport dominates"
            }
            Workload::IngestLive => {
                "a writer publishes an add/remove batch per 48 reads while the reads go on, exercising overlays, folds and memo clears"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The service's query-cache bound (`None` is unbounded).
    pub fn cache_capacity(self) -> Option<usize> {
        match self {
            Workload::ServeLarge | Workload::ServeCluster => Some(SMALL_CACHE),
            Workload::ServeWarm | Workload::IngestLive => None,
        }
    }

    /// Whether queries are disambiguated with geocoded row cities.
    pub fn disambiguation(self) -> bool {
        matches!(self, Workload::ServeLarge | Workload::ServeCluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_bounds_are_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is end-to-end");
        for m in END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200);
        }
    }
}
