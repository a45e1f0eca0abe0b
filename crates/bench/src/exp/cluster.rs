//! The cluster serving tier under measurement: the three claims of the
//! scatter-gather router, each asserted in-run.
//!
//! * **bit identity** — the router's top-k over 1/2/4/8 shards (real
//!   TCP, mapped and heap shard images) equals the single-node index at
//!   every probed `(query, k)`: same ids, same score bits, same order.
//!   The probe set sent as one batch (`search_many`: one `SEARCH-MANY`
//!   frame of scored ids per shard and frame, then `FETCH` frames for
//!   the merged winners) answers the same, query by query, and the
//!   shards hydrate exactly each frame's distinct winners: at most `k`
//!   pages per query however many shards ranked it.
//! * **throughput scaling** — a closed-loop client over a dense corpus
//!   with a deliberately expensive query (every term matches every
//!   page): a multi-shard cluster must beat the 1-shard cluster (same
//!   wire path, same router), because each shard walks `1/N` of the
//!   postings and the shards walk them in parallel. Single client,
//!   because that is what sharding speeds up on one machine: per-query
//!   scoring latency. Aggregate multi-client throughput is already
//!   core-parallel on a single node (one connection per thread), so a
//!   loopback cluster can only lose that comparison to fan-out
//!   overhead. The assert is deliberately lenient (≥ 1.05×) — loopback
//!   measures the mechanism, not a datacenter. Both clusters stay up
//!   for the whole phase and are sampled in [`SCALING_PAIRS`]
//!   interleaved pairs, the order alternating from pair to pair; the
//!   claim is the median of the paired ratios, so one slow sample on a
//!   shared host cannot decide it.
//! * **failover** — 2 shards × 2 replicas, one replica killed mid-run:
//!   every answer stays bit-identical (the group's second replica
//!   takes over), the retry counter moves, nothing degrades to
//!   partial, and the worst post-kill latency stays within the
//!   configured retry window. Killing the *whole* group then yields a
//!   typed `PartialResults` naming the dead shard and carrying the
//!   exact merge over the live one.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use teda_cluster::{
    build_shard, partition_corpus, partition_pages, ClusterError, ClusterRouter, RouterConfig,
    ShardBackend, ShardServer,
};
use teda_simkit::tablefmt::{Align, TextTable};
use teda_websim::scoring::merge_topk;
use teda_websim::{PageId, SearchBackend, SearchResult, WebCorpus};
use teda_wire::protocol::MAX_BATCH;

use crate::harness::{bits, paired, probes, Claim, Scale, Spread};

/// The cluster experiment report.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Pages in the partitioned corpus.
    pub pages: usize,
    /// Shard counts probed for bit identity.
    pub shard_counts: Vec<u32>,
    /// (query, k, shard-count) combinations checked.
    pub probes_checked: usize,
    /// Router == single node at every probe, every shard count.
    pub identical: bool,
    /// The probe set as one routed batch == the single node, query by
    /// query (ids, score bits and results), at every shard count.
    pub batched_identical: bool,
    /// Pages the shards hydrated (their `fetched` counters) for the
    /// routed batches, summed over every shard count.
    pub fetched: u64,
    /// Each routed frame's distinct winners in the single node's
    /// ranking, summed the same way: what `fetched` must equal.
    pub distinct_winners: u64,
    /// The `k`s of the routed queries, times the shard count, summed
    /// the same way: what the shards hydrated when each returned its
    /// whole local top-`k` with fields.
    pub hydrated_per_shard_k: u64,
    /// Closed-loop queries per second, 1-shard cluster (the baseline
    /// pays the same wire + router cost): the median sample.
    pub qps_single: f64,
    /// Closed-loop queries per second at `throughput_shards`: the
    /// median sample.
    pub qps_sharded: f64,
    /// Shards in the scaled configuration.
    pub throughput_shards: u32,
    /// Interleaved sample pairs behind `speedup`.
    pub scaling_pairs: usize,
    /// The median of the paired `sharded / single` ratios.
    pub speedup: f64,
    /// The first and third quartiles of the paired ratios.
    pub speedup_iqr: (f64, f64),
    /// CPU cores available to this run. Scatter parallelism can only
    /// pay with ≥ 2: on a single core the shards' scoring serializes,
    /// so the honest claim degrades to "fan-out overhead is bounded".
    pub cores: usize,
    /// Queries answered after one replica was killed mid-run.
    pub failover_queries: usize,
    /// All post-kill answers bit-identical to the single node.
    pub failover_identical: bool,
    /// Replica retries observed by the router's telemetry.
    pub failover_retries: u64,
    /// Degraded scatters during single-replica failover (must be 0).
    pub failover_partials: u64,
    /// Worst post-kill query latency.
    pub failover_worst: Duration,
    /// The retry window the config allows (attempts, backoff, connect
    /// timeout) — `failover_worst` must stay under it.
    pub retry_window: Duration,
    /// Whole-group death surfaced as a typed `PartialResults` naming
    /// the dead shard, with the exact live-shard merge.
    pub partial_typed: bool,
}

/// Dense probe set: high-df vocabulary (every page matches), a sparse
/// tag, a miss, and the empty query, crossed with [`PROBE_KS`].
const PROBE_QUERIES: [&str; 6] = [
    "restaurant city review",
    "museum gallery bridge",
    "tag17",
    "menu listing opening river market",
    "zzz-no-such-term",
    "",
];
const PROBE_KS: [usize; 3] = [1, 10, 100];

fn n_pages(scale: Scale) -> usize {
    match scale {
        Scale::Standard => 9_000,
        Scale::Quick => 3_000,
    }
}

fn closed_loop_queries(scale: Scale) -> usize {
    match scale {
        Scale::Standard => 400,
        Scale::Quick => 120,
    }
}

/// The throughput probe: every vocabulary term, twice — each term's
/// postings cover the whole corpus, so scoring walks `2 × 12 × n_docs`
/// postings per query and the per-shard walk dominates the wire cost.
fn dense_query() -> String {
    let vocab =
        "restaurant museum hotel river city review listing menu opening gallery bridge market";
    format!("{vocab} {vocab}")
}

/// Fast-failing router config for loopback serving.
fn config() -> RouterConfig {
    RouterConfig {
        attempts: 3,
        backoff: Duration::from_millis(10),
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(5),
        pool_per_replica: 2,
    }
}

/// Worst-case wall clock one query may spend failing over: every pass
/// may burn a connect timeout per replica plus the backoff sleeps,
/// with one generous I/O timeout on top for the query that was already
/// in flight when the replica died.
fn retry_window(c: &RouterConfig, replicas: usize) -> Duration {
    let mut window = c.io_timeout;
    for pass in 0..c.attempts {
        window += c.backoff * pass + c.connect_timeout * replicas as u32;
    }
    window
}

/// Serves `n_shards` shard images from `root` (alternating mapped and
/// heap-resident) and returns the servers plus the router topology.
fn serve(
    corpus: &WebCorpus,
    n_shards: u32,
    root: &Path,
) -> (Vec<ShardServer>, Vec<Vec<SocketAddr>>) {
    let dirs = partition_corpus(corpus, n_shards, root).expect("partition");
    let servers: Vec<ShardServer> = dirs
        .iter()
        .enumerate()
        .map(|(i, dir)| ShardServer::start(dir, i % 2 == 0, "127.0.0.1:0").expect("serve shard"))
        .collect();
    let topology = servers.iter().map(|s| vec![s.local_addr()]).collect();
    (servers, topology)
}

/// Interleaved 1-shard / sharded sample pairs in the scaling phase.
pub const SCALING_PAIRS: usize = 9;

/// Closed-loop throughput: one client drives the router with the dense
/// query back to back; returns queries per second.
fn closed_loop_qps(router: &ClusterRouter, queries: usize) -> f64 {
    let q = dense_query();
    // Keep the connection pools warm out of the measurement.
    std::hint::black_box(router.search(&q, 10));
    let t0 = Instant::now();
    for _ in 0..queries {
        std::hint::black_box(router.search(&q, 10));
    }
    queries as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Runs the experiment in scratch directories (wiped before and after).
pub fn run(scale: Scale) -> ClusterReport {
    let root = std::env::temp_dir().join(format!("teda_exp_cluster_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let corpus = WebCorpus::from_pages(super::mmap::synthetic_pages(n_pages(scale)));

    // Claim 1: bit identity at every shard count the issue names.
    let shard_counts = vec![1u32, 2, 4, 8];
    let mut probes_checked = 0usize;
    let mut identical = true;
    let mut batched_identical = true;
    let (mut fetched, mut distinct_winners, mut hydrated_per_shard_k) = (0u64, 0u64, 0u64);
    for &n_shards in &shard_counts {
        let (servers, topology) = serve(&corpus, n_shards, &root.join(format!("id_{n_shards}")));
        let router = ClusterRouter::connect(&topology, config()).expect("connect router");
        let probe_set = probes(&PROBE_QUERIES, &PROBE_KS);
        for (q, k) in &probe_set {
            probes_checked += 1;
            identical &= bits(&router.search(q, *k)) == bits(&corpus.index().search(q, *k));
        }
        let batch: Vec<(&str, usize)> = probe_set.iter().map(|(q, k)| (q.as_str(), *k)).collect();
        let mut answers: Vec<Option<Vec<SearchResult>>> = vec![None; batch.len()];
        router.search_many(&batch, &mut |i, results| answers[i] = Some(results));
        let typed = router.try_search_many(&batch);
        for ((answer, outcome), &(q, k)) in answers.into_iter().zip(typed).zip(&batch) {
            let scored: Option<Vec<_>> = outcome
                .ok()
                .map(|hits| hits.iter().map(|h| (h.id, h.score)).collect());
            batched_identical &= answer == Some(corpus.search_results(q, k))
                && scored.is_some_and(|s| bits(&s) == bits(&corpus.index().search(q, k)));
        }
        // Two routed batches (the trait and the typed path) above.
        fetched += servers
            .iter()
            .map(|s| s.obs().counter("fetched").get())
            .sum::<u64>();
        for frame in batch.chunks(MAX_BATCH) {
            let mut ids: Vec<PageId> = frame
                .iter()
                .flat_map(|&(q, k)| corpus.index().search(q, k))
                .map(|(id, _)| id)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            distinct_winners += 2 * ids.len() as u64;
        }
        hydrated_per_shard_k +=
            2 * u64::from(n_shards) * batch.iter().map(|&(_, k)| k as u64).sum::<u64>();
        for s in servers {
            s.shutdown();
        }
    }

    // Claim 2: closed-loop latency scaling, 1 shard vs 4. Both sides
    // pay the identical wire + router + merge cost; only the per-shard
    // postings walk shrinks. Both clusters serve throughout; each pair
    // samples both sides back to back, alternating which goes first.
    let throughput_shards = 4u32;
    let queries = closed_loop_queries(scale);
    let (servers_1, topo_1) = serve(&corpus, 1, &root.join("tp_1"));
    let router_1 = ClusterRouter::connect(&topo_1, config()).expect("connect 1-shard");
    let (servers_n, topo_n) = serve(&corpus, throughput_shards, &root.join("tp_n"));
    let router_n = ClusterRouter::connect(&topo_n, config()).expect("connect n-shard");
    let samples = paired(
        SCALING_PAIRS,
        || closed_loop_qps(&router_1, queries),
        || closed_loop_qps(&router_n, queries),
    );
    for s in servers_1.into_iter().chain(servers_n) {
        s.shutdown();
    }
    let qps_single = Spread::of(samples.iter().map(|p| p.0)).median;
    let qps_sharded = Spread::of(samples.iter().map(|p| p.1)).median;
    let ratios = Spread::of(samples.iter().map(|&(one, n)| n / one.max(1e-9)));
    let speedup = ratios.median;
    let speedup_iqr = (ratios.q1, ratios.q3);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Claim 3: kill one replica of a 2×2 cluster mid-run.
    let failover_root = root.join("failover");
    let dirs = partition_corpus(&corpus, 2, &failover_root).expect("partition 2-way");
    let mut replicas: Vec<Vec<ShardServer>> = dirs
        .iter()
        .map(|dir| {
            vec![
                ShardServer::start(dir, true, "127.0.0.1:0").expect("replica a"),
                ShardServer::start(dir, false, "127.0.0.1:0").expect("replica b"),
            ]
        })
        .collect();
    let topo: Vec<Vec<SocketAddr>> = replicas
        .iter()
        .map(|g| g.iter().map(|s| s.local_addr()).collect())
        .collect();
    let cfg = config();
    let window = retry_window(&cfg, 2);
    let router = ClusterRouter::connect(&topo, cfg).expect("connect replicated");
    let probe_set = probes(&PROBE_QUERIES, &PROBE_KS);
    // Warm the pools, then pull the rug.
    for (q, k) in &probe_set {
        std::hint::black_box(router.search(q, *k));
    }
    replicas[0].remove(0).shutdown();

    let mut failover_identical = true;
    let mut failover_worst = Duration::ZERO;
    let mut failover_queries = 0usize;
    for round in 0..3 {
        let _ = round;
        for (q, k) in &probe_set {
            failover_queries += 1;
            let t0 = Instant::now();
            let got = router.try_search(q, *k).expect("second replica serves");
            failover_worst = failover_worst.max(t0.elapsed());
            failover_identical &= bits(&got) == bits(&corpus.index().search(q, *k));
        }
    }
    let failover_partials = router.obs().counter("partial_results").get();
    let failover_retries = router.obs().counter("replica_retries").get();

    // …then kill the whole group: typed partial results, exact live merge.
    replicas[0].remove(0).shutdown();
    let assignment = partition_pages(corpus.len(), 2);
    let (local, manifest) = build_shard(&corpus, 1, 2, &assignment).expect("build shard 1");
    let live = ShardBackend::from_parts(Arc::new(local), manifest).expect("valid shard");
    let partial_typed = match router.try_search("restaurant city review", 10) {
        Err(ClusterError::PartialResults { dead_shards, hits }) => {
            dead_shards == vec![0]
                && bits(&hits) == bits(&merge_topk([live.search("restaurant city review", 10)], 10))
        }
        _ => false,
    };

    for group in replicas {
        for s in group {
            s.shutdown();
        }
    }
    let _ = std::fs::remove_dir_all(&root);

    ClusterReport {
        pages: corpus.len(),
        shard_counts,
        probes_checked,
        identical,
        batched_identical,
        fetched,
        distinct_winners,
        hydrated_per_shard_k,
        qps_single,
        qps_sharded,
        throughput_shards,
        scaling_pairs: SCALING_PAIRS,
        speedup,
        speedup_iqr,
        cores,
        failover_queries,
        failover_identical,
        failover_retries,
        failover_partials,
        failover_worst,
        retry_window: window,
        partial_typed,
    }
}

/// Renders the report.
pub fn render(r: &ClusterReport) -> String {
    let mut out = String::from(
        "Cluster serving tier: scatter-gather bit identity, throughput scaling, failover.\n",
    );
    let mut tbl = TextTable::new(vec!["Metric", "Value"]);
    tbl.align(1, Align::Right);
    tbl.row(vec![
        "corpus".into(),
        format!("{} pages, shard counts {:?}", r.pages, r.shard_counts),
    ]);
    tbl.row(vec![
        "router == single node".into(),
        format!("{} ({} probes)", r.identical, r.probes_checked),
    ]);
    tbl.row(vec![
        "batched router == single node".into(),
        format!("{}", r.batched_identical),
    ]);
    tbl.row(vec![
        "pages hydrated for the batches".into(),
        format!(
            "{} (distinct winners {}; k x shards {})",
            r.fetched, r.distinct_winners, r.hydrated_per_shard_k
        ),
    ]);
    tbl.row(vec![
        "closed-loop qps, 1 shard (median)".into(),
        format!("{:.0}", r.qps_single),
    ]);
    tbl.row(vec![
        format!("closed-loop qps, {} shards (median)", r.throughput_shards),
        format!("{:.0}", r.qps_sharded),
    ]);
    tbl.row(vec![
        "scaling (median paired ratio)".into(),
        format!(
            "{:.2}x, IQR {:.2}-{:.2}x over {} pairs ({} core(s))",
            r.speedup, r.speedup_iqr.0, r.speedup_iqr.1, r.scaling_pairs, r.cores
        ),
    ]);
    tbl.row(vec![
        "failover answers identical".into(),
        format!("{} ({} queries)", r.failover_identical, r.failover_queries),
    ]);
    tbl.row(vec![
        "failover retries / partials".into(),
        format!("{} / {}", r.failover_retries, r.failover_partials),
    ]);
    tbl.row(vec![
        "failover worst latency".into(),
        format!(
            "{:.1} ms (window {:.0} ms)",
            r.failover_worst.as_secs_f64() * 1e3,
            r.retry_window.as_secs_f64() * 1e3
        ),
    ]);
    tbl.row(vec![
        "whole group down".into(),
        format!("typed partial = {}", r.partial_typed),
    ]);
    out.push_str(&tbl.render());
    out.push_str(
        "(every shard scores with manifest-carried global BM25 statistics, so the \
         merged top-k is the single node's bit for bit; a dead replica costs \
         retries, never answers)\n",
    );
    out
}

/// The machine-readable record.
pub fn to_json(r: &ClusterReport) -> crate::report::BenchJson {
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let mut json = crate::report::BenchJson::new("cluster");
    json.metric("pages", r.pages as f64, "pages")
        .metric("probes_checked", r.probes_checked as f64, "probes")
        .metric("identical", flag(r.identical), "bool")
        .metric("batched_identical", flag(r.batched_identical), "bool")
        .metric("fetched", r.fetched as f64, "pages")
        .metric("distinct_winners", r.distinct_winners as f64, "pages")
        .metric(
            "hydrated_per_shard_k",
            r.hydrated_per_shard_k as f64,
            "pages",
        )
        .metric("qps_single", r.qps_single, "qps")
        .metric("qps_sharded", r.qps_sharded, "qps")
        .metric("throughput_shards", r.throughput_shards as f64, "shards")
        .metric("speedup", r.speedup, "x")
        .metric("speedup_q1", r.speedup_iqr.0, "x")
        .metric("speedup_q3", r.speedup_iqr.1, "x")
        .metric("scaling_pairs", r.scaling_pairs as f64, "pairs")
        .metric("cores", r.cores as f64, "cores")
        .metric("failover_queries", r.failover_queries as f64, "queries")
        .metric("failover_identical", flag(r.failover_identical), "bool")
        .metric("failover_retries", r.failover_retries as f64, "retries")
        .metric("failover_partials", r.failover_partials as f64, "scatters")
        .metric(
            "failover_worst_ms",
            r.failover_worst.as_secs_f64() * 1e3,
            "ms",
        )
        .metric("retry_window_ms", r.retry_window.as_secs_f64() * 1e3, "ms")
        .metric("partial_typed", flag(r.partial_typed), "bool");
    json
}

/// The cluster claims. Scaling needs ≥ 2 cores: on one core the
/// shards' scoring serializes, so scatter parallelism cannot pay by
/// construction, and the honest bound is that fanning out does not cost
/// more than a third of the baseline.
pub fn claims(r: &ClusterReport) -> Vec<Claim> {
    let bound = if r.cores >= 2 { 1.05 } else { 0.67 };
    vec![
        Claim::exact(
            "identical",
            r.identical,
            "router top-k diverged from the single-node index",
        ),
        Claim::exact(
            "batched_identical",
            r.batched_identical,
            "a routed batch diverged from the single-node index",
        ),
        Claim::exact(
            "fetched == distinct winners",
            r.fetched == r.distinct_winners,
            format!(
                "the shards must hydrate each frame's distinct winners, no more: hydrated {}, \
                 distinct winners {}",
                r.fetched, r.distinct_winners
            ),
        ),
        Claim::exact(
            "failover_identical",
            r.failover_identical,
            "a replica death changed an answer",
        ),
        Claim::exact(
            "failover_retries > 0",
            r.failover_retries > 0,
            "the dead replica must be visible as retries",
        ),
        Claim::exact(
            "failover_partials == 0",
            r.failover_partials == 0,
            format!(
                "single-replica failover must not degrade to partial results, got {}",
                r.failover_partials
            ),
        ),
        Claim::exact(
            "partial_typed",
            r.partial_typed,
            "whole-group death must surface as typed PartialResults",
        ),
        Claim::timed(
            "scaling speedup >= 1.05 (>= 0.67 on one core)",
            r.speedup >= bound,
            format!(
                "sharded throughput must reach {bound:.2}x the 1-shard baseline, got a median \
                 paired ratio of {:.2}x (IQR {:.2}-{:.2}x over {} pairs) on {} cores",
                r.speedup, r.speedup_iqr.0, r.speedup_iqr.1, r.scaling_pairs, r.cores
            ),
        ),
        Claim::timed(
            "failover_worst <= retry_window",
            r.failover_worst <= r.retry_window,
            format!(
                "failover latency {:?} exceeded the configured retry window {:?}",
                r.failover_worst, r.retry_window
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::assert_exact;

    #[test]
    fn cluster_experiment_asserts_its_own_invariants() {
        let r = run(Scale::Quick);
        assert_exact(&claims(&r));
        assert!(render(&r).contains("scaling"));
        assert!(to_json(&r).render().contains("\"speedup\""));
    }
}
