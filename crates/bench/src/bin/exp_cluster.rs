//! Measures the cluster serving tier: router-vs-single-node bit
//! identity across 1/2/4/8 shards over real TCP (asserted), closed-loop
//! throughput scaling of the widest cut over the 1-shard baseline
//! (leniently asserted on the median of interleaved paired samples —
//! loopback measures the mechanism, not a datacenter), and replica failover with one server killed mid-run
//! (answers identical, retries visible, latency inside the retry
//! window, whole-group death typed — all asserted). Emits
//! `BENCH_cluster.json`.
//!
//! `--quick` runs the reduced corpus (the CI smoke, 2 shards × 2
//! replicas in the failover phase either way).

use teda_bench::exp::cluster;
use teda_bench::harness::Scale;

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Standard
    };

    let result = cluster::run(scale);
    println!("{}", cluster::render(&result));

    assert!(
        result.identical,
        "router top-k diverged from the single-node index"
    );
    if result.cores >= 2 {
        assert!(
            result.speedup >= 1.05,
            "sharded throughput must beat the 1-shard baseline, got a median paired \
             ratio of {:.2}x (IQR {:.2}-{:.2}x over {} pairs) on {} cores",
            result.speedup,
            result.speedup_iqr.0,
            result.speedup_iqr.1,
            result.scaling_pairs,
            result.cores
        );
    } else {
        // One core: the shards' scoring serializes, so scatter
        // parallelism cannot pay by construction. The honest bound is
        // that fanning out does not cost more than a third of the
        // baseline — the wire/merge overhead stays small next to the
        // scoring work it parallelizes elsewhere.
        println!(
            "single-core host: scatter parallelism cannot pay here; \
             asserting bounded fan-out overhead instead ({:.2}x)",
            result.speedup
        );
        assert!(
            result.speedup >= 0.67,
            "fan-out overhead too high on a single core: {:.2}x",
            result.speedup
        );
    }
    assert!(
        result.failover_identical,
        "a replica death changed an answer"
    );
    assert!(
        result.failover_retries > 0,
        "the dead replica must be visible as retries"
    );
    assert_eq!(
        result.failover_partials, 0,
        "single-replica failover must not degrade to partial results"
    );
    assert!(
        result.failover_worst <= result.retry_window,
        "failover latency {:?} exceeded the configured retry window {:?}",
        result.failover_worst,
        result.retry_window
    );
    assert!(
        result.partial_typed,
        "whole-group death must surface as typed PartialResults"
    );

    cluster::to_json(&result).write_logged();
}
