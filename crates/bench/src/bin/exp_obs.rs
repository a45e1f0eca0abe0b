//! Measures the observability layer: telemetry on/off annotation bit
//! identity (asserted), recording overhead as the median of paired A/B
//! sample timings, each sample repeating the batch to cover at least
//! `obs::MIN_SAMPLE` (asserted ≤ 5%), and cross-node trace reconstruction
//! over a real loopback cluster — the rebuilt span tree must cover the
//! router's scatter/merge stages and graft a subtree from every live
//! shard while the routed answer stays bit-identical to the single-node
//! index (asserted). Emits `BENCH_obs.json` with the serving node's
//! stage histograms.
//!
//! `--quick` runs the reduced batch (the CI smoke).

use teda_bench::exp::obs;
use teda_bench::harness::{Fixture, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Standard
    };
    let fixture = Fixture::build(scale, 42);

    let result = obs::run(&fixture, scale);
    println!("{}", obs::render(&result));

    assert!(
        result.identical,
        "telemetry perturbed an annotation: on/off/offline results diverged"
    );
    assert!(
        result.off_silent,
        "a telemetry-off service recorded histogram samples or traces"
    );
    // The standard run has enough reps for the paired median to settle,
    // so it carries the 5% claim; the quick smoke has fewer reps over a
    // smaller batch, so it gets a slightly wider bound — the claim it
    // guards is "recording is not a measurable cost", not the exact
    // percentage.
    let bound = match scale {
        Scale::Standard => 1.05,
        Scale::Quick => 1.10,
    };
    assert!(
        result.overhead <= bound,
        "recording overhead above {:.0}%: {:.3}x (on {:.2} ms vs off {:.2} ms median)",
        (bound - 1.0) * 100.0,
        result.overhead,
        result.median_on_ms,
        result.median_off_ms
    );
    assert!(
        result.cluster_identical,
        "the traced routed answer diverged from the single-node index"
    );
    assert!(
        result.trace_router_stages,
        "the reconstructed trace is missing router-side scatter/merge spans"
    );
    assert_eq!(
        result.trace_shards_grafted, result.cluster_shards,
        "every live shard must contribute a grafted span subtree"
    );
    assert!(
        result.exposition_stable && result.json_balanced,
        "METRICS must render stably and Registry::to_json must stay well-formed"
    );

    obs::to_json(&result).write_logged();
}
