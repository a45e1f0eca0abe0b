//! Measures the segmented store: reload with embedded partial indexes
//! vs legacy re-tokenize (≥ 5× asserted), warm in-place snapshot open
//! vs eager decode (in place must win — asserted), and segmented-vs-rebuild
//! bit identity on every probed (query, k), including after removals
//! and tier compaction (asserted). Emits `BENCH_segments.json`.
//!
//! `--quick` runs on the reduced fixture (the CI smoke configuration).

use teda_bench::exp::segments;
use teda_bench::harness::{Fixture, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Standard
    };
    let fixture = Fixture::build(scale, 42);
    let result = segments::run(&fixture);
    println!("{}", segments::render(&result));
    let json = segments::to_json(&result);
    json.write_logged();
    assert!(
        result.incremental_path_taken,
        "the indexed journal must reload through the O(delta) merge"
    );
    assert!(
        result.loads_identical,
        "incremental and legacy loads must produce identical corpora"
    );
    assert!(
        result.live_speedup >= 5.0,
        "publishing a delta must be >= 5x faster than a full re-index, got {:.1}x",
        result.live_speedup
    );
    assert!(
        result.incremental_load < result.full_reindex_load,
        "the indexed journal must reload faster ({:?}) than the legacy \
         re-tokenize path ({:?})",
        result.incremental_load,
        result.full_reindex_load
    );
    assert!(
        result.lazy_open < result.eager_open,
        "warm in-place open ({:?}) must beat eager decode ({:?})",
        result.lazy_open,
        result.eager_open
    );
    assert!(
        result.lazy_identical,
        "the in-place view diverged from the eager decode"
    );
    assert!(
        result.segmented_identical,
        "segmented top-k diverged from the full rebuild"
    );
}
