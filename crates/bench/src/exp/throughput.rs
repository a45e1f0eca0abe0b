//! Batch annotation throughput: parallel fan-out × query memoization.
//!
//! The paper's cost model makes search queries the scarce resource (§5,
//! §6.4); this experiment measures the two mechanisms the batch engine
//! stacks on top of pre-processing to serve table corpora at scale:
//!
//! * **memoization** — a corpus of real tables repeats cell contents
//!   (shared entities, repeated category words), so the sharded
//!   `QueryCache` answers duplicates without touching the engine;
//! * **parallelism** — tables fan out across worker threads against one
//!   shared classifier and engine, with bit-identical output to the
//!   sequential path (asserted here on every run).
//!
//! Wall-clock numbers are *real* CPU time (unlike the §6.4 experiment's
//! virtual latency): the point is local throughput, tables per second.

use std::time::Instant;

use teda_core::cache::CacheStats;
use teda_core::pipeline::{BatchAnnotator, TableAnnotations};
use teda_core::stream::{default_max_in_flight, Collect, SliceSource};
use teda_kb::EntityType;
use teda_simkit::rng_from_seed;
use teda_simkit::tablefmt::{Align, TextTable};
use teda_tabular::Table;

use crate::harness::{Claim, Fixture};

/// Corpus shape: enough tables to keep every worker busy, with entity
/// sampling cycling through the per-type pools so duplicate cell
/// contents across tables are guaranteed.
const N_TABLES: usize = 24;
const ROWS_PER_TABLE: usize = 25;

/// The throughput report.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Tables in the corpus.
    pub tables: usize,
    /// Total candidate cells submitted to annotation.
    pub cells_queried: usize,
    /// Worker threads the parallel path used.
    pub threads: usize,
    /// Sequential batch wall-clock seconds (cold cache).
    pub seq_secs: f64,
    /// Parallel batch wall-clock seconds (cold cache).
    pub par_secs: f64,
    /// Cache accounting of the parallel run.
    pub cache: CacheStats,
    /// Search queries the memo saved (duplicate cell contents).
    pub queries_saved: u64,
    /// Whether parallel output was bit-identical to sequential output.
    pub deterministic: bool,
    /// Hit rate of the warm re-annotation pass over the same corpus (the
    /// long-running-service scenario: repeated traffic must be nearly
    /// free at the default cache configuration).
    pub rerun_hit_rate: f64,
    /// Wall-clock seconds of the warm re-annotation pass.
    pub rerun_secs: f64,
}

impl Throughput {
    /// Sequential-vs-parallel wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        if self.par_secs == 0.0 {
            0.0
        } else {
            self.seq_secs / self.par_secs
        }
    }

    /// Tables per second of the parallel path.
    pub fn par_tables_per_sec(&self) -> f64 {
        if self.par_secs == 0.0 {
            0.0
        } else {
            self.tables as f64 / self.par_secs
        }
    }

    /// Tables per second of the sequential path.
    pub fn seq_tables_per_sec(&self) -> f64 {
        if self.seq_secs == 0.0 {
            0.0
        } else {
            self.tables as f64 / self.seq_secs
        }
    }
}

/// Builds the duplicate-heavy table corpus.
pub fn build_corpus(fixture: &Fixture) -> Vec<Table> {
    use teda_corpus::gft::poi_table;

    let mut rng = rng_from_seed(fixture.seed ^ 0x7489);
    let types = [
        EntityType::Restaurant,
        EntityType::Museum,
        EntityType::Hotel,
    ];
    (0..N_TABLES)
        .map(|i| {
            poi_table(
                &fixture.world,
                types[i % types.len()],
                ROWS_PER_TABLE,
                (i % 3) as u8,
                &format!("thr_{i}"),
                &mut rng,
            )
            .table
        })
        .collect()
}

/// Annotates `tables` one task per table at the default in-flight
/// window, in table order.
fn annotate_par(batch: &BatchAnnotator, tables: &[Table]) -> Vec<TableAnnotations> {
    let mut sink = Collect::new();
    batch.annotate_stream(SliceSource::new(tables), &mut sink, default_max_in_flight());
    sink.into_annotations()
        .expect("slice sources never yield errors")
}

/// Runs the sweep: sequential batch, then parallel batch, both from a
/// cold cache, and checks the outputs are identical.
pub fn run(fixture: &Fixture) -> Throughput {
    let tables = build_corpus(fixture);

    let sequential = fixture.svm_annotator(true, false).into_batch();
    let t0 = Instant::now();
    let seq_out: Vec<TableAnnotations> = tables
        .iter()
        .map(|t| sequential.annotate_table(t))
        .collect();
    let seq_secs = t0.elapsed().as_secs_f64();

    let parallel = fixture.svm_annotator(true, false).into_batch();
    let t0 = Instant::now();
    let par_out = annotate_par(&parallel, &tables);
    let par_secs = t0.elapsed().as_secs_f64();

    let cache = parallel.cache_stats();

    // Warm re-annotation: the same corpus again through the same memo —
    // the sustained-service scenario. Every lookup should hit.
    let t0 = Instant::now();
    let rerun_out = annotate_par(&parallel, &tables);
    let rerun_secs = t0.elapsed().as_secs_f64();
    let warm = parallel.cache_stats();
    let rerun_lookups = (warm.hits + warm.misses) - (cache.hits + cache.misses);
    let rerun_hit_rate = if rerun_lookups == 0 {
        0.0
    } else {
        (warm.hits - cache.hits) as f64 / rerun_lookups as f64
    };
    let deterministic = seq_out == par_out && par_out == rerun_out;

    Throughput {
        tables: tables.len(),
        cells_queried: seq_out.iter().map(|t| t.queried_cells).sum(),
        threads: rayon::current_num_threads(),
        seq_secs,
        par_secs,
        cache,
        queries_saved: cache.hits,
        deterministic,
        rerun_hit_rate,
        rerun_secs,
    }
}

/// Renders the report.
/// The machine-readable record (satellite of the human table).
pub fn to_json(t: &Throughput) -> crate::report::BenchJson {
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let mut json = crate::report::BenchJson::new("throughput");
    json.metric("tables", t.tables as f64, "tables")
        .metric("cells_queried", t.cells_queried as f64, "cells")
        .metric("threads", t.threads as f64, "threads")
        .metric("seq_secs", t.seq_secs, "s")
        .metric("par_secs", t.par_secs, "s")
        .metric("speedup", t.speedup(), "x")
        .metric("par_tables_per_sec", t.par_tables_per_sec(), "tables/s")
        .metric("queries_saved", t.queries_saved as f64, "queries")
        .metric("deterministic", flag(t.deterministic), "bool")
        .metric("rerun_hit_rate", t.rerun_hit_rate, "ratio")
        .metric("rerun_secs", t.rerun_secs, "s");
    json
}

pub fn render(t: &Throughput) -> String {
    let mut out =
        String::from("Batch throughput: parallel cell annotation + (query, k) memoization.\n");
    let mut tbl = TextTable::new(vec!["Metric", "Value"]);
    tbl.align(1, Align::Right);
    tbl.row(vec!["tables".into(), t.tables.to_string()]);
    tbl.row(vec!["candidate cells".into(), t.cells_queried.to_string()]);
    tbl.row(vec!["worker threads".into(), t.threads.to_string()]);
    tbl.row(vec![
        "sequential".into(),
        format!(
            "{:.3} s  ({:.1} tables/s)",
            t.seq_secs,
            t.seq_tables_per_sec()
        ),
    ]);
    tbl.row(vec![
        "parallel".into(),
        format!(
            "{:.3} s  ({:.1} tables/s)",
            t.par_secs,
            t.par_tables_per_sec()
        ),
    ]);
    tbl.row(vec!["speedup".into(), format!("{:.2}x", t.speedup())]);
    tbl.row(vec!["engine searches".into(), t.cache.misses.to_string()]);
    tbl.row(vec![
        "queries saved by cache".into(),
        format!(
            "{} ({:.0}% hit rate)",
            t.queries_saved,
            t.cache.hit_rate() * 100.0
        ),
    ]);
    tbl.row(vec![
        "warm re-annotation".into(),
        format!(
            "{:.3} s  ({:.0}% hit rate)",
            t.rerun_secs,
            t.rerun_hit_rate * 100.0
        ),
    ]);
    tbl.row(vec![
        "parallel == sequential".into(),
        t.deterministic.to_string(),
    ]);
    out.push_str(&tbl.render());
    out.push_str(
        "(speedup target: ≥3x on ≥4 cores; on fewer cores the parallel \
         path degrades gracefully to ~1x)\n",
    );
    out
}

/// The throughput claims. The ≥3x speedup target needs ≥4 unloaded
/// cores, so the timed claim only pins down that the parallel path
/// never collapses, on any machine or CI runner.
pub fn claims(t: &Throughput) -> Vec<Claim> {
    vec![
        Claim::exact(
            "deterministic",
            t.deterministic,
            "parallel annotation diverged from the sequential path",
        ),
        Claim::exact(
            "queries_saved > 0",
            t.queries_saved > 0,
            "a corpus with duplicate cell contents must produce cache hits",
        ),
        Claim::exact(
            "cache misses > 0",
            t.cache.misses > 0,
            "cold cache must miss at least once",
        ),
        Claim::exact(
            "cells_queried > 0",
            t.cells_queried > 0,
            "no candidate cell was queried",
        ),
        Claim::exact(
            "cache misses <= cells_queried",
            t.cache.misses <= t.cells_queried as u64,
            format!(
                "the memo can only reduce engine traffic: {} misses over {} cells",
                t.cache.misses, t.cells_queried
            ),
        ),
        Claim::exact(
            "rerun_hit_rate >= 0.9",
            t.rerun_hit_rate >= 0.9,
            format!(
                "warm re-annotation must be ≥90% cache hits at the default capacity, got {:.0}%",
                t.rerun_hit_rate * 100.0
            ),
        ),
        Claim::timed(
            "speedup > 0.4",
            t.speedup() > 0.4,
            format!(
                "parallel path collapsed: {:.2}x on {} threads",
                t.speedup(),
                t.threads
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{assert_exact, Scale};

    #[test]
    fn throughput_batch_engine_is_deterministic_and_caches() {
        let fixture = Fixture::build(Scale::Quick, 42);
        let t = run(&fixture);
        assert_exact(&claims(&t));
        assert!(render(&t).contains("queries saved"));
    }
}
