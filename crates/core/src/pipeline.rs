//! The end-to-end annotator (Figure 5): pre-processing → annotation →
//! post-processing — and the batch engine that runs it at corpus scale.
//!
//! Two drivers share the same pipeline steps:
//!
//! * [`Annotator`] — one table at a time, querying the engine directly;
//!   the faithful single-table reproduction of the paper.
//! * [`BatchAnnotator`] — a corpus at a time: fans tables out across
//!   threads, and memoizes `(query, k)` through a sharded [`QueryCache`]
//!   so duplicate cell contents — pervasive in real table corpora — are
//!   searched and classified once: each cache entry keeps the §5.2.1
//!   verdict over its results beside them, so a hit skips both the
//!   search and the `k` snippet classifications. A table's misses go
//!   to the engine as one batch ([`SearchEngine::search_many`]), and a
//!   miss classifies only the snippets the annotator has never judged:
//!   a bounded [`SnippetClassMemo`] keeps each snippet's class.
//!
//! The corpus-scale entry point is the streaming driver
//! [`BatchAnnotator::annotate_stream`]: a [`TableSource`] is pulled
//! through a bounded in-flight window into an [`AnnotationSink`], so
//! memory is O(window) whatever the corpus size, and sources backed by
//! parsers or live feeds are throttled to the annotation rate
//! (backpressure). A corpus already in memory streams through a
//! [`SliceSource`](crate::stream::SliceSource) into a
//! [`Collect`](crate::stream::Collect) sink.
//!
//! Determinism is a hard invariant: for the same inputs the parallel
//! and streaming paths produce bit-identical annotations to the
//! sequential ones, at every window size. Cells are independent,
//! inference is `&self` over a frozen vocabulary, the cache is
//! single-flight, a memoized verdict is a pure function of its results
//! under the annotator's one classifier and fixed config, and every
//! parallel collect — including the streaming window's reorder buffer —
//! preserves input order (the argument is written out in
//! `crates/core/src/README.md`).
//!
//! Perf knobs: worker count (`RAYON_NUM_THREADS`), in-flight window
//! (`annotate_stream`'s `max_in_flight`), cache capacity
//! ([`CacheConfig::capacity`] through
//! [`BatchAnnotator::with_cache_config`]), snippets per query
//! (`AnnotatorConfig::top_k`).

use std::borrow::{Borrow, Cow};
use std::sync::Arc;

use teda_geo::{GeocodeCache, SimGeocoder};
use teda_kb::EntityType;
use teda_tabular::{infer::infer_column_types, CellId, ColumnType, Table};
use teda_websim::SearchEngine;

use crate::annotate::{
    annotate_cells, build_cell_query, memoized_verdict, CellAnnotation, SnippetClassMemo,
};
use crate::cache::{CacheConfig, CacheStats, QueryCache};
use crate::config::AnnotatorConfig;
use crate::model::SnippetClassifier;
use crate::postprocess::eliminate_spurious;
use crate::preprocess::preprocess;
use crate::query::{build_spatial_context_cached, SpatialContext};
use crate::stream::{AnnotatedTable, AnnotationSink, StreamSummary, TableSource};

/// One annotated row: the paper's final output shape ("identifies the rows
/// that contain information on entities of a specific type … and
/// determines the cells that contain the names of those entities").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowAnnotation {
    /// 0-based row index.
    pub row: usize,
    /// The entity type found in the row.
    pub etype: EntityType,
    /// The cell holding the entity name.
    pub name_cell: CellId,
    /// The Eq. 1 score of the winning cell.
    pub score: f64,
}

/// The full annotation result for one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableAnnotations {
    /// Per-cell annotations (after post-processing, when enabled).
    pub cells: Vec<CellAnnotation>,
    /// Number of cells ruled out by pre-processing.
    pub skipped_cells: usize,
    /// Number of cells submitted to the search engine.
    pub queried_cells: usize,
}

impl TableAnnotations {
    /// The row-level view of the annotations.
    pub fn rows(&self) -> Vec<RowAnnotation> {
        self.cells
            .iter()
            .map(|a| RowAnnotation {
                row: a.cell.row,
                etype: a.etype,
                name_cell: a.cell,
                score: a.score,
            })
            .collect()
    }

    /// The annotations of one type.
    pub fn of_type(&self, etype: EntityType) -> impl Iterator<Item = &CellAnnotation> {
        self.cells.iter().filter(move |a| a.etype == etype)
    }
}

/// The annotator: owns the classifier, borrows the Web through a shared
/// engine handle, and optionally a geocoder for spatial disambiguation.
///
/// The configuration is fixed at construction: build a new annotator
/// (or take it apart with [`into_parts`](Self::into_parts)) to change it.
pub struct Annotator {
    pub(crate) engine: Arc<dyn SearchEngine + Send + Sync>,
    pub(crate) classifier: SnippetClassifier,
    pub(crate) geocoder: Option<Arc<SimGeocoder>>,
    pub(crate) config: AnnotatorConfig,
}

impl Annotator {
    /// Creates an annotator.
    pub fn new(
        engine: Arc<dyn SearchEngine + Send + Sync>,
        classifier: SnippetClassifier,
        config: AnnotatorConfig,
    ) -> Self {
        Annotator {
            engine,
            classifier,
            geocoder: None,
            config,
        }
    }

    /// Attaches a geocoder, enabling `use_disambiguation`.
    pub fn with_geocoder(mut self, geocoder: Arc<SimGeocoder>) -> Self {
        self.geocoder = Some(geocoder);
        self
    }

    /// The configuration, fixed at construction.
    pub fn config(&self) -> &AnnotatorConfig {
        &self.config
    }

    /// Annotates one table end-to-end.
    ///
    /// `&self`: inference is read-only, so one annotator can serve
    /// several tables concurrently (though [`BatchAnnotator`] is the
    /// purpose-built driver for that).
    pub fn annotate_table(&self, table: &Table) -> TableAnnotations {
        let table = prepared_table(table);
        let table = table.as_ref();

        let pre = preprocess(table, &self.config);
        let spatial = spatial_context_for(table, self.geocoder.as_deref(), None, &self.config);

        let annotations = annotate_cells(
            table,
            &pre.candidates,
            self.engine.as_ref(),
            &self.classifier,
            spatial.as_ref(),
            &self.config,
        );

        finish_table(table, annotations, &pre, &self.config)
    }

    /// Splits the annotator back into its parts (used by the hybrid
    /// annotator and benches that retarget the classifier).
    pub fn into_parts(
        self,
    ) -> (
        Arc<dyn SearchEngine + Send + Sync>,
        SnippetClassifier,
        AnnotatorConfig,
    ) {
        (self.engine, self.classifier, self.config)
    }

    /// Upgrades this annotator into a [`BatchAnnotator`] with a fresh
    /// query cache and snippet-class memo, preserving engine,
    /// classifier, geocoder and config. The fresh memos hold no verdicts
    /// or classes, so none judged by another classifier can leak in.
    pub fn into_batch(self) -> BatchAnnotator {
        let mut batch = BatchAnnotator::new(self.engine, self.classifier, self.config);
        batch.geocoder = self.geocoder;
        batch
    }
}

/// Column inference for untyped Web tables (§6.3 set), shared by every
/// pipeline driver.
pub(crate) fn prepared_table(table: &Table) -> Cow<'_, Table> {
    if table.column_types().contains(&ColumnType::Unknown) {
        let mut owned = table.clone();
        infer_column_types(&mut owned);
        Cow::Owned(owned)
    } else {
        Cow::Borrowed(table)
    }
}

/// Spatial-context construction (§5.2.2), shared by every pipeline
/// driver: only built when disambiguation is on and a geocoder is
/// attached. `geo_memo` (the batch path) deduplicates geocoder calls
/// across the corpus without changing any candidate set.
pub(crate) fn spatial_context_for(
    table: &Table,
    geocoder: Option<&SimGeocoder>,
    geo_memo: Option<&GeocodeCache>,
    config: &AnnotatorConfig,
) -> Option<SpatialContext> {
    if config.use_disambiguation {
        geocoder.map(|g| build_spatial_context_cached(table, g, geo_memo, config))
    } else {
        None
    }
}

/// The pipeline tail shared by every driver: §5.3 post-processing (when
/// enabled) and the result accounting.
pub(crate) fn finish_table(
    table: &Table,
    annotations: Vec<CellAnnotation>,
    pre: &crate::preprocess::Preprocessed,
    config: &AnnotatorConfig,
) -> TableAnnotations {
    let cells = if config.use_postprocessing {
        eliminate_spurious(table, annotations)
    } else {
        annotations
    };
    TableAnnotations {
        cells,
        skipped_cells: pre.skipped.len(),
        queried_cells: pre.candidates.len(),
    }
}

/// The corpus-scale annotation engine: parallel fan-out plus query
/// memoization.
///
/// The fan-out is one task per table
/// ([`annotate_stream`](Self::annotate_stream)); cells within a table
/// stay sequential. Tables are coarse enough to saturate
/// a pool sized to the machine, and the service layer already runs one
/// table per worker.
///
/// All paths — sequential or parallel, cached hit or miss — produce
/// bit-identical [`CellAnnotation`]s for the same inputs and seed.
///
/// The configuration is fixed at construction. The query cache keeps
/// each entry's §5.2.1 verdict, judged by this annotator's classifier
/// under this config; a config changed under a warm cache would serve
/// verdicts computed under the old targets or threshold, so there is no
/// way to change it. Likewise the snippet-class memo holds classes
/// judged by this annotator's classifier, which is fixed too.
pub struct BatchAnnotator {
    engine: Arc<dyn SearchEngine + Send + Sync>,
    classifier: SnippetClassifier,
    geocoder: Option<Arc<SimGeocoder>>,
    config: AnnotatorConfig,
    cache: QueryCache,
    /// Distinct-address geocoding memo: across the whole corpus, each
    /// address string hits the geocoder once (§6.4 round-trip cost).
    geo_memo: GeocodeCache,
    /// Each snippet's class under `classifier`, so a query-cache miss
    /// classifies only snippets never seen before. Keyed by text, so a
    /// corpus publish (which clears `cache`) leaves it valid.
    class_memo: SnippetClassMemo,
}

impl BatchAnnotator {
    /// Creates a batch annotator with an unbounded query cache.
    pub fn new(
        engine: Arc<dyn SearchEngine + Send + Sync>,
        classifier: SnippetClassifier,
        config: AnnotatorConfig,
    ) -> Self {
        BatchAnnotator {
            engine,
            classifier,
            geocoder: None,
            config,
            cache: QueryCache::default(),
            geo_memo: GeocodeCache::default(),
            class_memo: SnippetClassMemo::new(),
        }
    }

    /// Attaches a geocoder, enabling `use_disambiguation`.
    pub fn with_geocoder(mut self, geocoder: Arc<SimGeocoder>) -> Self {
        self.geocoder = Some(geocoder);
        self
    }

    /// Replaces the cache with one bounded as `config` says. The
    /// service layer uses this to keep long-running processes
    /// memory-bounded; results are identical to the unbounded cache
    /// (evictions only cost an extra search).
    pub fn with_cache_config(mut self, config: CacheConfig) -> Self {
        self.cache = QueryCache::with_config(config);
        self
    }

    /// The configuration, fixed at construction.
    pub fn config(&self) -> &AnnotatorConfig {
        &self.config
    }

    /// The query cache (hit/miss accounting, clearing between runs).
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Cache accounting so far — `hits` is the number of search queries
    /// the memo saved.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The distinct-address geocoding memo (accounting, clearing).
    pub fn geo_memo(&self) -> &GeocodeCache {
        &self.geo_memo
    }

    /// Geocoding-memo accounting so far — `hits` is the number of
    /// geocoder round-trips the memo saved across the corpus.
    pub fn geo_stats(&self) -> CacheStats {
        self.geo_memo.stats()
    }

    /// The snippet-class memo (accounting): its hits are snippet
    /// classifications saved on query-cache misses.
    pub fn class_memo(&self) -> &SnippetClassMemo {
        &self.class_memo
    }

    /// Annotates one table, queries memoized: every candidate cell's
    /// query is built first, the table's cache misses go to the engine
    /// in one batch ([`SearchEngine::search_many`]), and each entry's
    /// verdict is judged on its first use, through the snippet-class
    /// memo, and attached to its cell on every later hit.
    pub fn annotate_table(&self, table: &Table) -> TableAnnotations {
        let table = prepared_table(table);
        let table = table.as_ref();

        let pre = preprocess(table, &self.config);
        let spatial = spatial_context_for(
            table,
            self.geocoder.as_deref(),
            Some(&self.geo_memo),
            &self.config,
        );

        let queries: Vec<(CellId, String)> = pre
            .candidates
            .iter()
            .map(|&cell| (cell, build_cell_query(table, cell, spatial.as_ref())))
            .filter(|(_, query)| !query.trim().is_empty())
            .collect();
        let keys: Vec<(&str, usize)> = queries
            .iter()
            .map(|(_, query)| (query.as_str(), self.config.top_k))
            .collect();
        let answers = self.cache.get_or_search_many(self.engine.as_ref(), &keys);
        let annotations: Vec<CellAnnotation> = queries
            .iter()
            .zip(answers)
            .filter_map(|(&(cell, _), answer)| {
                answer
                    .verdict(|results| {
                        memoized_verdict(results, &self.classifier, &self.config, &self.class_memo)
                    })
                    .map(|v| v.at(cell))
            })
            .collect();

        finish_table(table, annotations, &pre, &self.config)
    }

    /// Streams tables from `source` through the annotator into `sink`
    /// with at most `max_in_flight` tables live at once — the corpus
    /// driver for inputs that should not (or cannot) be materialized as
    /// a `Vec<Table>`.
    ///
    /// Semantics:
    ///
    /// * **Bounded memory.** The driver holds at most `max_in_flight`
    ///   tables' worth of annotation state (queued for a worker, being
    ///   annotated, or parked awaiting an earlier straggler); memory is
    ///   O(window), not O(corpus). The observed high-water mark is
    ///   returned in [`StreamSummary::peak_in_flight`].
    /// * **Order-preserving.** The sink receives results in exactly the
    ///   order the source yielded them, whatever the worker
    ///   interleaving (see `crates/core/src/README.md`).
    /// * **Bit-identical.** Each table's annotations equal a direct
    ///   [`annotate_table`](Self::annotate_table) call — the window size
    ///   and worker count change throughput and footprint, never a
    ///   result.
    /// * **Error isolation.** A source error occupies one stream
    ///   position and reaches the sink as
    ///   [`on_error`](AnnotationSink::on_error); the stream continues.
    ///
    /// `max_in_flight == 1` degrades to a strictly sequential pull →
    /// annotate → deliver loop; [`crate::stream::default_max_in_flight`]
    /// is the throughput-oriented default.
    pub fn annotate_stream<S, K>(
        &self,
        mut source: S,
        sink: &mut K,
        max_in_flight: usize,
    ) -> StreamSummary
    where
        S: TableSource,
        K: AnnotationSink<S::Item>,
    {
        use std::cell::Cell;

        // produce and consume both run on the driver thread, so plain
        // Cell counters observe the true pulled-minus-emitted gap.
        let issued = Cell::new(0usize);
        let emitted = Cell::new(0usize);
        let peak = Cell::new(0usize);
        let annotated = Cell::new(0usize);
        let errors = Cell::new(0usize);

        rayon::par_map_windowed(
            max_in_flight.max(1),
            || {
                let next = source.next_table();
                if next.is_some() {
                    issued.set(issued.get() + 1);
                    peak.set(peak.get().max(issued.get() - emitted.get()));
                }
                next
            },
            |item: &Result<S::Item, crate::stream::SourceError>| {
                item.as_ref()
                    .ok()
                    .map(|table| self.annotate_table(table.borrow()))
            },
            |index, item, result| {
                emitted.set(emitted.get() + 1);
                match (item, result) {
                    (Ok(table), Some(annotations)) => {
                        annotated.set(annotated.get() + 1);
                        sink.on_annotated(AnnotatedTable {
                            index,
                            table,
                            annotations,
                        });
                    }
                    (Err(error), _) => {
                        errors.set(errors.get() + 1);
                        sink.on_error(index, error);
                    }
                    (Ok(_), None) => unreachable!("ok items are always annotated"),
                }
            },
        );

        StreamSummary {
            annotated: annotated.get(),
            errors: errors.get(),
            peak_in_flight: peak.get(),
        }
    }
}

// Compile-time proof the batch engine is shareable across worker threads.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<BatchAnnotator>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use teda_classifier::naive_bayes::NaiveBayesConfig;
    use teda_classifier::{Dataset, NaiveBayes};
    use teda_text::FeatureExtractor;
    use teda_websim::SearchResult;

    use crate::model::{AnyModel, TypeLabels};

    /// Engine: restaurant-sounding snippets for queries containing a known
    /// restaurant name, museum vocabulary for the literal word "museum".
    struct Scripted;

    impl SearchEngine for Scripted {
        fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
            let q = query.to_lowercase();
            let snippet: &str = if q.contains("melisse") || q.contains("bayona") {
                "menu cuisine dining chef tasting"
            } else if q.contains("museum") {
                "exhibition gallery collection paintings curated"
            } else {
                return Vec::new();
            };
            (0..k)
                .map(|i| SearchResult {
                    url: format!("http://scripted/{i}"),
                    title: "t".into(),
                    snippet: snippet.to_owned(),
                })
                .collect()
        }
    }

    fn classifier() -> SnippetClassifier {
        let mut fx = FeatureExtractor::new();
        let rest = fx.fit_transform("menu cuisine dining chef tasting");
        let musm = fx.fit_transform("exhibition gallery collection paintings curated");
        let other = fx.fit_transform("random generic website words");
        let mut data = Dataset::new(3, fx.dim());
        for _ in 0..8 {
            data.push(rest.clone(), 0);
            data.push(musm.clone(), 1);
            data.push(other.clone(), 2);
        }
        let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
        SnippetClassifier::new(
            fx,
            AnyModel::Bayes(nb),
            TypeLabels::with_other(vec![EntityType::Restaurant, EntityType::Museum]),
        )
    }

    fn annotator(postproc: bool) -> Annotator {
        Annotator::new(
            Arc::new(Scripted),
            classifier(),
            AnnotatorConfig {
                targets: vec![EntityType::Restaurant, EntityType::Museum],
                use_postprocessing: postproc,
                ..AnnotatorConfig::default()
            },
        )
    }

    #[test]
    fn end_to_end_restaurant_table() {
        let t = Table::builder(2)
            .column_type(1, ColumnType::Location)
            .row(vec!["Melisse", "1104 Wilshire Blvd"])
            .unwrap()
            .row(vec!["Bayona", "430 Dauphine St"])
            .unwrap()
            .build()
            .unwrap();
        let a = annotator(true);
        let result = a.annotate_table(&t);
        assert_eq!(result.cells.len(), 2);
        assert!(result
            .cells
            .iter()
            .all(|c| c.etype == EntityType::Restaurant));
        let rows = result.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name_cell, CellId::new(0, 0));
        // address column never queried
        assert_eq!(result.queried_cells, 2);
        assert_eq!(result.skipped_cells, 2);
    }

    #[test]
    fn figure8_scenario_fixed_by_postprocessing() {
        // Column 1 repeats "Museum"; its cells classify as museums, but
        // Eq. 2 kills the column. (Names here are *not* searchable in the
        // scripted engine, so column 0 yields nothing and column 1 wins
        // only without post-processing.)
        let t = Table::builder(2)
            .row(vec!["Melisse", "Museum"])
            .unwrap()
            .row(vec!["Bayona", "Museum"])
            .unwrap()
            .build()
            .unwrap();
        let raw = annotator(false);
        let without = raw.annotate_table(&t);
        let museum_hits = without.of_type(EntityType::Museum).count();
        assert_eq!(museum_hits, 2, "repeated Museum cells get misannotated");

        let post = annotator(true);
        let with = post.annotate_table(&t);
        // Restaurant annotations in column 0 survive; the Museum-typed
        // annotations survive too (their own column argmax), but the point
        // is the restaurant column is not suppressed by them.
        assert_eq!(with.of_type(EntityType::Restaurant).count(), 2);
    }

    #[test]
    fn untyped_tables_get_inferred() {
        let t = Table::builder(2)
            .column_types(vec![ColumnType::Unknown, ColumnType::Unknown])
            .unwrap()
            .row(vec!["Melisse", "4.5"])
            .unwrap()
            .row(vec!["Bayona", "4.2"])
            .unwrap()
            .build()
            .unwrap();
        let a = annotator(true);
        let result = a.annotate_table(&t);
        // numeric column inferred → skipped; names annotated
        assert_eq!(result.queried_cells, 2);
        assert_eq!(result.cells.len(), 2);
    }

    #[test]
    fn empty_table_yields_empty_result() {
        let t = Table::builder(2).build().unwrap();
        let a = annotator(true);
        let r = a.annotate_table(&t);
        assert!(r.cells.is_empty());
        assert_eq!(r.queried_cells, 0);
    }

    fn small_corpus() -> Vec<Table> {
        (0..6)
            .map(|i| {
                Table::builder(2)
                    .name(format!("stream_{i}"))
                    .column_type(1, ColumnType::Location)
                    .row(vec!["Melisse", "1104 Wilshire Blvd"])
                    .unwrap()
                    .row(vec![if i % 2 == 0 { "Bayona" } else { "Museum" }, "x"])
                    .unwrap()
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn streaming_matches_the_batch_path_at_every_window() {
        let tables = small_corpus();
        let reference: Vec<TableAnnotations> = {
            let batch = annotator(true).into_batch();
            tables.iter().map(|t| batch.annotate_table(t)).collect()
        };
        for window in [1, 2, 3, 64] {
            let batch = annotator(true).into_batch();
            let mut sink = crate::stream::Collect::new();
            let summary =
                batch.annotate_stream(crate::stream::SliceSource::new(&tables), &mut sink, window);
            assert_eq!(summary.annotated, tables.len());
            assert_eq!(summary.errors, 0);
            assert!(
                summary.peak_in_flight <= window,
                "window {window} held {} tables",
                summary.peak_in_flight
            );
            assert_eq!(
                sink.into_annotations().unwrap(),
                reference,
                "window {window} diverged from the batch path"
            );
        }
    }

    #[test]
    fn mid_stream_errors_occupy_their_position_and_do_not_sink_the_stream() {
        use crate::stream::{IterSource, SourceError};
        let tables = small_corpus();
        let batch = annotator(true).into_batch();
        let reference: Vec<TableAnnotations> =
            tables.iter().map(|t| batch.annotate_table(t)).collect();

        let items: Vec<Result<Table, SourceError>> = {
            let mut v: Vec<Result<Table, SourceError>> = tables.iter().cloned().map(Ok).collect();
            v.insert(2, Err(SourceError::msg("ragged csv")));
            v
        };
        let mut sink = crate::stream::Collect::new();
        let summary = batch.annotate_stream(IterSource::new(items.into_iter()), &mut sink, 3);
        assert_eq!(summary.annotated, tables.len());
        assert_eq!(summary.errors, 1);
        let results = sink.into_results();
        assert_eq!(results.len(), tables.len() + 1);
        assert_eq!(results[2].as_ref().unwrap_err().message(), "ragged csv");
        for (i, want) in reference.iter().enumerate() {
            let slot = if i < 2 { i } else { i + 1 };
            assert_eq!(results[slot].as_ref().unwrap(), want, "slot {slot}");
        }
    }
}
