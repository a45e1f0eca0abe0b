//! Streaming annotation properties: for **any** in-flight window in
//! `{1, 2, 7, num_cells}`, **any** source chunking, and **any**
//! mid-stream per-table errors, the streamed output is bit-identical to
//! the offline batch path, errors surface at exactly their stream
//! positions, and the driver never holds more than `max_in_flight`
//! tables live.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use teda::classifier::svm::pegasos::PegasosConfig;
use teda::core::config::AnnotatorConfig;
use teda::core::pipeline::{BatchAnnotator, TableAnnotations};
use teda::core::stream::{
    default_max_in_flight, table_channel, Collect, SliceSource, SourceError, TableFeed,
};
use teda::core::trainer::{harvest, train_svm_linear, TrainerConfig};
use teda::corpus::gft::poi_table;
use teda::kb::{CategoryNetwork, EntityType, World, WorldSpec};
use teda::simkit::rng_from_seed;
use teda::tabular::Table;
use teda::websim::{BingSim, WebCorpus, WebCorpusSpec};

/// Everything the property cases share, built once: the corpus, the
/// offline reference, the (warm-cached) batch annotator, and the window
/// ladder `{1, 2, 7, num_cells}`.
struct Shared {
    tables: Vec<Table>,
    reference: Vec<TableAnnotations>,
    batch: BatchAnnotator,
    windows: [usize; 4],
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let world = World::generate(WorldSpec::tiny(), 42);
        let net = CategoryNetwork::build(&world, 42);
        let web = Arc::new(WebCorpus::build(&world, WebCorpusSpec::tiny(), 42));
        let engine = Arc::new(BingSim::instant(web));
        let corpus = harvest(
            &world,
            &net,
            engine.as_ref(),
            &EntityType::TARGETS,
            TrainerConfig {
                max_entities_per_type: Some(12),
                ..TrainerConfig::default()
            },
        );
        let classifier = train_svm_linear(&corpus, PegasosConfig::default());

        let mut rng = rng_from_seed(7);
        let types = [
            EntityType::Restaurant,
            EntityType::Museum,
            EntityType::Hotel,
        ];
        let tables: Vec<Table> = (0..7)
            .map(|i| {
                poi_table(
                    &world,
                    types[i % types.len()],
                    10,
                    (i % 3) as u8,
                    &format!("prop_{i}"),
                    &mut rng,
                )
                .table
            })
            .collect();
        let num_cells: usize = tables.iter().map(|t| t.n_rows() * t.n_cols()).sum();

        let batch = BatchAnnotator::new(engine, classifier, AnnotatorConfig::default());
        let reference = tables.iter().map(|t| batch.annotate_table(t)).collect();
        Shared {
            tables,
            reference,
            batch,
            windows: [1, 2, 7, num_cells.max(8)],
        }
    })
}

/// Feeds `items` through a bounded channel in the given chunking
/// (chunk boundaries yield the producer thread, so the interleaving
/// against the pulling driver genuinely varies case to case).
fn feed_chunked(feed: TableFeed, items: Vec<Result<Table, SourceError>>, chunk_sizes: Vec<usize>) {
    let mut chunks = chunk_sizes.into_iter().cycle();
    let mut sent_in_chunk = 0usize;
    let mut chunk = chunks.next().unwrap_or(1).max(1);
    for item in items {
        let pushed = match item {
            Ok(table) => feed.push(table).is_ok(),
            Err(error) => feed.push_error(error).is_ok(),
        };
        assert!(pushed, "driver dropped the source mid-stream");
        sent_in_chunk += 1;
        if sent_in_chunk >= chunk {
            sent_in_chunk = 0;
            chunk = chunks.next().unwrap_or(1).max(1);
            std::thread::yield_now();
        }
    }
}

proptest! {
    /// The acceptance property: streaming == offline batch, for any
    /// window in the ladder, any chunking, any channel capacity, and
    /// any mid-stream error positions.
    #[test]
    fn streaming_is_bit_identical_to_batch(
        window_sel in 0usize..4,
        capacity in 1usize..6,
        chunk_sizes in proptest::collection::vec(1usize..5, 1..6),
        error_slots in proptest::collection::vec(0usize..8, 0..4),
    ) {
        let s = shared();
        let window = s.windows[window_sel];

        // Interleave per-table errors at the requested positions.
        let mut error_positions: Vec<usize> = error_slots
            .iter()
            .map(|&p| p % (s.tables.len() + 1))
            .collect();
        error_positions.sort_unstable();
        error_positions.dedup();
        let mut items: Vec<Result<Table, SourceError>> =
            s.tables.iter().cloned().map(Ok).collect();
        for (nth, &pos) in error_positions.iter().enumerate() {
            items.insert(pos + nth, Err(SourceError::msg(format!("bad #{nth}"))));
        }
        let total = items.len();
        let error_indices: Vec<usize> = items
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect();

        let (feed, source) = table_channel(capacity);
        let (results, summary) = std::thread::scope(|scope| {
            scope.spawn(|| feed_chunked(feed, items, chunk_sizes));
            let mut sink = teda::core::stream::Collect::new();
            let summary = s.batch.annotate_stream(source, &mut sink, window);
            (sink.into_results(), summary)
        });

        prop_assert_eq!(results.len(), total);
        prop_assert_eq!(summary.errors, error_indices.len());
        prop_assert_eq!(summary.annotated, s.tables.len());
        prop_assert!(
            summary.peak_in_flight <= window,
            "window {} held {} tables",
            window,
            summary.peak_in_flight
        );

        // Errors at exactly their stream positions, annotations in
        // table order and bit-identical to the batch reference.
        let mut next_table = 0usize;
        for (i, slot) in results.iter().enumerate() {
            match slot {
                Err(e) => {
                    prop_assert!(
                        error_indices.contains(&i),
                        "unexpected error at {}: {}", i, e
                    );
                }
                Ok(annotations) => {
                    prop_assert_eq!(
                        annotations,
                        &s.reference[next_table],
                        "table {} diverged (window {})", next_table, window
                    );
                    next_table += 1;
                }
            }
        }
        prop_assert_eq!(next_table, s.tables.len());
    }
}

/// A corpus already in memory streams through a slice source into a
/// collecting sink: sequentially and at the default window, the result
/// is the reference.
#[test]
fn slice_streams_match_the_reference() {
    let s = shared();
    for window in [1, default_max_in_flight()] {
        let mut sink = Collect::new();
        s.batch
            .annotate_stream(SliceSource::new(&s.tables), &mut sink, window);
        assert_eq!(
            sink.into_annotations().unwrap(),
            s.reference,
            "window {window}"
        );
    }
}
