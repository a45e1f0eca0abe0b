//! Batch annotation engine: the parallel corpus path must be
//! *bit-identical* to the sequential path on a seeded corpus, the query
//! cache must account hits/misses exactly, and the memo must never change
//! an annotation.

use std::sync::Arc;

use teda::classifier::svm::pegasos::PegasosConfig;
use teda::core::config::AnnotatorConfig;
use teda::core::model::SnippetClassifier;
use teda::core::pipeline::{Annotator, BatchAnnotator, TableAnnotations};
use teda::core::trainer::{harvest, train_svm_linear, TrainerConfig};
use teda::corpus::gft::poi_table;
use teda::kb::{CategoryNetwork, EntityType, World, WorldSpec};
use teda::simkit::rng_from_seed;
use teda::tabular::Table;
use teda::websim::{BingSim, WebCorpus, WebCorpusSpec};

fn fixture() -> (World, Arc<BingSim>, SnippetClassifier) {
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
    (world, engine, classifier)
}

/// A corpus whose entity sampling cycles the per-type pools, guaranteeing
/// duplicate cell contents across tables.
fn seeded_corpus(world: &World, n_tables: usize, rows: usize) -> Vec<Table> {
    let mut rng = rng_from_seed(7);
    let types = [
        EntityType::Restaurant,
        EntityType::Museum,
        EntityType::Hotel,
    ];
    (0..n_tables)
        .map(|i| {
            poi_table(
                world,
                types[i % types.len()],
                rows,
                (i % 3) as u8,
                &format!("corpus_{i}"),
                &mut rng,
            )
            .table
        })
        .collect()
}

#[test]
fn parallel_corpus_annotation_is_bit_identical_to_sequential() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 9, 12);
    let config = AnnotatorConfig::default();

    let sequential = BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone());
    let parallel = BatchAnnotator::new(engine, classifier, config);

    let seq: Vec<TableAnnotations> = sequential.annotate_corpus(&tables);
    let par: Vec<TableAnnotations> = parallel.annotate_corpus_par(&tables);

    assert_eq!(seq, par, "parallel corpus annotation diverged");
    // and at least something was annotated, so the test has teeth
    assert!(
        seq.iter().any(|t| !t.cells.is_empty()),
        "corpus produced no annotations at all"
    );
}

#[test]
fn batch_annotate_table_matches_annotator() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 2, 10);
    let config = AnnotatorConfig::default();

    let single = Annotator::new(engine.clone(), classifier.clone(), config.clone());
    let batch = BatchAnnotator::new(engine, classifier, config);

    for table in &tables {
        let reference = single.annotate_table(table);
        assert_eq!(batch.annotate_table(table), reference, "cached diverged");
    }
}

#[test]
fn duplicate_cells_hit_the_cache_and_save_queries() {
    let (world, engine, classifier) = fixture();
    // Duplicates both across tables (entity cycling) and across repeats.
    let tables = seeded_corpus(&world, 8, 14);
    let batch = BatchAnnotator::new(engine.clone(), classifier, AnnotatorConfig::default());

    let q0 = engine.query_count();
    batch.annotate_corpus_par(&tables);
    let engine_queries = engine.query_count() - q0;

    let stats = batch.cache_stats();
    assert!(stats.hits > 0, "duplicate contents must produce hits");
    assert_eq!(
        stats.misses, engine_queries,
        "every miss is exactly one engine search (single flight)"
    );
    let total_lookups = stats.hits + stats.misses;
    assert!(
        engine_queries < total_lookups,
        "memo must cut engine traffic: {engine_queries} searches for {total_lookups} lookups"
    );

    // Annotating the same corpus again through the same engine is free.
    let q1 = engine.query_count();
    batch.annotate_corpus(&tables);
    assert_eq!(engine.query_count(), q1, "warm cache must not search");
}
