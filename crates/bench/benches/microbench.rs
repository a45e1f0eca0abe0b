//! Criterion microbenchmarks for the hot paths of the pipeline:
//! text processing, classification, retrieval, the cluster scatter,
//! annotation and the two graph/scoring algorithms.
//!
//! Run with `cargo bench -p teda-bench`.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use teda_classifier::naive_bayes::NaiveBayesConfig;
use teda_classifier::svm::pegasos::PegasosConfig;
use teda_classifier::svm::smo::{SmoConfig, SmoSvm};
use teda_classifier::Kernel;
use teda_core::config::AnnotatorConfig;
use teda_core::postprocess::eliminate_spurious;
use teda_core::preprocess::preprocess;
use teda_core::trainer::{harvest, train_bayes, train_svm_linear, TrainerConfig};
use teda_corpus::gft::{category_column_table, poi_table};
use teda_geo::disambiguate::{disambiguate, reference, DisambiguationConfig};
use teda_geo::synthetic::{generate, GazetteerSpec};
use teda_geo::{Gazetteer, LocationId, LocationKind};
use teda_kb::{CategoryNetwork, EntityType, World, WorldSpec};
use teda_simkit::rng_from_seed;
use teda_tabular::CellId;
use teda_text::{FeatureExtractor, Stemmer};
use teda_websim::{BingSim, SearchBackend, SearchEngine, WebCorpus, WebCorpusSpec};

const SNIPPET: &str =
    "Melisse restaurant Santa Monica tasting menu cuisine chef wine dinner seasonal michelin \
     reservations dining";

/// Mostly words [`SNIPPET`] never taught the extractor, with stopwords,
/// capitals, digits and punctuation mixed in: the featurizer's slow path.
const OOV_SNIPPET: &str =
    "Zanzibar's quixotic archipelago, renowned for the flamboyant spice markets and \
     coral-stone labyrinths of Stone Town (UNESCO, 2000) and its Dhow harbour";

fn bench_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("text");
    let mut stemmer = Stemmer::new();
    group.bench_function("porter_stem_word", |b| {
        b.iter(|| stemmer.stem(black_box("universities")).len())
    });
    let mut fx = FeatureExtractor::new();
    fx.fit_transform(SNIPPET);
    group.bench_function("feature_extract_snippet", |b| {
        b.iter(|| fx.transform(black_box(SNIPPET)).nnz())
    });
    group.bench_function("feature_extract_oov_snippet", |b| {
        b.iter(|| fx.transform(black_box(OOV_SNIPPET)).nnz())
    });
    // Every page snippet of the tiny Web against a harvested vocabulary;
    // divide the time per iteration by the count in the name for the
    // mean per snippet.
    let world = World::generate(WorldSpec::tiny(), 42);
    let net = CategoryNetwork::build(&world, 42);
    let web = Arc::new(WebCorpus::build(&world, WebCorpusSpec::tiny(), 42));
    let snippets: Vec<String> = web.pages().iter().map(|p| p.snippet()).collect();
    let corpus = harvest(
        &world,
        &net,
        &BingSim::instant(web),
        &EntityType::TARGETS,
        TrainerConfig {
            max_entities_per_type: Some(10),
            ..TrainerConfig::default()
        },
    );
    let fx = corpus.extractor;
    group.bench_function(
        &format!("feature_extract_tiny_web_{}_snippets", snippets.len()),
        |b| {
            b.iter(|| {
                snippets
                    .iter()
                    .map(|s| fx.transform(black_box(s)).nnz())
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

fn bench_classifiers(c: &mut Criterion) {
    let world = World::generate(WorldSpec::tiny(), 42);
    let net = CategoryNetwork::build(&world, 42);
    let web = WebCorpus::build(&world, WebCorpusSpec::tiny(), 42);
    let engine = BingSim::instant(Arc::new(web));
    let corpus = harvest(
        &world,
        &net,
        &engine,
        &EntityType::TARGETS,
        TrainerConfig {
            max_entities_per_type: Some(10),
            ..TrainerConfig::default()
        },
    );
    let nb = train_bayes(&corpus, NaiveBayesConfig::snippet_default());
    let svm = train_svm_linear(&corpus, PegasosConfig::default());

    let mut group = c.benchmark_group("classifier");
    group.bench_function("naive_bayes_classify_snippet", |b| {
        b.iter(|| nb.classify(black_box(SNIPPET)))
    });
    group.bench_function("svm_linear_classify_snippet", |b| {
        b.iter(|| svm.classify(black_box(SNIPPET)))
    });
    group.bench_function("pegasos_train_ovr_12class", |b| {
        b.iter(|| train_svm_linear(&corpus, PegasosConfig::default()))
    });
    group.finish();
}

fn bench_smo(c: &mut Criterion) {
    // A small binary problem of realistic snippet vectors.
    let world = World::generate(WorldSpec::tiny(), 7);
    let net = CategoryNetwork::build(&world, 7);
    let web = WebCorpus::build(&world, WebCorpusSpec::tiny(), 7);
    let engine = BingSim::instant(Arc::new(web));
    let corpus = harvest(
        &world,
        &net,
        &engine,
        &[EntityType::Restaurant, EntityType::Museum],
        TrainerConfig {
            max_entities_per_type: Some(8),
            ..TrainerConfig::default()
        },
    );
    let xs: Vec<_> = corpus.train.xs().to_vec();
    let ys: Vec<f64> = corpus
        .train
        .ys()
        .iter()
        .map(|&y| if y == 0 { 1.0 } else { -1.0 })
        .collect();
    c.bench_function("smo_train_rbf_binary", |b| {
        b.iter(|| {
            SmoSvm::train(
                &xs,
                &ys,
                SmoConfig {
                    kernel: Kernel::Rbf { gamma: 8.0 },
                    ..SmoConfig::default()
                },
            )
            .n_support()
        })
    });
}

fn bench_search(c: &mut Criterion) {
    let world = World::generate(WorldSpec::default(), 42);
    let web = WebCorpus::build(&world, WebCorpusSpec::default(), 42);
    let pages = web.pages().to_vec();
    let engine = BingSim::instant(Arc::new(web));
    let name = world.entities()[0].name.clone();

    let mut group = c.benchmark_group("search");
    group.bench_function("bm25_search_top10", |b| {
        b.iter(|| engine.search(black_box(&name), 10).len())
    });
    // The interned-term index: bounded-heap ranking vs the historical
    // full sort, and a from-scratch build of the whole collection.
    let index = teda_websim::index::InvertedIndex::build(&pages);
    group.bench_function("index_heap_top10", |b| {
        b.iter(|| index.search(black_box(&name), 10).len())
    });
    // The same query over the same world plus ~200k noise pages: the
    // postings it walks barely change, so neither should its cost.
    let noisy = WebCorpus::build(
        &world,
        WebCorpusSpec {
            noise_pages: 200_000,
            ..WebCorpusSpec::default()
        },
        42,
    );
    group.bench_function("index_heap_top10_plus_200k_noise", |b| {
        b.iter(|| noisy.index().search(black_box(&name), 10).len())
    });
    group.bench_function("index_full_sort_top10", |b| {
        b.iter(|| index.search_full_sort(black_box(&name), 10).len())
    });
    group.bench_function("index_build_full_corpus", |b| {
        b.iter(|| teda_websim::index::InvertedIndex::build(black_box(&pages)).n_terms())
    });
    group.finish();
}

/// One routed `SEARCH-FULL` over the Quick corpus in 4 mmap'd shards
/// behind a loopback router: the scatter, 4 shard rankings, the replies
/// and the merge.
fn bench_cluster(c: &mut Criterion) {
    use teda_cluster::{partition_corpus, ClusterRouter, RouterConfig, ShardServer};

    let world = World::generate(WorldSpec::tiny(), 42);
    let web = WebCorpus::build(&world, WebCorpusSpec::tiny(), 42);
    let root = std::env::temp_dir().join(format!("teda_microbench_cluster_{}", std::process::id()));
    let dirs = partition_corpus(&web, 4, &root).expect("partition the Quick corpus");
    let servers: Vec<ShardServer> = dirs
        .iter()
        .map(|dir| ShardServer::start(dir, true, "127.0.0.1:0").expect("serve shard"))
        .collect();
    let topology: Vec<Vec<_>> = servers.iter().map(|s| vec![s.local_addr()]).collect();
    let router = ClusterRouter::connect(&topology, RouterConfig::default()).expect("connect");
    let name = world.entities()[0].name.clone();
    c.bench_function("cluster_scatter", |b| {
        b.iter(|| router.search_results(black_box(&name), 10).len())
    });
    for server in servers {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

fn bench_batch(c: &mut Criterion) {
    use teda_core::pipeline::BatchAnnotator;

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
            max_entities_per_type: Some(10),
            ..TrainerConfig::default()
        },
    );
    let svm = train_svm_linear(&corpus, PegasosConfig::default());
    let mut rng = rng_from_seed(3);
    let tables: Vec<_> = (0..6)
        .map(|i| {
            poi_table(
                &world,
                EntityType::Restaurant,
                12,
                (i % 3) as u8,
                &format!("bb_{i}"),
                &mut rng,
            )
            .table
        })
        .collect();

    let mut group = c.benchmark_group("batch");
    let cold = BatchAnnotator::new(engine.clone(), svm.clone(), AnnotatorConfig::default());
    group.bench_function("annotate_corpus_seq", |b| {
        b.iter(|| {
            cold.cache().clear();
            cold.annotate_corpus(black_box(&tables)).len()
        })
    });
    let par = BatchAnnotator::new(engine.clone(), svm.clone(), AnnotatorConfig::default());
    group.bench_function("annotate_corpus_par", |b| {
        b.iter(|| {
            par.cache().clear();
            par.annotate_corpus_par(black_box(&tables)).len()
        })
    });
    let warm = BatchAnnotator::new(engine, svm, AnnotatorConfig::default());
    warm.annotate_corpus(&tables);
    group.bench_function("annotate_corpus_warm_cache", |b| {
        b.iter(|| warm.annotate_corpus(black_box(&tables)).len())
    });
    group.finish();
}

fn bench_annotation(c: &mut Criterion) {
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
            max_entities_per_type: Some(10),
            ..TrainerConfig::default()
        },
    );
    let svm = train_svm_linear(&corpus, PegasosConfig::default());
    let mut rng = rng_from_seed(1);
    let table = poi_table(&world, EntityType::Restaurant, 20, 0, "bench", &mut rng);

    let annotator = teda_core::pipeline::Annotator::new(engine, svm, AnnotatorConfig::default());
    c.bench_function("annotate_20row_poi_table", |b| {
        b.iter(|| {
            annotator
                .annotate_table(black_box(&table.table))
                .cells
                .len()
        })
    });
}

fn bench_pre_and_postprocess(c: &mut Criterion) {
    let world = World::generate(WorldSpec::tiny(), 42);
    let mut rng = rng_from_seed(2);
    let gold = category_column_table(&world, EntityType::Museum, 50, "fig8", &mut rng);
    let config = AnnotatorConfig::default();

    let mut group = c.benchmark_group("pipeline_steps");
    group.bench_function("preprocess_50row_table", |b| {
        b.iter(|| preprocess(black_box(&gold.table), &config).candidates.len())
    });

    let annotations: Vec<_> = (0..50)
        .flat_map(|i| {
            [
                teda_core::annotate::CellAnnotation {
                    cell: CellId::new(i, 0),
                    etype: EntityType::Museum,
                    score: 0.8,
                    votes: 8,
                },
                teda_core::annotate::CellAnnotation {
                    cell: CellId::new(i, 1),
                    etype: EntityType::Museum,
                    score: 1.0,
                    votes: 10,
                },
            ]
        })
        .collect();
    group.bench_function("postprocess_eq2_100_annotations", |b| {
        b.iter(|| eliminate_spurious(black_box(&gold.table), annotations.clone()).len())
    });
    group.finish();
}

fn bench_disambiguation(c: &mut Criterion) {
    let g = Gazetteer::figure7();
    let find_city = |name: &str, mark: &str| {
        g.lookup_kind(name, LocationKind::City)
            .into_iter()
            .find(|&id| g.full_name(id).contains(mark))
            .unwrap()
    };
    let cells = vec![
        (
            CellId::new(11, 0),
            g.lookup_kind("Pennsylvania Avenue", LocationKind::Street),
        ),
        (
            CellId::new(11, 1),
            vec![
                find_city("Washington", "D.C."),
                find_city("Washington", "GA"),
            ],
        ),
        (
            CellId::new(12, 0),
            g.lookup_kind("Wofford Lane", LocationKind::Street),
        ),
        (
            CellId::new(12, 1),
            vec![
                find_city("College Park", "MD"),
                find_city("College Park", "GA"),
            ],
        ),
        (
            CellId::new(19, 0),
            g.lookup_kind("Clarksville Street", LocationKind::Street),
        ),
        (
            CellId::new(19, 1),
            vec![
                find_city("Paris", "TX"),
                find_city("Paris", "France"),
                find_city("Paris", "TN"),
            ],
        ),
    ];
    c.bench_function("toponym_disambiguation_fig7", |b| {
        b.iter(|| disambiguate(&g, black_box(&cells), DisambiguationConfig::default()).iterations)
    });

    // A benchmark-sized table: 25 address cells in one column, each a
    // street name without a city, so every street bearing the name is a
    // candidate (~20 each over the default synthetic gazetteer). Here the
    // pairwise edge scan and the per-sweep ranking sort show.
    let g = generate(GazetteerSpec::default(), 7);
    let streets: Vec<LocationId> = g.of_kind(LocationKind::Street).collect();
    let column: Vec<(CellId, Vec<LocationId>)> = (0..25)
        .map(|row| {
            let named = streets[(row * 37 + 11) % streets.len()];
            (
                CellId::new(row, 1),
                g.lookup(&g.location(named).name).to_vec(),
            )
        })
        .collect();
    let mut group = c.benchmark_group("disambiguation_25_cell_column");
    group.bench_function("key_join", |b| {
        b.iter(|| disambiguate(&g, black_box(&column), DisambiguationConfig::default()).iterations)
    });
    group.bench_function("pairwise_reference", |b| {
        b.iter(|| {
            reference::disambiguate(&g, black_box(&column), DisambiguationConfig::default())
                .iterations
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_text,
    bench_classifiers,
    bench_smo,
    bench_search,
    bench_cluster,
    bench_batch,
    bench_annotation,
    bench_pre_and_postprocess,
    bench_disambiguation
);
criterion_main!(benches);
