//! Batch annotation engine: the parallel corpus path must be
//! *bit-identical* to the sequential path on a seeded corpus, the query
//! cache must account hits/misses exactly, and the memo must never change
//! an annotation, the verdict it keeps beside each result list included.

use std::sync::Arc;

use teda::classifier::naive_bayes::NaiveBayesConfig;
use teda::classifier::svm::pegasos::PegasosConfig;
use teda::core::annotate::{
    annotate_from_results, build_cell_query, memoized_verdict, verdict, CellAnnotation,
    SnippetClassMemo, Verdict,
};
use teda::core::cache::CacheConfig;
use teda::core::config::AnnotatorConfig;
use teda::core::model::SnippetClassifier;
use teda::core::pipeline::{Annotator, BatchAnnotator, TableAnnotations};
use teda::core::preprocess::preprocess;
use teda::core::stream::{default_max_in_flight, Collect, SliceSource};
use teda::core::trainer::{harvest, train_bayes, train_svm_linear, TrainerConfig};
use teda::corpus::gft::poi_table;
use teda::kb::{CategoryNetwork, EntityType, World, WorldSpec};
use teda::service::{AnnotationService, LiveCorpus, ServiceConfig};
use teda::simkit::rng_from_seed;
use teda::store::{CorpusStore, TierPolicy};
use teda::tabular::{CellId, Table};
use teda::websim::{BingSim, SearchEngine, SearchResult, WebCorpus, WebCorpusSpec, WebPage};

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

/// Annotates `tables` through `batch`'s streaming driver with `window`
/// tables in flight, in table order.
fn annotate_all(batch: &BatchAnnotator, tables: &[Table], window: usize) -> Vec<TableAnnotations> {
    let mut sink = Collect::new();
    batch.annotate_stream(SliceSource::new(tables), &mut sink, window);
    sink.into_annotations()
        .expect("slice sources never yield errors")
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

    let seq: Vec<TableAnnotations> = annotate_all(&sequential, &tables, 1);
    let par: Vec<TableAnnotations> = annotate_all(&parallel, &tables, default_max_in_flight());

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
    annotate_all(&batch, &tables, default_max_in_flight());
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
    annotate_all(&batch, &tables, 1);
    assert_eq!(engine.query_count(), q1, "warm cache must not search");
}

/// A table's misses go to the engine as one batch. From 1 and from 8
/// threads sharing one annotator, at cache capacity 1 and unbounded,
/// every table's annotations equal the uncached per-cell `Annotator`'s,
/// and the engine is charged one query per distinct key it was sent:
/// exactly the cache's misses, never a repeat within a table.
#[test]
fn batched_tables_match_the_per_cell_path_at_every_capacity_and_thread_count() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 16, 14);
    let config = AnnotatorConfig::default();
    let single = Annotator::new(engine.clone(), classifier.clone(), config.clone());
    let reference: Vec<TableAnnotations> =
        tables.iter().map(|t| single.annotate_table(t)).collect();
    let distinct = |queries: Vec<String>| {
        let mut queries = queries;
        queries.sort();
        queries.dedup();
        queries.len() as u64
    };
    let per_table: u64 = tables
        .iter()
        .map(|t| distinct(cell_queries(std::slice::from_ref(t), &config)))
        .sum();
    let corpus_wide = distinct(cell_queries(&tables, &config));
    assert!(
        corpus_wide < per_table,
        "the corpus must repeat keys across tables"
    );

    for capacity in [Some(1), None] {
        for threads in [1usize, 8] {
            let counted = Arc::new(BingSim::instant(Arc::new(WebCorpus::build(
                &world,
                WebCorpusSpec::tiny(),
                42,
            ))));
            let batch = BatchAnnotator::new(counted.clone(), classifier.clone(), config.clone())
                .with_cache_config(CacheConfig { capacity });
            let got: Vec<(usize, TableAnnotations)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (batch, tables) = (&batch, &tables);
                        s.spawn(move || {
                            (t..tables.len())
                                .step_by(threads)
                                .map(|i| (i, batch.annotate_table(&tables[i])))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("annotating thread"))
                    .collect()
            });
            for (i, annotations) in got {
                assert_eq!(
                    annotations, reference[i],
                    "capacity {capacity:?}, {threads} threads: table {i} diverged"
                );
            }
            let label = format!("capacity {capacity:?}, {threads} threads");
            let queries = counted.query_count();
            assert_eq!(queries, batch.cache_stats().misses, "{label}");
            assert!(
                queries <= per_table,
                "{label}: a key was sent twice in one table"
            );
            if capacity.is_none() {
                assert_eq!(queries, corpus_wide, "{label}: one query per distinct key");
            } else if threads == 1 {
                // Only the one entry left by the table before can hit.
                assert!(queries + tables.len() as u64 >= per_table, "{label}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Verdict-memo oracles. Each cache entry keeps the §5.2.1 verdict over
// its results; these check that a memoized verdict always equals the
// one a fresh search and vote would give, whatever the cache did in
// between (hits, evictions, restores, clears, a new classifier). Post-
// processing is off so every cell can be compared on its own, and each
// case runs under plain and clustered voting.

/// Plain §5.2.1 voting and the clustered rule, both without §5.3
/// post-processing.
fn memo_configs() -> [AnnotatorConfig; 2] {
    let plain = AnnotatorConfig {
        use_postprocessing: false,
        ..AnnotatorConfig::default()
    };
    let clustered = AnnotatorConfig {
        use_clustering: true,
        ..plain.clone()
    };
    [plain, clustered]
}

/// Each table annotated cell by cell with no cache at all: a fresh
/// search, then `annotate_from_results`.
fn fresh_cells(
    engine: &dyn SearchEngine,
    classifier: &SnippetClassifier,
    config: &AnnotatorConfig,
    tables: &[Table],
) -> Vec<Vec<CellAnnotation>> {
    tables
        .iter()
        .map(|table| {
            preprocess(table, config)
                .candidates
                .iter()
                .filter_map(|&cell| {
                    let query = build_cell_query(table, cell, None);
                    if query.trim().is_empty() {
                        return None;
                    }
                    let results = engine.search(&query, config.top_k);
                    annotate_from_results(&results, cell, classifier, config)
                })
                .collect()
        })
        .collect()
}

fn cells_of(annotations: &[TableAnnotations]) -> Vec<Vec<CellAnnotation>> {
    annotations.iter().map(|t| t.cells.clone()).collect()
}

/// Streams `tables` through `batch` (window 3) and collects the results.
fn stream(batch: &BatchAnnotator, tables: &[Table]) -> Vec<TableAnnotations> {
    let mut sink = Collect::new();
    let summary = batch.annotate_stream(SliceSource::new(tables), &mut sink, 3);
    assert_eq!(summary.errors, 0);
    sink.into_annotations().expect("slice sources never fail")
}

#[test]
fn memoized_verdicts_equal_a_fresh_vote_on_every_hit() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 8, 12);
    for config in memo_configs() {
        let reference = fresh_cells(engine.as_ref(), &classifier, &config, &tables);
        assert!(
            reference.iter().any(|cells| !cells.is_empty()),
            "the corpus must annotate something (clustering {})",
            config.use_clustering
        );
        let batch = BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone());
        let first = stream(&batch, &tables);
        let misses = batch.cache_stats().misses;
        let second = stream(&batch, &tables);
        assert_eq!(
            batch.cache_stats().misses,
            misses,
            "the second pass must be all hits"
        );
        assert_eq!(cells_of(&first), reference, "first pass");
        assert_eq!(cells_of(&second), reference, "second pass, all hits");
    }
}

#[test]
fn evicted_entries_recompute_equal_verdicts() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 6, 12);
    for config in memo_configs() {
        let reference = fresh_cells(engine.as_ref(), &classifier, &config, &tables);
        let batch = BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone())
            .with_cache_config(CacheConfig { capacity: Some(1) });
        let first = annotate_all(&batch, &tables, 1);
        let misses = batch.cache_stats().misses;
        let second = annotate_all(&batch, &tables, 1);
        let stats = batch.cache_stats();
        assert!(stats.evictions > 0, "a one-entry cache must evict");
        assert!(stats.misses > misses, "evicted keys must be searched again");
        assert_eq!(cells_of(&first), reference, "first pass");
        assert_eq!(cells_of(&second), reference, "after evictions");
    }
}

#[test]
fn restored_entries_judge_like_a_cold_run() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 6, 12);
    for config in memo_configs() {
        let warm = BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone());
        annotate_all(&warm, &tables, 1);
        let entries = warm.cache().export_entries();
        assert!(!entries.is_empty());

        let restored = BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone());
        assert_eq!(
            restored.cache().restore_entries(entries.clone()),
            entries.len()
        );
        let got = annotate_all(&restored, &tables, 1);
        assert_eq!(
            restored.cache_stats().misses,
            0,
            "every lookup must hit a restored entry"
        );

        let cold = annotate_all(
            &BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone()),
            &tables,
            1,
        );
        assert_eq!(got, cold, "restored verdicts diverged from a cold run");
        assert_eq!(
            cells_of(&got),
            fresh_cells(engine.as_ref(), &classifier, &config, &tables)
        );
    }
}

#[test]
fn a_publish_clears_verdicts_with_their_results() {
    let (world, _, classifier) = fixture();
    let tables = seeded_corpus(&world, 4, 10);
    let web = WebCorpus::build(&world, WebCorpusSpec::tiny(), 42);
    // Pages that name the first table's entities in museum vocabulary:
    // after the publish, those cells' result lists (and verdicts) change.
    let names: Vec<String> = (0..tables[0].n_rows())
        .map(|row| tables[0].cell_at(CellId::new(row, 0)).to_owned())
        .collect();
    let added: Vec<WebPage> = names
        .iter()
        .enumerate()
        .flat_map(|(i, name)| {
            (0..12).map(move |j| WebPage {
                url: format!("http://memo-oracle/{i}/{j}"),
                title: format!("{name} museum"),
                body: format!(
                    "{name} museum gallery exhibition paintings collection curator \
                     sculpture artworks exhibit {name}"
                ),
            })
        })
        .collect();

    for (n, config) in memo_configs().into_iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("teda_memo_publish_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CorpusStore::open(&dir)
            .expect("open store")
            .save(&web)
            .expect("seed snapshot");
        let live =
            Arc::new(LiveCorpus::open_mapped(&dir, TierPolicy::default()).expect("open live"));
        let engine = Arc::new(BingSim::instant(live.backend()));
        let service = AnnotationService::start_live(
            BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone()),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            Arc::clone(&live),
        );
        let annotate = |service: &AnnotationService| -> Vec<TableAnnotations> {
            tables
                .iter()
                .map(|t| {
                    service
                        .submit(Arc::new(t.clone()))
                        .expect("queue has room")
                        .wait()
                        .expect("request completes")
                        .annotations
                })
                .collect()
        };
        let before = annotate(&service);
        service.add_pages(added.clone()).expect("publish");
        let after = annotate(&service);

        let fresh = BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone());
        let want: Vec<TableAnnotations> = tables.iter().map(|t| fresh.annotate_table(t)).collect();
        assert_eq!(after, want, "a verdict outlived the publish");
        assert_eq!(
            cells_of(&after),
            fresh_cells(engine.as_ref(), &classifier, &config, &tables)
        );
        assert_ne!(before, after, "the published pages must change a verdict");
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_new_classifier_starts_from_an_empty_memo() {
    let (world, engine, svm) = fixture();
    let tables = seeded_corpus(&world, 6, 12);
    let net = CategoryNetwork::build(&world, 42);
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
    let bayes = train_bayes(&corpus, NaiveBayesConfig::snippet_default());
    for config in memo_configs() {
        let first = Annotator::new(engine.clone(), svm.clone(), config.clone()).into_batch();
        let svm_cells = cells_of(&annotate_all(&first, &tables, 1));
        assert!(!first.cache().is_empty());

        let (engine_back, _, config_back) =
            Annotator::new(engine.clone(), svm.clone(), config.clone()).into_parts();
        let second = Annotator::new(engine_back, bayes.clone(), config_back).into_batch();
        assert!(
            second.cache().is_empty(),
            "into_batch must start a new memo"
        );
        // Plain voting fills the snippet-class memo; the new annotator's
        // starts empty, so no class judged by the SVM reaches the Bayes
        // model's votes.
        assert_eq!(first.class_memo().is_empty(), config.use_clustering);
        assert!(
            second.class_memo().is_empty(),
            "into_batch must start a new snippet-class memo"
        );
        let bayes_cells = cells_of(&annotate_all(&second, &tables, 1));
        assert_eq!(
            bayes_cells,
            fresh_cells(engine.as_ref(), &bayes, &config, &tables),
            "a verdict judged by another classifier leaked in"
        );
        assert_ne!(
            svm_cells, bayes_cells,
            "the two classifiers must disagree somewhere for this check to bite"
        );
    }
}

// ---------------------------------------------------------------------
// Snippet-class memo oracles. A query-cache miss takes each snippet's
// class from a memo keyed by the snippet text; these check that the
// memo never changes a verdict, counts every snippet it is asked about,
// and survives a corpus publish without going stale.

/// The plain-voting config (the only one that consults the memo).
fn plain_config() -> AnnotatorConfig {
    memo_configs()[0].clone()
}

/// Every candidate cell's query, in stream order.
fn cell_queries(tables: &[Table], config: &AnnotatorConfig) -> Vec<String> {
    tables
        .iter()
        .flat_map(|table| {
            preprocess(table, config)
                .candidates
                .iter()
                .map(|&cell| build_cell_query(table, cell, None))
                .filter(|query| !query.trim().is_empty())
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn snippet_memo_verdicts_equal_unmemoized_ones_on_a_two_pass_stream() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 6, 12);
    let config = plain_config();
    let lists: Vec<Vec<SearchResult>> = cell_queries(&tables, &config)
        .iter()
        .map(|query| engine.search(query, config.top_k))
        .collect();
    let want: Vec<Option<Verdict>> = lists
        .iter()
        .map(|results| verdict(results, &classifier, &config))
        .collect();
    assert!(want.iter().any(Option::is_some), "the stream must annotate");
    let snippets: usize = lists.iter().map(Vec::len).sum();
    let mut distinct: Vec<&str> = lists.iter().flatten().map(|r| r.snippet.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    for capacity in [Some(1), None] {
        for threads in [1, 8] {
            let memo = SnippetClassMemo::with_capacity(capacity);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (memo, lists, want, classifier, config) =
                        (&memo, &lists, &want, &classifier, &config);
                    scope.spawn(move || {
                        // Each thread walks both passes from its own
                        // offset, so threads race on different snippets.
                        let offset = t * lists.len() / threads;
                        for i in 0..2 * lists.len() {
                            let j = (i + offset) % lists.len();
                            assert_eq!(
                                memoized_verdict(&lists[j], classifier, config, memo),
                                want[j],
                                "cell {j}, capacity {capacity:?}, {threads} threads"
                            );
                        }
                    });
                }
            });
            let stats = memo.stats();
            assert_eq!(
                stats.hits + stats.misses,
                (2 * threads * snippets) as u64,
                "every snippet asks the memo once"
            );
            match capacity {
                Some(1) => {
                    assert!(stats.evictions > 0, "a one-snippet memo must evict");
                    assert!(memo.len() <= 1);
                }
                _ => {
                    assert_eq!(stats.evictions, 0);
                    assert!(stats.hits >= snippets as u64, "the second pass must hit");
                    assert_eq!(
                        stats.misses,
                        distinct.len() as u64,
                        "single flight: each distinct snippet is classified once, \
                         {threads} threads"
                    );
                    assert_eq!(memo.len(), distinct.len());
                }
            }
        }
    }
}

#[test]
fn snippet_memo_counts_every_snippet_judged_on_the_miss_path() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 8, 12);
    let config = plain_config();
    let batch = BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone());
    annotate_all(&batch, &tables, 1);

    // Each distinct query misses the query cache once, and its verdict
    // judges every snippet of its result list.
    let mut distinct = cell_queries(&tables, &config);
    distinct.sort();
    distinct.dedup();
    let judged: usize = distinct
        .iter()
        .map(|query| engine.search(query, config.top_k).len())
        .sum();
    let stats = batch.class_memo().stats();
    assert_eq!(stats.hits + stats.misses, judged as u64);
    assert!(stats.hits > 0, "result lists must share snippets");
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.misses as usize, batch.class_memo().len());

    // A second pass hits the query cache and judges nothing.
    annotate_all(&batch, &tables, 1);
    assert_eq!(batch.class_memo().stats(), stats);
}

/// A service over a live corpus saved from the tiny Web, with its
/// directory (removed by the caller).
fn live_service(
    web: &WebCorpus,
    classifier: &SnippetClassifier,
    tag: &str,
) -> (AnnotationService, Arc<BingSim>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("teda_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CorpusStore::open(&dir)
        .expect("open store")
        .save(web)
        .expect("seed snapshot");
    let live = Arc::new(LiveCorpus::open_mapped(&dir, TierPolicy::default()).expect("open live"));
    let engine = Arc::new(BingSim::instant(live.backend()));
    let service = AnnotationService::start_live(
        BatchAnnotator::new(engine.clone(), classifier.clone(), plain_config()),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        live,
    );
    (service, engine, dir)
}

fn served(service: &AnnotationService, tables: &[Table]) -> Vec<TableAnnotations> {
    tables
        .iter()
        .map(|t| {
            service
                .submit(Arc::new(t.clone()))
                .expect("queue has room")
                .wait()
                .expect("request completes")
                .annotations
        })
        .collect()
}

fn classify_counters(service: &AnnotationService) -> [u64; 3] {
    let stats = service.stats();
    ["classify.hits", "classify.misses", "classify.evictions"].map(|name| stats.counter(name))
}

#[test]
fn a_publish_leaves_the_snippet_memo_and_its_counters_intact() {
    let (world, _, classifier) = fixture();
    let tables = seeded_corpus(&world, 4, 10);
    let web = WebCorpus::build(&world, WebCorpusSpec::tiny(), 42);
    let (service, _, dir) = live_service(&web, &classifier, "snippet_memo_publish");
    let before = served(&service, &tables);
    let memo = service.annotator().class_memo();
    let counters = classify_counters(&service);
    let memoized = memo.len();
    assert!(memoized > 0);
    assert_eq!(counters[1] as usize, memoized, "STATS carries the misses");
    assert_eq!(counters[0] + counters[1], {
        let s = memo.stats();
        s.hits + s.misses
    });

    service
        .add_pages(vec![WebPage {
            url: "http://snippet-memo/unrelated".into(),
            title: "unrelated".into(),
            body: "an unrelated page about nothing in particular".into(),
        }])
        .expect("publish");
    assert!(
        service.annotator().cache().is_empty(),
        "a publish clears the query cache"
    );
    assert_eq!(memo.len(), memoized, "a publish leaves the snippet memo");
    assert_eq!(classify_counters(&service), counters);

    // Every query misses the cleared cache again, and every snippet it
    // judges is one the memo already holds.
    let after = served(&service, &tables);
    assert_eq!(after, before);
    let [hits, misses, evictions] = classify_counters(&service);
    assert_eq!((misses, evictions), (counters[1], counters[2]));
    assert!(hits > counters[0], "the re-judged snippets must hit");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_republished_page_body_gets_its_new_texts_class() {
    let (world, _, classifier) = fixture();
    let tables = seeded_corpus(&world, 3, 10);
    let web = WebCorpus::build(&world, WebCorpusSpec::tiny(), 42);
    let (service, engine, dir) = live_service(&web, &classifier, "snippet_memo_republish");
    let config = plain_config();
    let before = served(&service, &tables);

    // Every page the first table's cells retrieve comes back under its
    // own URL and title with a museum body: the same pages, new text.
    let mut urls: Vec<String> = cell_queries(&tables[..1], &config)
        .iter()
        .flat_map(|query| engine.search(query, config.top_k))
        .map(|r| r.url)
        .collect();
    urls.sort();
    urls.dedup();
    let republished: Vec<WebPage> = urls
        .iter()
        .map(|url| {
            let page = web
                .pages()
                .iter()
                .find(|p| &p.url == url)
                .expect("results name corpus pages");
            WebPage {
                url: page.url.clone(),
                title: page.title.clone(),
                body: format!(
                    "{} museum gallery exhibition paintings collection curator \
                     sculpture artworks exhibit",
                    page.title
                ),
            }
        })
        .collect();
    service.remove_pages(urls).expect("remove");
    service.add_pages(republished).expect("republish");

    let after = served(&service, &tables);
    assert_ne!(before, after, "the new bodies must change a verdict");
    let fresh = BatchAnnotator::new(engine.clone(), classifier.clone(), config.clone());
    let want: Vec<TableAnnotations> = tables.iter().map(|t| fresh.annotate_table(t)).collect();
    assert_eq!(after, want, "a class outlived its page's text");
    assert_eq!(
        cells_of(&after),
        fresh_cells(engine.as_ref(), &classifier, &config, &tables)
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
