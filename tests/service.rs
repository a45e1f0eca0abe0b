//! Service-layer integration: the bounded query cache must never change
//! an annotation (only its cost), capacity must be honoured
//! under real corpus load, single-flight must survive eviction pressure,
//! the geocoding memo must deduplicate addresses corpus-wide, and the
//! request scheduler must match the offline batch path bit for bit while
//! shedding what it cannot queue.

use std::sync::Arc;

use teda::classifier::svm::pegasos::PegasosConfig;
use teda::core::cache::{CacheConfig, CacheEntrySnapshot};
use teda::core::config::AnnotatorConfig;
use teda::core::model::SnippetClassifier;
use teda::core::pipeline::{BatchAnnotator, TableAnnotations};
use teda::core::stream::{default_max_in_flight, Collect, SliceSource};
use teda::core::trainer::{harvest, train_svm_linear, TrainerConfig};
use teda::core::QueryCache;
use teda::corpus::gft::poi_table;
use teda::geo::SimGeocoder;
use teda::kb::{CategoryNetwork, EntityType, World, WorldSpec};
use teda::service::{AnnotationService, Rejection, ServiceConfig};
use teda::simkit::rng_from_seed;
use teda::tabular::Table;
use teda::websim::{BingSim, SearchEngine, WebCorpus, WebCorpusSpec, WebPage};

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
                &format!("svc_{i}"),
                &mut rng,
            )
            .table
        })
        .collect()
}

fn batch(engine: Arc<BingSim>, classifier: SnippetClassifier) -> BatchAnnotator {
    BatchAnnotator::new(engine, classifier, AnnotatorConfig::default())
}

#[test]
fn bounded_cache_annotations_are_bit_identical_to_unbounded() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 8, 12);

    let unbounded = batch(engine.clone(), classifier.clone());
    let reference: Vec<TableAnnotations> = annotate_all(&unbounded, &tables, 1);

    // A cache far too small for the corpus: constant eviction churn.
    let bounded = batch(engine, classifier).with_cache_config(CacheConfig { capacity: Some(8) });
    let out: Vec<TableAnnotations> = annotate_all(&bounded, &tables, default_max_in_flight());
    assert_eq!(out, reference, "eviction changed an annotation");
    let stats = bounded.cache_stats();
    assert!(
        stats.evictions > 0,
        "a capacity-8 cache over this corpus must evict (misses: {})",
        stats.misses
    );
    // Evict-then-rehit: the same corpus again is still bit-identical.
    let again: Vec<TableAnnotations> = annotate_all(&bounded, &tables, 1);
    assert_eq!(again, reference, "evict-then-rehit diverged");
}

#[test]
fn cache_capacity_is_respected_under_load() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 8, 14);
    for capacity in [4, 16, 64] {
        let annotator = batch(engine.clone(), classifier.clone()).with_cache_config(CacheConfig {
            capacity: Some(capacity),
        });
        annotate_all(&annotator, &tables, default_max_in_flight());
        let cap = annotator
            .cache()
            .capacity()
            .expect("bounded cache reports its capacity");
        assert!(
            annotator.cache().len() <= cap,
            "cache holds {} entries over its capacity {cap}",
            annotator.cache().len(),
        );
    }
}

#[test]
fn single_flight_holds_under_eviction_pressure() {
    let (_, engine, _) = fixture();

    // One shard, capacity 1: every publish evicts the previous entry
    // while concurrent workers race on a handful of keys.
    let cache = Arc::new(QueryCache::with_config(CacheConfig { capacity: Some(1) }));
    let queries = ["melisse a", "louvre b", "bayona c", "orsay d"];
    let reference: Vec<_> = queries.iter().map(|q| engine.search(q, 5)).collect();

    std::thread::scope(|s| {
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let engine = Arc::clone(&engine);
            let reference = &reference;
            s.spawn(move || {
                for _ in 0..20 {
                    for (i, q) in queries.iter().enumerate() {
                        let got = cache.get_or_search(engine.as_ref(), q, 5);
                        assert_eq!(
                            &*got,
                            &reference[i][..],
                            "eviction pressure corrupted a result"
                        );
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert!(stats.evictions > 0, "capacity 1 must evict constantly");
    assert!(
        cache.len() <= 1,
        "capacity 1 exceeded: {} entries",
        cache.len()
    );
    // Single-flight + memo still save traffic even while churning:
    // every lookup either hit, or was one engine call.
    assert_eq!(stats.hits + stats.misses, 8 * 20 * 4);
}

#[test]
fn distinct_addresses_geocode_once_per_corpus() {
    let (world, engine, classifier) = fixture();
    // Spatial tables repeated twice: every address occurs in ≥2 tables.
    let mut tables = seeded_corpus(&world, 4, 10);
    tables.extend(tables.clone());

    let geocoder = Arc::new(SimGeocoder::instant(world.gazetteer().clone()));
    let annotator = BatchAnnotator::new(
        engine,
        classifier,
        AnnotatorConfig {
            use_disambiguation: true,
            ..AnnotatorConfig::default()
        },
    )
    .with_geocoder(geocoder.clone());

    annotate_all(&annotator, &tables, 1);
    let stats = annotator.geo_stats();
    assert_eq!(
        geocoder.query_count(),
        stats.misses,
        "every geocoder round-trip is a memo miss"
    );
    assert!(
        stats.hits > 0,
        "duplicate addresses across tables must hit the memo"
    );

    // Re-annotating the same corpus issues zero further geocoder calls.
    let q0 = geocoder.query_count();
    annotate_all(&annotator, &tables, 1);
    assert_eq!(geocoder.query_count(), q0, "warm memo must not re-geocode");
}

#[test]
fn geocode_memo_does_not_change_annotations() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_corpus(&world, 4, 10);
    let geocoder = Arc::new(SimGeocoder::instant(world.gazetteer().clone()));
    let config = AnnotatorConfig {
        use_disambiguation: true,
        ..AnnotatorConfig::default()
    };

    // The single-table Annotator geocodes directly (no memo).
    let direct =
        teda::core::pipeline::Annotator::new(engine.clone(), classifier.clone(), config.clone())
            .with_geocoder(geocoder.clone());
    let memoized = BatchAnnotator::new(engine, classifier, config).with_geocoder(geocoder);

    for table in &tables {
        assert_eq!(
            memoized.annotate_table(table),
            direct.annotate_table(table),
            "the address memo changed an annotation"
        );
    }
}

#[test]
fn service_matches_offline_batch_bit_for_bit() {
    let (world, engine, classifier) = fixture();
    let tables: Vec<Arc<Table>> = seeded_corpus(&world, 9, 12)
        .into_iter()
        .map(Arc::new)
        .collect();

    let reference: Vec<TableAnnotations> = {
        let offline = batch(engine.clone(), classifier.clone());
        tables.iter().map(|t| offline.annotate_table(t)).collect()
    };

    let service = AnnotationService::start(
        batch(engine, classifier),
        ServiceConfig {
            workers: 4,
            queue_depth: tables.len() * 2,
            cache: Some(CacheConfig { capacity: Some(64) }),
            ..ServiceConfig::default()
        },
    );
    let handles: Vec<_> = tables
        .iter()
        .map(|t| service.submit(Arc::clone(t)).expect("queue has room"))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.wait().expect("request completes");
        assert_eq!(
            outcome.annotations, reference[i],
            "service diverged from offline batch on table {i}"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.counter("completed"), tables.len() as u64);
    assert_eq!(stats.shed(), 0);
    assert!(
        stats.counter("cache.hits") > 0,
        "duplicate corpus must hit the cache"
    );
}

#[test]
fn service_sheds_when_the_queue_bound_is_hit() {
    let (world, engine, classifier) = fixture();
    let tables: Vec<Arc<Table>> = seeded_corpus(&world, 16, 12)
        .into_iter()
        .map(Arc::new)
        .collect();

    let service = AnnotationService::start(
        batch(engine, classifier),
        ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..ServiceConfig::default()
        },
    );
    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for table in &tables {
        match service.submit(Arc::clone(table)) {
            Ok(h) => accepted.push(h),
            Err(Rejection::QueueFull) => shed += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(
        shed > 0,
        "a 16-table burst into a depth-1 queue with one worker must shed"
    );
    for h in accepted {
        h.wait().expect("accepted work completes");
    }
    let stats = service.shutdown();
    assert_eq!(stats.counter("shed_queue"), shed);
    assert_eq!(stats.counter("completed") + shed, tables.len() as u64);
    assert!(stats.shed_rate() > 0.0);
}

/// A cache file in the layout written before the query cache lost its
/// TTL: section tag 1, and an 8-byte entry age after each `k`.
fn aged_layout_cache_file(entries: &[CacheEntrySnapshot]) -> Vec<u8> {
    use teda::store::format::{encode_container, put_string, put_u64, KIND_CACHE};
    let mut payload = Vec::new();
    put_u64(&mut payload, entries.len() as u64);
    for entry in entries {
        put_string(&mut payload, &entry.query);
        put_u64(&mut payload, entry.k as u64);
        put_u64(&mut payload, 1_500_000); // age, ns
        put_u64(&mut payload, entry.results.len() as u64);
        for result in entry.results.iter() {
            put_string(&mut payload, &result.url);
            put_string(&mut payload, &result.title);
            put_string(&mut payload, &result.snippet);
        }
    }
    encode_container(KIND_CACHE, &[(1, payload)])
}

#[test]
fn an_aged_layout_cache_file_is_refused_and_the_service_starts_cold() {
    let (world, engine, classifier) = fixture();
    let tables: Vec<Arc<Table>> = seeded_corpus(&world, 4, 10)
        .into_iter()
        .map(Arc::new)
        .collect();
    let cold = batch(engine.clone(), classifier.clone());
    let reference: Vec<TableAnnotations> = tables.iter().map(|t| cold.annotate_table(t)).collect();

    let dir = std::env::temp_dir().join(format!("teda_svc_aged_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(teda::store::CACHE_FILE);
    std::fs::write(
        &path,
        aged_layout_cache_file(&cold.cache().export_entries()),
    )
    .unwrap();
    assert!(matches!(
        teda::store::load_cache_snapshot(&path),
        Err(teda::store::StoreError::Corrupt(_))
    ));

    let service = AnnotationService::start(
        batch(engine, classifier),
        ServiceConfig {
            workers: 2,
            queue_depth: tables.len() * 2,
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        },
    );
    assert_eq!(service.stats().counter("restored_cache_entries"), 0);
    for (i, table) in tables.iter().enumerate() {
        let outcome = service
            .submit(Arc::clone(table))
            .expect("queue has room")
            .wait()
            .expect("request completes");
        assert_eq!(outcome.annotations, reference[i], "table {i}");
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_live_update_removes_the_warm_start_file_before_it_publishes() {
    let (world, engine, classifier) = fixture();
    let table = Arc::new(seeded_corpus(&world, 1, 10).remove(0));
    let web = WebCorpus::build(&world, WebCorpusSpec::tiny(), 42);
    let root = std::env::temp_dir().join(format!("teda_svc_update_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // The warm-start file beside the corpus store, and in a directory
    // of its own.
    for (corpus_dir, store_dir) in [
        (root.join("shared"), root.join("shared")),
        (root.join("corpus"), root.join("cache")),
    ] {
        teda::store::CorpusStore::open(&corpus_dir)
            .expect("open store")
            .save(&web)
            .expect("seed snapshot");
        let live = Arc::new(
            teda::service::LiveCorpus::open_mapped(&corpus_dir, teda::store::TierPolicy::default())
                .expect("open mapped live corpus"),
        );
        let service = AnnotationService::start_live(
            batch(engine.clone(), classifier.clone()),
            ServiceConfig {
                workers: 1,
                store_dir: Some(store_dir.clone()),
                ..ServiceConfig::default()
            },
            live,
        );
        let cache_file = store_dir.join(teda::store::CACHE_FILE);
        let warm = |service: &AnnotationService| {
            service
                .submit(Arc::clone(&table))
                .expect("queue has room")
                .wait()
                .expect("request completes");
            assert!(service.snapshot_now().expect("snapshot") > 0);
            assert!(cache_file.exists());
        };

        warm(&service);
        service
            .add_pages(vec![WebPage {
                url: "http://update/0".into(),
                title: "Update".into(),
                body: "a page added while serving".into(),
            }])
            .expect("add");
        assert!(!cache_file.exists(), "an add must remove {cache_file:?}");

        warm(&service);
        service
            .remove_pages(vec!["http://update/0".into()])
            .expect("remove");
        assert!(!cache_file.exists(), "a removal must remove {cache_file:?}");
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mmap_corpus_service_is_bit_identical_and_reports_mapping_counters() {
    let (world, engine, classifier) = fixture();
    let tables: Vec<Arc<Table>> = seeded_corpus(&world, 4, 10)
        .into_iter()
        .map(Arc::new)
        .collect();

    let reference: Vec<TableAnnotations> = {
        let offline = batch(engine, classifier.clone());
        tables.iter().map(|t| offline.annotate_table(t)).collect()
    };

    // Same Web, served off the mmap'd snapshot instead of the heap.
    let dir = std::env::temp_dir().join(format!("teda_svc_mmap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let web = WebCorpus::build(&world, WebCorpusSpec::tiny(), 42);
    teda::store::CorpusStore::open(&dir)
        .expect("open store")
        .save(&web)
        .expect("seed snapshot");
    let config = ServiceConfig {
        workers: 2,
        queue_depth: tables.len() * 2,
        ..ServiceConfig::default()
    };
    let live = Arc::new(
        teda::service::LiveCorpus::open_mapped(&dir, teda::store::TierPolicy::default())
            .expect("open mapped live corpus"),
    );
    let mapped_engine = Arc::new(BingSim::instant(live.backend()));
    let service =
        AnnotationService::start_live(batch(mapped_engine, classifier), config, Arc::clone(&live));

    let early = service.stats();
    assert!(early.mapped_bytes > 0, "mapping size must be reported");
    assert_eq!(early.page_hydrations, 0, "open must not hydrate pages");

    let handles: Vec<_> = tables
        .iter()
        .map(|t| service.submit(Arc::clone(t)).expect("queue has room"))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.wait().expect("request completes");
        assert_eq!(
            outcome.annotations, reference[i],
            "mmap-served service diverged from the heap path on table {i}"
        );
    }

    let stats = service.shutdown();
    assert_eq!(stats.counter("completed"), tables.len() as u64);
    assert!(
        stats.page_hydrations > 0,
        "annotating tables must have hydrated page text per hit"
    );
    assert!(stats.resident_bytes > 0);
    assert!(
        stats.resident_bytes < stats.mapped_bytes,
        "side tables must stay below the mapping size"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
