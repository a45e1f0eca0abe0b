//! Observability integration: histogram quantile estimates must bracket
//! exact sorted values, merges must be order-independent, concurrent
//! recording must lose nothing, and the wire exposition verbs
//! (`METRICS`, `STATS JSON`, `TRACE <id>`/`TRACE-DUMP <id>`) must round
//! telemetry through a loopback server — the `cargo test --test obs`
//! gate CI runs on every push.

use std::sync::Arc;

use proptest::prelude::*;

use teda::obs::{bucket_bounds, bucket_of, HistSnapshot, Histogram, BUCKETS};

// ---------------------------------------------------------------------
// Histogram properties
// ---------------------------------------------------------------------

/// Builds a snapshot holding exactly `values`.
fn snapshot_of(values: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    /// For any value set and any quantile, the exact nearest-rank value
    /// of the sorted set lies within the bucket bounds the histogram
    /// reports — the estimate is never off by more than its own bucket.
    #[test]
    fn quantile_estimates_bracket_exact_sorts(
        values in proptest::collection::vec(0u64..=u64::MAX, 1..200),
        q in 0.0f64..1.0,
    ) {
        let mut values = values;
        let snap = snapshot_of(&values);
        prop_assert_eq!(snap.count(), values.len() as u64);
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let (lo, hi) = snap.quantile_bounds(q);
        prop_assert!(lo <= exact && exact <= hi,
            "q={}: exact {} outside [{}, {}]", q, exact, lo, hi);
        // The reported point estimate is the bucket upper bound, and
        // max_bound dominates every recorded value's bucket.
        prop_assert_eq!(snap.quantile(q), hi);
        prop_assert!(snap.max_bound() >= exact);
    }

    /// Quantile estimates are monotone in `q` — p50 ≤ p99 ≤ max, for
    /// any data.
    #[test]
    fn quantiles_are_monotone(
        values in proptest::collection::vec(0u64..=u64::MAX, 1..100),
    ) {
        let snap = snapshot_of(&values);
        let mut prev = 0u64;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let cur = snap.quantile(q);
            prop_assert!(cur >= prev, "quantile({}) = {} < {}", q, cur, prev);
            prev = cur;
        }
        prop_assert!(snap.max_bound() >= prev);
    }

    /// Merging is associative and commutative: shard snapshots fold to
    /// one result in any order.
    #[test]
    fn merge_is_associative_and_commutative(
        a in proptest::collection::vec(0u64..=u64::MAX, 0..50),
        b in proptest::collection::vec(0u64..=u64::MAX, 0..50),
        c in proptest::collection::vec(0u64..=u64::MAX, 0..50),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "merge must commute");
        let mut ab_c = ab;
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc, "merge must associate");
    }
}

#[test]
fn overflow_values_saturate_into_the_top_bucket() {
    // Everything at or above 2^62 µs shares the saturating top bucket.
    for v in [1u64 << 62, (1 << 62) + 1, u64::MAX] {
        assert_eq!(bucket_of(v), BUCKETS - 1, "bucket of {v}");
    }
    let snap = snapshot_of(&[u64::MAX, 1 << 62, 7]);
    assert_eq!(snap.buckets[BUCKETS - 1], 2);
    assert_eq!(snap.max_bound(), u64::MAX);
    // Merging saturates rather than wrapping, so a poisoned-counter
    // overflow can never report a small count.
    let mut a = HistSnapshot::default();
    a.buckets[0] = u64::MAX;
    let b = snapshot_of(&[0, 0, 0]);
    a.merge(&b);
    assert_eq!(a.buckets[0], u64::MAX);
    assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
}

#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    let h = Arc::new(Histogram::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Deterministic per-thread spread across buckets.
                    h.record((i.wrapping_mul(2 * t as u64 + 1)) % 1_000_000);
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(
        snap.count(),
        (THREADS as u64) * PER_THREAD,
        "relaxed increments must still account every record"
    );
}

// ---------------------------------------------------------------------
// Wire exposition (loopback)
// ---------------------------------------------------------------------

mod wire {
    use std::sync::Arc;
    use std::time::Duration;

    use teda::classifier::svm::pegasos::PegasosConfig;
    use teda::cluster::{partition_corpus, ClusterRouter, RouterConfig, ShardServer};
    use teda::core::cache::CacheConfig;
    use teda::core::config::AnnotatorConfig;
    use teda::core::model::SnippetClassifier;
    use teda::core::pipeline::BatchAnnotator;
    use teda::core::trainer::{harvest, train_svm_linear, TrainerConfig};
    use teda::corpus::{gft::poi_table, typed_table_to_csv};
    use teda::geo::SimGeocoder;
    use teda::kb::{CategoryNetwork, EntityType, World, WorldSpec};
    use teda::service::{AnnotationService, LiveCorpus, Rejection, ServiceConfig, TierPolicy};
    use teda::simkit::rng_from_seed;
    use teda::store::CorpusStore;
    use teda::tabular::Table;
    use teda::websim::{BingSim, WebCorpus, WebCorpusSpec};
    use teda::wire::{WireClient, WireError, WireServer};

    /// The tiny world, its Web, and a classifier trained over it.
    fn fixture() -> (World, Arc<WebCorpus>, SnippetClassifier) {
        let world = World::generate(WorldSpec::tiny(), 42);
        let net = CategoryNetwork::build(&world, 42);
        let web = Arc::new(WebCorpus::build(&world, WebCorpusSpec::tiny(), 42));
        let corpus = harvest(
            &world,
            &net,
            &BingSim::instant(web.clone()),
            &EntityType::TARGETS,
            TrainerConfig {
                max_entities_per_type: Some(8),
                ..TrainerConfig::default()
            },
        );
        let classifier = train_svm_linear(&corpus, PegasosConfig::default());
        (world, web, classifier)
    }

    fn annotation_node() -> (Arc<AnnotationService>, WireServer) {
        let (_, web, classifier) = fixture();
        let engine = Arc::new(BingSim::instant(web));
        let service = Arc::new(AnnotationService::start(
            BatchAnnotator::new(engine, classifier, AnnotatorConfig::default()),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        (service, server)
    }

    fn one_table_csv() -> String {
        let world = World::generate(WorldSpec::tiny(), 42);
        let mut rng = rng_from_seed(11);
        let t = poi_table(&world, EntityType::Restaurant, 6, 0, "obs_t", &mut rng).table;
        typed_table_to_csv(&t)
    }

    #[test]
    fn metrics_and_stats_json_expose_stage_histograms() {
        let (_service, server) = annotation_node();
        let mut client = WireClient::connect(server.local_addr()).expect("connect");
        client
            .annotate("obs_t", &one_table_csv())
            .expect("annotate over the wire");

        let metrics = client.metrics().expect("METRICS");
        assert!(
            metrics.contains("# TYPE teda_stage_us histogram"),
            "{metrics}"
        );
        for stage in ["request", "queue_wait", "annotate"] {
            assert!(
                metrics.contains(&format!(
                    "teda_stage_us_count{{node=\"service\",stage=\"{stage}\"}} 1"
                )),
                "missing {stage} count in:\n{metrics}"
            );
        }
        // Stable ordering: two scrapes of unchanged state are identical.
        assert_eq!(metrics, client.metrics().expect("METRICS again"));

        let json = client.stats_json().expect("STATS JSON");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"completed\":1",
            "\"stage\":\"request\"",
            "\"stage\":\"annotate\"",
            "\"latency\":{",
            "\"clients\":[",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        server.shutdown();
    }

    /// The numeric value at `path` of a `STATS JSON` frame: a top-level
    /// key, or a key inside a top-level object.
    fn json_at(json: &str, path: &[&str]) -> Option<u64> {
        let (scope, key) = match path {
            [key] => (json, *key),
            [object, key] => {
                let start = json.find(&format!("\"{object}\":{{"))?;
                let body = &json[start..];
                (&body[..body.find('}')?], *key)
            }
            _ => return None,
        };
        let at = scope.find(&format!("\"{key}\":"))? + key.len() + 3;
        let digits = scope[at..].split(|c: char| !c.is_ascii_digit()).next()?;
        digits.parse().ok()
    }

    /// Every `STATS JSON` path and `METRICS` stage count the serving
    /// benchmark reads is present and non-zero once the node has shed,
    /// rejected, evicted, geocoded and fanned out. The benchmark reads a
    /// missing path as 0, so a moved key would zero its metric instead
    /// of failing; this test fails instead.
    #[test]
    fn stats_json_and_metrics_carry_every_benchmarked_path() {
        let (world, web, classifier) = fixture();
        let dir = std::env::temp_dir().join(format!("teda_obs_paths_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A service over the mmap'd live corpus (resident bytes, page
        // hydrations), geocoding addresses, with a one-slot queue, an
        // empty query pool, a 40-query request bound and an 8-entry cache.
        CorpusStore::open(dir.join("corpus"))
            .and_then(|store| store.save(&web))
            .expect("corpus snapshot");
        let live = Arc::new(
            LiveCorpus::open_mapped(dir.join("corpus"), TierPolicy::default()).expect("mapped"),
        );
        let annotator = BatchAnnotator::new(
            Arc::new(BingSim::instant(live.backend())),
            classifier,
            AnnotatorConfig {
                use_disambiguation: true,
                ..AnnotatorConfig::default()
            },
        )
        .with_geocoder(Arc::new(SimGeocoder::instant(world.gazetteer().clone())));
        let service = Arc::new(AnnotationService::start_live(
            annotator,
            ServiceConfig {
                workers: 1,
                queue_depth: 1,
                max_queries_per_request: Some(40),
                query_pool: Some(0),
                cache: Some(CacheConfig { capacity: Some(8) }),
                ..ServiceConfig::default()
            },
            live,
        ));
        let mut rng = rng_from_seed(5);
        let mut table = |rows: usize, i: u8| -> Arc<Table> {
            Arc::new(
                poi_table(
                    &world,
                    EntityType::Restaurant,
                    rows,
                    0,
                    &format!("p{i}"),
                    &mut rng,
                )
                .table,
            )
        };
        let small = table(2, 0);

        // The empty pool sheds; a refill admits.
        assert!(matches!(
            service.submit(Arc::clone(&small)),
            Err(Rejection::BudgetExhausted)
        ));
        service.add_budget(1_000_000);
        // The same table twice: the second pass hits the query cache
        // and the geocoding memo. Then distinct tables overflow the cache.
        for t in [
            Arc::clone(&small),
            Arc::clone(&small),
            table(6, 1),
            table(6, 2),
        ] {
            service
                .submit(t)
                .expect("admitted")
                .wait()
                .expect("annotated");
        }
        // A burst against the one-slot queue sheds.
        let burst: Vec<_> = (0..32)
            .filter_map(|_| service.submit(Arc::clone(&small)).ok())
            .collect();
        for handle in burst {
            handle.wait().expect("annotated");
        }
        assert!(matches!(
            service.submit(table(10, 3)),
            Err(Rejection::RequestTooLarge { .. })
        ));

        // A router over two shard groups: killing one of group 0's two
        // replicas forces retries, killing group 1 a partial result.
        let shard_dirs = partition_corpus(&web, 2, &dir.join("shards")).expect("partition");
        let mut group0: Vec<ShardServer> = (0..2)
            .map(|_| ShardServer::start(&shard_dirs[0], true, "127.0.0.1:0").expect("shard 0"))
            .collect();
        let group1 = ShardServer::start(&shard_dirs[1], true, "127.0.0.1:0").expect("shard 1");
        let topology = vec![
            group0.iter().map(ShardServer::local_addr).collect(),
            vec![group1.local_addr()],
        ];
        let router = ClusterRouter::connect(
            &topology,
            RouterConfig {
                attempts: 2,
                backoff: Duration::from_millis(5),
                ..RouterConfig::default()
            },
        )
        .expect("connect");
        service.attach_cluster_telemetry(router.telemetry());
        group0.remove(0).shutdown();
        for _ in 0..6 {
            router
                .try_search("restaurant", 5)
                .expect("one replica suffices");
        }
        group1.shutdown();
        assert!(router.try_search("restaurant", 5).is_err());

        let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let mut client = WireClient::connect(server.local_addr()).expect("connect");
        let json = client.stats_json().expect("STATS JSON");
        for path in [
            &["shed_queue"][..],
            &["shed_budget"],
            &["rejected_oversize"],
            &["cache", "evictions"],
            &["geocode", "hits"],
            &["geocode", "misses"],
            &["partial_results"],
            &["replica_retries"],
            &["resident_bytes"],
        ] {
            let value = json_at(&json, path);
            assert!(value > Some(0), "{path:?} reads {value:?} in {json}");
        }
        let metrics = client.metrics().expect("METRICS");
        for stage in [
            "request",
            "queue_wait",
            "annotate",
            "cache_lookup",
            "search",
            "page_hydration",
        ] {
            let key = format!("teda_stage_us_count{{node=\"service\",stage=\"{stage}\"}} ");
            let count = metrics
                .lines()
                .find_map(|line| line.strip_prefix(&key))
                .and_then(|n| n.parse::<u64>().ok());
            assert!(
                count > Some(0),
                "stage {stage} reads {count:?} in:\n{metrics}"
            );
        }

        server.shutdown();
        drop(router);
        for s in group0 {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_annotate_matches_plain_and_dumps_a_span_tree() {
        let (_service, server) = annotation_node();
        let csv = one_table_csv();
        let mut client = WireClient::connect(server.local_addr()).expect("connect");
        let plain = client.annotate("obs_t", &csv).expect("plain annotate");
        let traced = client
            .annotate_traced(0xabcd, "obs_t", &csv)
            .expect("traced annotate");
        assert_eq!(plain, traced, "tracing must not change a result bit");

        let trace = client.trace_dump(0xabcd).expect("TRACE-DUMP");
        assert_eq!(trace.id, 0xabcd);
        assert_eq!(trace.node, "service");
        assert_eq!(trace.spans[0].name, "request");
        let names: Vec<&str> = trace.spans.iter().map(|s| &*s.name).collect();
        assert!(names.contains(&"queue_wait"), "{names:?}");
        assert!(names.contains(&"annotate"), "{names:?}");
        // Every child's window sits inside the root's.
        let root_end = trace.spans[0].end_us;
        for s in &trace.spans[1..] {
            assert!(s.start_us <= s.end_us && s.end_us <= root_end, "{s:?}");
        }

        // Unknown ids are typed errors, not empty payloads.
        assert!(matches!(
            client.trace_dump(0xdead_beef),
            Err(WireError::BadRequest(_))
        ));
        server.shutdown();
    }

    #[test]
    fn traced_search_records_on_a_search_only_node() {
        let world = World::generate(WorldSpec::tiny(), 42);
        let web = Arc::new(WebCorpus::build(&world, WebCorpusSpec::tiny(), 42));
        let server =
            WireServer::start_search_only(web, None, "127.0.0.1:0").expect("bind search node");
        let mut client = WireClient::connect(server.local_addr()).expect("connect");

        let plain = client.search("restaurant", 5).expect("plain search");
        let traced = client
            .search_traced(0x51, "restaurant", 5)
            .expect("traced search");
        assert_eq!(plain.len(), traced.len());
        for ((id, s), (tid, ts)) in plain.iter().zip(&traced) {
            assert_eq!(id, tid);
            assert_eq!(
                s.to_bits(),
                ts.to_bits(),
                "tracing must not move a score bit"
            );
        }

        let trace = client.trace_dump(0x51).expect("TRACE-DUMP");
        assert_eq!(trace.id, 0x51);
        assert!(
            trace.spans.iter().any(|s| s.name == "search"),
            "{:?}",
            trace.spans
        );
        // The search-only node still answers METRICS from its own
        // registry, its SEARCH count included.
        let metrics = client.metrics().expect("METRICS");
        assert!(
            metrics.contains("teda_traces_completed{node=\"node\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("teda_counter_total{node=\"node\",counter=\"searches\"} 2"),
            "{metrics}"
        );
        server.shutdown();
    }
}
