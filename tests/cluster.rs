//! Cluster serving-tier integration: the scatter-gather router must be
//! **bit-identical** to the single-node index at every `(query, k)` —
//! over arbitrary partitions, over real TCP, with replicas dying
//! mid-run — and every degradation must surface typed (never a panic,
//! never a silently shrunken answer). This is the `cargo test --test
//! cluster` gate CI runs on every push.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use teda::cluster::{
    build_shard, partition_corpus, partition_pages, ClusterError, ClusterRouter, RouterConfig,
    ShardBackend, ShardServer,
};
use teda::store::ShardManifest;
use teda::websim::scoring::merge_topk;
use teda::websim::{PageId, SearchBackend, WebCorpus, WebPage};

/// Small closed vocabulary — frequent collisions, the regime where
/// merge/tie-break bugs show up (same as the conformance suite).
const VOCAB: [&str; 12] = [
    "harbor", "museum", "jazz", "espresso", "quartet", "granite", "lantern", "orchard", "velvet",
    "cinnamon", "atlas", "meridian",
];

fn synth_page(rng: &mut StdRng, url: &str) -> WebPage {
    let words = |rng: &mut StdRng, n: usize| -> String {
        (0..n)
            .map(|_| *VOCAB.choose(rng).expect("vocab non-empty"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let n_title = rng.gen_range(1..=3);
    let n_body = rng.gen_range(4..=12);
    WebPage {
        url: url.into(),
        title: words(rng, n_title),
        body: words(rng, n_body),
    }
}

fn synth_corpus(rng: &mut StdRng, n: usize) -> WebCorpus {
    WebCorpus::from_pages(
        (0..n)
            .map(|i| synth_page(rng, &format!("http://web.sim/{i}")))
            .collect(),
    )
}

/// Single terms, multi-term, a query matching nothing, the empty query.
fn probes() -> Vec<String> {
    vec![
        "harbor".into(),
        "espresso quartet".into(),
        "harbor museum jazz granite".into(),
        "zanzibar xylophone".into(),
        String::new(),
    ]
}

const KS: [usize; 4] = [1, 3, 10, 100];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("teda_cluster_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// In-process shard backends for an explicit assignment (no TCP).
fn in_proc_shards(corpus: &WebCorpus, n_shards: u32, assignment: &[u32]) -> Vec<ShardBackend> {
    (0..n_shards)
        .map(|s| {
            let (local, manifest) = build_shard(corpus, s, n_shards, assignment).expect("build");
            ShardBackend::from_parts(Arc::new(local), manifest).expect("valid shard")
        })
        .collect()
}

/// Writes a partition and starts one server per shard (alternating
/// mapped / heap-resident, so both serving modes face the oracle).
fn serve_partition(corpus: &WebCorpus, n_shards: u32, root: &Path) -> Vec<ShardServer> {
    let dirs = partition_corpus(corpus, n_shards, root).expect("partition");
    dirs.iter()
        .enumerate()
        .map(|(i, dir)| ShardServer::start(dir, i % 2 == 0, "127.0.0.1:0").expect("serve shard"))
        .collect()
}

fn topology(servers: &[ShardServer]) -> Vec<Vec<SocketAddr>> {
    servers.iter().map(|s| vec![s.local_addr()]).collect()
}

/// Fast-failing router config for loopback tests.
fn quick_config() -> RouterConfig {
    RouterConfig {
        attempts: 3,
        backoff: Duration::from_millis(5),
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(2),
        pool_per_replica: 2,
    }
}

fn to_bits(hits: &[(PageId, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

/// The merge invariant, in-process, against the hash partitioner and
/// the shard counts the issue names — plus a partition engineered so
/// one shard is empty and one matches nothing.
#[test]
fn merged_shards_are_bit_identical_to_the_single_node() {
    let mut rng = StdRng::seed_from_u64(11);
    let corpus = synth_corpus(&mut rng, 23);
    for n_shards in [1u32, 2, 3, 7] {
        let assignment = partition_pages(corpus.len(), n_shards);
        let shards = in_proc_shards(&corpus, n_shards, &assignment);
        for q in probes() {
            for k in KS {
                let want = corpus.index().search(&q, k);
                let got = merge_topk(shards.iter().map(|s| s.search(&q, k)), k);
                assert_eq!(
                    to_bits(&got),
                    to_bits(&want),
                    "{n_shards} shards diverged on {q:?} k {k}"
                );
            }
        }
    }

    // All pages on shard 1 of 3: shard 0 and 2 are empty, and every
    // query against them matches nothing. Merge must shrug.
    let empty_heavy = vec![1u32; corpus.len()];
    let shards = in_proc_shards(&corpus, 3, &empty_heavy);
    assert_eq!(shards[0].n_docs(), 0);
    assert_eq!(shards[2].n_docs(), 0);
    for q in probes() {
        let want = corpus.index().search(&q, 10);
        let got = merge_topk(shards.iter().map(|s| s.search(&q, 10)), 10);
        assert_eq!(to_bits(&got), to_bits(&want), "empty shards broke {q:?}");
    }
}

proptest::proptest! {
    /// Property: for random corpora and *arbitrary* random partitions
    /// (not just the stable hash — includes empty and zero-match
    /// shards), the merged per-shard top-k equals the single-node
    /// top-k bit for bit, for N ∈ {1, 2, 3, 7} and random k.
    #[test]
    fn random_partitions_merge_bit_identically(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_docs = rng.gen_range(1..=20usize);
        let corpus = synth_corpus(&mut rng, n_docs);
        for n_shards in [1u32, 2, 3, 7] {
            let assignment: Vec<u32> = (0..corpus.len())
                .map(|_| rng.gen_range(0..n_shards))
                .collect();
            let shards = in_proc_shards(&corpus, n_shards, &assignment);
            let ks = [1usize, rng.gen_range(1..=8), 100];
            for q in probes() {
                for k in ks {
                    let want = corpus.index().search(&q, k);
                    let got = merge_topk(shards.iter().map(|s| s.search(&q, k)), k);
                    assert_eq!(
                        to_bits(&got),
                        to_bits(&want),
                        "seed {seed} n_shards {n_shards} q {q:?} k {k}"
                    );
                }
            }
        }
    }
}

/// The router over real TCP: bit-identical rankings *and* identical
/// assembled results at every probe and depth, for several shard
/// counts, served from on-disk images (mapped and heap).
#[test]
fn router_over_tcp_is_bit_identical_at_every_shard_count() {
    let mut rng = StdRng::seed_from_u64(29);
    let corpus = synth_corpus(&mut rng, 19);
    for n_shards in [1u32, 2, 4] {
        let root = temp_dir(&format!("tcp_{n_shards}"));
        let servers = serve_partition(&corpus, n_shards, &root);
        let router = ClusterRouter::connect(&topology(&servers), quick_config()).expect("connect");
        assert_eq!(router.n_docs(), corpus.len());
        for q in probes() {
            for k in KS {
                let want = corpus.index().search(&q, k);
                let got = router.try_search(&q, k).expect("healthy cluster");
                assert_eq!(
                    to_bits(&got),
                    to_bits(&want),
                    "{n_shards} shards over TCP diverged on {q:?} k {k}"
                );
                assert_eq!(
                    router.search_results(&q, k),
                    corpus.search_results(&q, k),
                    "assembled results diverged on {q:?} k {k}"
                );
            }
        }
        let (fanouts, partials, _) = router.telemetry().snapshot();
        assert!(fanouts > 0, "scatter must be counted");
        assert_eq!(partials, 0, "healthy cluster must not report partials");
        for s in servers {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Failover: 2 shards × 2 replicas; one replica dies mid-run. Results
/// stay bit-identical to the single node (the group's other replica
/// answers), the retry counter moves, and nothing degrades to partial.
#[test]
fn killing_one_replica_mid_run_keeps_results_bit_identical() {
    let mut rng = StdRng::seed_from_u64(43);
    let corpus = synth_corpus(&mut rng, 17);
    let root = temp_dir("failover");
    let dirs = partition_corpus(&corpus, 2, &root).expect("partition");

    // Two independent replicas per shard — one mapped, one heap, like
    // separate processes over the same shard image.
    let mut replicas: Vec<Vec<ShardServer>> = dirs
        .iter()
        .map(|dir| {
            vec![
                ShardServer::start(dir, true, "127.0.0.1:0").expect("replica a"),
                ShardServer::start(dir, false, "127.0.0.1:0").expect("replica b"),
            ]
        })
        .collect();
    let topo: Vec<Vec<SocketAddr>> = replicas
        .iter()
        .map(|group| group.iter().map(|s| s.local_addr()).collect())
        .collect();
    let router = ClusterRouter::connect(&topo, quick_config()).expect("connect");

    let oracle: Vec<Vec<(u32, u64)>> = probes()
        .iter()
        .map(|q| to_bits(&corpus.index().search(q, 10)))
        .collect();
    for (q, want) in probes().iter().zip(&oracle) {
        assert_eq!(&to_bits(&router.try_search(q, 10).unwrap()), want);
    }

    // Kill shard 0's first replica mid-run.
    replicas[0].remove(0).shutdown();
    for round in 0..3 {
        for (q, want) in probes().iter().zip(&oracle) {
            let got = router
                .try_search(q, 10)
                .expect("one live replica per group suffices");
            assert_eq!(
                &to_bits(&got),
                want,
                "round {round}: results changed after replica death on {q:?}"
            );
        }
    }
    let (_, partials, retries) = router.telemetry().snapshot();
    assert_eq!(partials, 0, "failover within a group is not a partial");
    assert!(
        retries > 0,
        "hitting the dead replica must be visible as retries"
    );

    for group in replicas {
        for s in group {
            s.shutdown();
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A whole replica group down: the typed path names the dead shard and
/// carries the exact merge over the live shards; the infallible
/// `SearchBackend` path returns those degraded hits and bumps the
/// `partial_results` counter. Nothing panics, nothing lies.
#[test]
fn whole_group_down_is_typed_partial_results() {
    let mut rng = StdRng::seed_from_u64(57);
    let corpus = synth_corpus(&mut rng, 15);
    let root = temp_dir("partial");
    let servers = serve_partition(&corpus, 2, &root);
    let topo = topology(&servers);
    let router = ClusterRouter::connect(
        &topo,
        RouterConfig {
            attempts: 2,
            ..quick_config()
        },
    )
    .expect("connect");

    // Shard 1's only replica dies.
    let mut servers = servers;
    servers.remove(1).shutdown();

    // Shard 0 alone, in-process, is the oracle for the degraded answer.
    let assignment = partition_pages(corpus.len(), 2);
    let shard0 = in_proc_shards(&corpus, 2, &assignment).remove(0);

    let q = "harbor museum";
    match router.try_search(q, 10) {
        Err(ClusterError::PartialResults { dead_shards, hits }) => {
            assert_eq!(dead_shards, vec![1]);
            assert_eq!(
                to_bits(&hits),
                to_bits(&merge_topk([shard0.search(q, 10)], 10)),
                "degraded hits must be the exact merge over the live shard"
            );
            // The trait path serves the same degraded answer.
            assert_eq!(to_bits(&router.search(q, 10)), to_bits(&hits));
        }
        other => panic!("expected PartialResults, got {other:?}"),
    }
    let (_, partials, _) = router.telemetry().snapshot();
    assert!(partials >= 2, "both degraded scatters must be counted");

    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A replica that accepts a connection, reads the frame and closes
/// without replying fails the pipelined first try of its group after
/// the frame was sent. The group resumes its schedule on the live
/// replica: answers stay bit-identical, the detour shows as retries,
/// and nothing degrades to partial.
#[test]
fn a_replica_that_closes_without_replying_fails_over_bit_identically() {
    use std::io::{BufRead, BufReader};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let mut rng = StdRng::seed_from_u64(61);
    let corpus = synth_corpus(&mut rng, 18);
    let root = temp_dir("mute_replica");
    let servers = serve_partition(&corpus, 2, &root);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake replica");
    let fake_addr = listener.local_addr().unwrap();
    let frames = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let fake = {
        let (frames, stop) = (Arc::clone(&frames), Arc::clone(&stop));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let mut line = String::new();
                if BufReader::new(&stream).read_line(&mut line).unwrap_or(0) > 0 {
                    frames.fetch_add(1, Ordering::SeqCst);
                }
                // Dropping the stream closes it with no reply.
            }
        })
    };

    // Shard 0's group lists the fake first, so rotation sends it
    // pipelined first tries until it is marked unhealthy.
    let topo = vec![
        vec![fake_addr, servers[0].local_addr()],
        vec![servers[1].local_addr()],
    ];
    let router = ClusterRouter::connect(&topo, quick_config()).expect("connect");
    let frames_at_connect = frames.load(Ordering::SeqCst);
    for q in probes() {
        for k in KS {
            let got = router.try_search(&q, k).expect("the live replica answers");
            assert_eq!(
                to_bits(&got),
                to_bits(&corpus.index().search(&q, k)),
                "failover changed the ranking of {q:?} k {k}"
            );
            assert_eq!(
                router.search_results(&q, k),
                corpus.search_results(&q, k),
                "failover changed the results of {q:?} k {k}"
            );
        }
    }
    assert!(
        frames.load(Ordering::SeqCst) > frames_at_connect,
        "the fake replica must have been sent search frames"
    );
    let (_, partials, retries) = router.telemetry().snapshot();
    assert_eq!(partials, 0, "failover within a group is not a partial");
    assert!(retries > 0, "the mute replica must be visible as retries");

    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(fake_addr); // wake the accept loop
    fake.join().expect("fake replica thread");
    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Every group dead at once: the answer is a typed `PartialResults`
/// naming both shards, and the dead groups retry concurrently — the
/// scatter takes one retry schedule, not one schedule per dead group.
#[test]
fn all_groups_dead_retry_concurrently_within_one_schedule() {
    use std::time::Instant;

    let mut rng = StdRng::seed_from_u64(67);
    let corpus = synth_corpus(&mut rng, 14);
    let root = temp_dir("all_dead");
    let servers = serve_partition(&corpus, 2, &root);
    let config = RouterConfig {
        attempts: 3,
        backoff: Duration::from_millis(200),
        ..quick_config()
    };
    let router = ClusterRouter::connect(&topology(&servers), config).expect("connect");
    for s in servers {
        s.shutdown();
    }

    // One group's schedule sleeps `backoff × pass` before each pass
    // after the first: 200 + 400 ms here.
    let schedule: Duration = (1..config.attempts).map(|pass| config.backoff * pass).sum();
    let t0 = Instant::now();
    let outcome = router.try_search("harbor museum", 10);
    let elapsed = t0.elapsed();
    match outcome {
        Err(ClusterError::PartialResults { dead_shards, hits }) => {
            assert_eq!(dead_shards, vec![0, 1]);
            assert!(hits.is_empty(), "no live shard, no hits");
        }
        other => panic!("expected PartialResults, got {other:?}"),
    }
    assert!(
        elapsed >= schedule,
        "the full schedule must run before a shard is declared down: {elapsed:?}"
    );
    assert!(
        elapsed < schedule * 2,
        "dead groups must retry concurrently: {elapsed:?} against one schedule of {schedule:?}"
    );
    let (_, partials, _) = router.telemetry().snapshot();
    assert_eq!(partials, 1, "one degraded scatter");
    let _ = std::fs::remove_dir_all(&root);
}

/// Misconfiguration fails typed at connect time, before any query can
/// return a wrong ranking: shuffled shard order, truncated topology,
/// and a corrupted manifest on disk.
#[test]
fn misconfiguration_and_corruption_are_typed_errors() {
    let mut rng = StdRng::seed_from_u64(71);
    let corpus = synth_corpus(&mut rng, 12);
    let root = temp_dir("misconfig");
    let servers = serve_partition(&corpus, 2, &root);
    let topo = topology(&servers);

    // Groups swapped: the server answering as shard 1 sits where the
    // router expects shard 0.
    let swapped = vec![topo[1].clone(), topo[0].clone()];
    assert!(matches!(
        ClusterRouter::connect(&swapped, quick_config()),
        Err(ClusterError::Config(_))
    ));

    // Truncated: one group, but the shard identifies as 1-of-2.
    assert!(matches!(
        ClusterRouter::connect(&topo[..1], quick_config()),
        Err(ClusterError::Config(_))
    ));

    // Structurally empty topologies.
    assert!(matches!(
        ClusterRouter::connect(&[], quick_config()),
        Err(ClusterError::Config(_))
    ));
    assert!(matches!(
        ClusterRouter::connect(&[Vec::new()], quick_config()),
        Err(ClusterError::Config(_))
    ));

    for s in servers {
        s.shutdown();
    }

    // Flip one byte in a shard manifest: opening the image is a typed
    // store error, not a differently-ranked shard.
    let dirs = partition_corpus(&corpus, 2, &temp_dir("corrupt")).expect("partition");
    let manifest_path = dirs[0].join("shard.manifest");
    let mut bytes = std::fs::read(&manifest_path).expect("read manifest");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&manifest_path, &bytes).expect("write corrupted");
    assert!(
        matches!(ShardBackend::open(&dirs[0]), Err(ClusterError::Store(_))),
        "corrupt manifest must fail typed"
    );
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The tentpole wiring: the router is just another [`SearchBackend`],
/// so the whole annotation engine runs over the cluster unchanged —
/// and, because the router is bit-identical to the single node, every
/// annotation is too. Attaching the router's telemetry to the service
/// surfaces the fan-out counters through `ServiceStats`.
#[test]
fn annotator_over_the_cluster_matches_the_monolith() {
    use teda::classifier::svm::pegasos::PegasosConfig;
    use teda::core::config::AnnotatorConfig;
    use teda::core::pipeline::BatchAnnotator;
    use teda::core::trainer::{harvest, train_svm_linear, TrainerConfig};
    use teda::corpus::gft::poi_table;
    use teda::kb::{CategoryNetwork, EntityType, World, WorldSpec};
    use teda::service::{AnnotationService, ServiceConfig, SubmitRequest, Wait};
    use teda::simkit::rng_from_seed;
    use teda::websim::{BingSim, WebCorpusSpec};
    use teda::wire::protocol::render_annotations;

    let world = World::generate(WorldSpec::tiny(), 42);
    let net = CategoryNetwork::build(&world, 42);
    let web = Arc::new(WebCorpus::build(&world, WebCorpusSpec::tiny(), 42));
    let engine = Arc::new(BingSim::instant(Arc::clone(&web) as Arc<dyn SearchBackend>));
    let training = harvest(
        &world,
        &net,
        engine.as_ref(),
        &EntityType::TARGETS,
        TrainerConfig {
            max_entities_per_type: Some(12),
            ..TrainerConfig::default()
        },
    );
    let classifier = train_svm_linear(&training, PegasosConfig::default());
    let monolith = BatchAnnotator::new(
        engine.clone(),
        classifier.clone(),
        AnnotatorConfig::default(),
    );

    // The same corpus, sharded 3 ways and served over TCP.
    let root = temp_dir("annotator");
    let servers = serve_partition(&web, 3, &root);
    let router = ClusterRouter::connect(&topology(&servers), quick_config()).expect("connect");
    let telemetry = router.telemetry();
    let cluster_engine = Arc::new(BingSim::instant(Arc::new(router) as Arc<dyn SearchBackend>));
    let clustered = BatchAnnotator::new(
        cluster_engine.clone(),
        classifier.clone(),
        AnnotatorConfig::default(),
    );

    let mut rng = rng_from_seed(7);
    for (i, ty) in [EntityType::Restaurant, EntityType::Museum]
        .iter()
        .enumerate()
    {
        let table = poi_table(&world, *ty, 8, i as u8, &format!("cluster_{i}"), &mut rng).table;
        assert_eq!(
            render_annotations(&clustered.annotate_table(&table)),
            render_annotations(&monolith.annotate_table(&table)),
            "annotations over the cluster diverged on table {i}"
        );
    }

    // Satellite (f): the service surfaces the router's counters.
    let service = AnnotationService::start(
        BatchAnnotator::new(cluster_engine, classifier, AnnotatorConfig::default()),
        ServiceConfig::default(),
    );
    service.attach_cluster_telemetry(Arc::clone(&telemetry));
    let table = poi_table(&world, EntityType::Hotel, 6, 0, "svc", &mut rng).table;
    service
        .submit(SubmitRequest {
            wait: Wait::Block(None),
            ..Arc::new(table).into()
        })
        .expect("admitted")
        .wait()
        .expect("annotated");
    let stats = service.stats();
    assert!(
        stats.shard_fanouts > 0,
        "service stats must surface the router's fan-outs"
    );
    assert_eq!(stats.partial_results, 0);
    service.shutdown();

    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The partitioner is deterministic end to end: partitioning the same
/// corpus twice yields byte-identical manifests and identical shard
/// corpora — a re-deploy never silently reshuffles pages.
#[test]
fn partitioning_is_deterministic_on_disk() {
    let mut rng = StdRng::seed_from_u64(83);
    let corpus = synth_corpus(&mut rng, 21);
    let root_a = temp_dir("det_a");
    let root_b = temp_dir("det_b");
    let dirs_a = partition_corpus(&corpus, 3, &root_a).expect("partition a");
    let dirs_b = partition_corpus(&corpus, 3, &root_b).expect("partition b");
    for (a, b) in dirs_a.iter().zip(&dirs_b) {
        assert_eq!(
            std::fs::read(a.join("shard.manifest")).unwrap(),
            std::fs::read(b.join("shard.manifest")).unwrap(),
            "manifest bytes must be identical across runs"
        );
        let ma = ShardManifest::load(a).unwrap();
        let backend_a = ShardBackend::open(a).unwrap();
        let backend_b = ShardBackend::open(b).unwrap();
        assert_eq!(backend_a.n_docs(), ma.global_ids.len());
        for q in probes() {
            assert_eq!(
                to_bits(&backend_a.search(&q, 100)),
                to_bits(&backend_b.search(&q, 100))
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}
