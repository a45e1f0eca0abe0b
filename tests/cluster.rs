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
use teda::websim::{PageId, SearchBackend, SearchResult, WebCorpus, WebPage};
use teda::wire::protocol::{
    render_many, render_shard_stats, MAX_BATCH, MAX_FETCH, MAX_FRAME, MAX_K,
};
use teda::wire::{Reply, Request, ShardStatsReport, WireError};

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

/// `backend.search_many(batch)`, each answer placed at its position;
/// every position must be answered exactly once.
fn answers_of(backend: &dyn SearchBackend, batch: &[(&str, usize)]) -> Vec<Vec<SearchResult>> {
    let mut answers = vec![None; batch.len()];
    backend.search_many(batch, &mut |i, results| {
        assert!(
            answers[i].replace(results).is_none(),
            "query {i} answered twice"
        );
    });
    answers
        .into_iter()
        .enumerate()
        .map(|(i, answer)| answer.unwrap_or_else(|| panic!("query {i} never answered")))
        .collect()
}

/// Checks a routed batch against the single node query by query: the
/// typed path's ids and score bits, and the trait path's results.
fn assert_batch_matches(router: &ClusterRouter, corpus: &WebCorpus, batch: &[(&str, usize)]) {
    let typed = router.try_search_many(batch);
    assert_eq!(typed.len(), batch.len());
    for (outcome, &(q, k)) in typed.into_iter().zip(batch) {
        let hits = outcome.unwrap_or_else(|e| panic!("{q:?} k {k}: {e:?}"));
        let scored: Vec<(PageId, f64)> = hits.iter().map(|h| (h.id, h.score)).collect();
        assert_eq!(
            to_bits(&scored),
            to_bits(&corpus.index().search(q, k)),
            "batched ranking diverged on {q:?} k {k}"
        );
        let results: Vec<SearchResult> = hits.into_iter().map(|h| h.result).collect();
        assert_eq!(results, corpus.search_results(q, k), "{q:?} k {k}");
    }
    let want: Vec<Vec<SearchResult>> = batch
        .iter()
        .map(|&(q, k)| corpus.search_results(q, k))
        .collect();
    assert_eq!(answers_of(router, batch), want, "search_many diverged");
}

/// The router's `(shard_fanouts, partial_results, replica_retries)`
/// counters.
fn router_counts(router: &ClusterRouter) -> (u64, u64, u64) {
    let obs = router.obs();
    (
        obs.counter("shard_fanouts").get(),
        obs.counter("partial_results").get(),
        obs.counter("replica_retries").get(),
    )
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
        let (fanouts, partials, _) = router_counts(&router);
        assert!(fanouts > 0, "scatter must be counted");
        assert_eq!(partials, 0, "healthy cluster must not report partials");

        // Every (query, k) pair, cycled past two frame bounds, with
        // repeats: three SEARCH-MANY frames per group, split at
        // MAX_BATCH, each query answered as the single node answers it.
        let probes = probes();
        let pairs: Vec<(&str, usize)> = probes
            .iter()
            .flat_map(|q| KS.iter().map(move |&k| (q.as_str(), k)))
            .chain([("harbor", 0)])
            .collect();
        let batch: Vec<(&str, usize)> = pairs
            .iter()
            .copied()
            .cycle()
            .take(2 * MAX_BATCH + 5)
            .collect();
        assert_batch_matches(&router, &corpus, &batch);
        let (after, partials, _) = router_counts(&router);
        assert_eq!(
            after - fanouts,
            2 * 3 * u64::from(n_shards),
            "a batch of 2 × {MAX_BATCH} + 5 queries is 3 frames per group, twice"
        );
        assert_eq!(partials, 0);
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
    let (_, partials, retries) = router_counts(&router);
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
    let (_, partials, _) = router_counts(&router);
    assert!(partials >= 2, "both degraded scatters must be counted");

    // A batch degrades query by query: each answer is the single-query
    // degraded merge, each query counts one partial result, and the
    // trait path answers as its per-query loop does.
    let batch = [
        ("harbor museum", 10),
        ("jazz", 3),
        ("zanzibar xylophone", 10),
    ];
    let per_query: Vec<_> = batch
        .iter()
        .flat_map(|&query| router.try_search_many(&[query]))
        .collect();
    let (_, before, _) = router_counts(&router);
    let batched = router.try_search_many(&batch);
    let (_, after, _) = router_counts(&router);
    assert_eq!(after - before, batch.len() as u64, "one partial per query");
    for ((got, want), &(q, k)) in batched.iter().zip(&per_query).zip(&batch) {
        match (got, want) {
            (
                Err(ClusterError::PartialResults { dead_shards, hits }),
                Err(ClusterError::PartialResults {
                    dead_shards: want_dead,
                    hits: want_hits,
                }),
            ) => {
                assert_eq!(dead_shards, &vec![1]);
                assert_eq!(dead_shards, want_dead);
                assert_eq!(to_bits(hits), to_bits(want_hits), "{q:?}");
                assert_eq!(
                    to_bits(hits),
                    to_bits(&merge_topk([shard0.search(q, k)], k)),
                    "{q:?}: the exact merge over the live shard"
                );
            }
            other => panic!("{q:?}: expected PartialResults twice, got {other:?}"),
        }
    }
    let want: Vec<Vec<SearchResult>> = batch
        .iter()
        .map(|&(q, k)| router.search_results(q, k))
        .collect();
    assert_eq!(answers_of(&router, &batch), want);

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
    let batch_frames = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let fake = {
        let (frames, batch_frames, stop) = (
            Arc::clone(&frames),
            Arc::clone(&batch_frames),
            Arc::clone(&stop),
        );
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let mut line = String::new();
                if BufReader::new(&stream).read_line(&mut line).unwrap_or(0) > 0 {
                    frames.fetch_add(1, Ordering::SeqCst);
                    if line.contains("SEARCH-MANY") || line.contains("FETCH") {
                        batch_frames.fetch_add(1, Ordering::SeqCst);
                    }
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
    let (_, partials, retries) = router_counts(&router);
    assert_eq!(partials, 0, "failover within a group is not a partial");
    assert!(retries > 0, "the mute replica must be visible as retries");

    // The batch path, on a second router whose health state starts
    // fresh (the first one has learned to put the fake last). Four
    // routed batches (the typed and the trait path, twice), each
    // rotating the group twice: once for its SEARCH-MANY frame, once
    // for its FETCH. Connecting tried the fake first (one failure) and
    // left the rotation at 1, so every SEARCH-MANY starts on the live
    // replica and every FETCH on the fake, which takes the frame and
    // dies without a reply; the frame is retried whole on the live
    // replica. The fake's third failure, at the second FETCH, marks it
    // unhealthy, so the later FETCHes start on the live one.
    let router = ClusterRouter::connect(&topo, quick_config()).expect("connect");
    let batch_frames_at_connect = batch_frames.load(Ordering::SeqCst);
    let probes = probes();
    let batch: Vec<(&str, usize)> = probes.iter().map(|q| (q.as_str(), 10)).collect();
    let (_, _, retries_before) = router_counts(&router);
    for _ in 0..2 {
        assert_batch_matches(&router, &corpus, &batch);
    }
    assert_eq!(
        batch_frames.load(Ordering::SeqCst) - batch_frames_at_connect,
        2,
        "two batch frames, both FETCH frames, met the fake"
    );
    let (_, partials, retries) = router_counts(&router);
    assert_eq!(partials, 0, "failover within a group is not a partial");
    assert!(
        retries > retries_before,
        "the dead batch frame must be retried"
    );

    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(fake_addr); // wake the accept loop
    fake.join().expect("fake replica thread");
    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A hard wire error on a batch stays with the query that caused it:
/// the shards refuse the whole frame (one `k` over `MAX_K`), the router
/// resends each query as its own frame, and only that query fails; the
/// others are answered as the single node answers them.
/// A replica that relays the real shard's reply but cuts it off by EOF
/// inside the frame fails over like a reset: the last byte of the last
/// field, the escaped line end and the frame's newline never arrive. Cut
/// there, a `FETCH` reply still parses, with a shorter snippet, so the
/// router must refuse every cut frame, `SEARCH-MANY` and `FETCH` alike:
/// each answer stays bit-identical, the detour shows as retries, and
/// nothing degrades to partial.
#[test]
fn a_reply_cut_off_by_eof_fails_over_bit_identically() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let mut rng = StdRng::seed_from_u64(67);
    let corpus = synth_corpus(&mut rng, 18);
    let root = temp_dir("cut_replica");
    let servers = serve_partition(&corpus, 2, &root);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake replica");
    let fake_addr = listener.local_addr().unwrap();
    let upstream = servers[0].local_addr();
    let cuts = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // Relays one connection's frames to the real replica; a search
    // frame's reply goes back cut, and the connection closes.
    let relay = {
        let cuts = Arc::clone(&cuts);
        move |stream: TcpStream| {
            let shard = TcpStream::connect(upstream).expect("dial the real replica");
            let mut from_shard = BufReader::new(shard.try_clone().unwrap());
            let mut to_shard = shard;
            let mut from_router = BufReader::new(stream.try_clone().unwrap());
            let mut to_router = stream;
            loop {
                let mut frame = String::new();
                if from_router.read_line(&mut frame).unwrap_or(0) == 0 {
                    return;
                }
                to_shard.write_all(frame.as_bytes()).unwrap();
                let mut reply = String::new();
                from_shard.read_line(&mut reply).unwrap();
                if frame.contains("SEARCH-MANY") || frame.contains("FETCH") {
                    let _ = to_router.write_all(&reply.as_bytes()[..reply.len() - 4]);
                    cuts.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                to_router.write_all(reply.as_bytes()).unwrap();
            }
        }
    };
    let fake = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let relay = relay.clone();
                conns.push(std::thread::spawn(move || relay(stream)));
            }
            for conn in conns {
                conn.join().expect("relay connection");
            }
        })
    };

    let topo = vec![
        vec![fake_addr, servers[0].local_addr()],
        vec![servers[1].local_addr()],
    ];
    let router = ClusterRouter::connect(&topo, quick_config()).expect("connect");
    let probes = probes();
    for q in &probes {
        let got = router.try_search(q, 10).expect("the live replica answers");
        assert_eq!(
            to_bits(&got),
            to_bits(&corpus.index().search(q, 10)),
            "a cut reply changed the ranking of {q:?}"
        );
    }
    let batch: Vec<(&str, usize)> = probes.iter().map(|q| (q.as_str(), 10)).collect();
    for _ in 0..2 {
        assert_batch_matches(&router, &corpus, &batch);
    }
    assert!(
        cuts.load(Ordering::SeqCst) > 0,
        "the fake replica must have cut a reply"
    );
    let (_, partials, retries) = router_counts(&router);
    assert_eq!(partials, 0, "failover within a group is not a partial");
    assert!(retries > 0, "the cut replies must be visible as retries");

    drop(router);
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(fake_addr); // wake the accept loop
    fake.join().expect("fake replica thread");
    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_batch_with_one_bad_query_fails_only_that_query() {
    let mut rng = StdRng::seed_from_u64(71);
    let corpus = synth_corpus(&mut rng, 16);
    let root = temp_dir("bad_query");
    let servers = serve_partition(&corpus, 2, &root);
    let router = ClusterRouter::connect(&topology(&servers), quick_config()).expect("connect");

    let batch = [("harbor", 10), ("jazz", MAX_K + 1), ("museum quartet", 3)];
    let outcomes = router.try_search_many(&batch);
    assert_eq!(outcomes.len(), batch.len());
    for (outcome, &(q, k)) in outcomes.into_iter().zip(&batch) {
        if k > MAX_K {
            match outcome {
                Err(ClusterError::Wire {
                    error: WireError::BadRequest(_),
                    ..
                }) => {}
                other => panic!("{q:?} k {k}: expected a bad request, got {other:?}"),
            }
            continue;
        }
        let hits = outcome.unwrap_or_else(|e| panic!("{q:?} k {k}: {e:?}"));
        let scored: Vec<(PageId, f64)> = hits.iter().map(|h| (h.id, h.score)).collect();
        assert_eq!(to_bits(&scored), to_bits(&corpus.index().search(q, k)));
    }
    let want: Vec<Vec<SearchResult>> = batch
        .iter()
        .map(|&(q, k)| {
            if k > MAX_K {
                Vec::new()
            } else {
                corpus.search_results(q, k)
            }
        })
        .collect();
    assert_eq!(answers_of(&router, &batch), want);
    let (_, partials, retries) = router_counts(&router);
    assert_eq!(
        (partials, retries),
        (0, 0),
        "a bad request is not an outage"
    );

    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A reply longer than `MAX_FRAME` is a hard error of its frame, and the
/// connection that read it is dropped, not pooled. The fake shard below
/// follows its over-long line with a well-formed forged reply, so a
/// pooled connection would hand that forgery to the next query the
/// router sends on it (here the fallback's first single-query frame).
#[test]
fn an_over_long_reply_drops_its_connection() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap();
    let over_long = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let forged = vec![(PageId(7), 1.0)];
    let serve = {
        let over_long = Arc::clone(&over_long);
        move |stream: TcpStream| {
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                let request = match Request::parse(&line) {
                    Ok(Request::Traced { inner, .. }) => *inner,
                    other => other.expect("the router sends well-formed frames"),
                };
                line.clear();
                let reply = match request {
                    Request::ShardStats => Reply::Ok(render_shard_stats(&ShardStatsReport {
                        shard: 0,
                        n_shards: 1,
                        docs: 8,
                        global_docs: 8,
                        searches: 0,
                    }))
                    .encode(),
                    Request::SearchMany { queries } if queries.len() > 1 => {
                        over_long.fetch_add(1, Ordering::SeqCst);
                        "x".repeat(MAX_FRAME + 1)
                            + &Reply::Ok(render_many(std::slice::from_ref(&forged))).encode()
                    }
                    Request::SearchMany { queries } => {
                        Reply::Ok(render_many(&vec![Vec::new(); queries.len()])).encode()
                    }
                    other => panic!("unexpected request {other:?}"),
                };
                if writer.write_all(reply.as_bytes()).is_err() {
                    return; // the router dropped the connection mid-reply
                }
            }
        }
    };
    let fake = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let serve = serve.clone();
                handlers.push(std::thread::spawn(move || serve(stream)));
            }
            for h in handlers {
                h.join().expect("fake shard connection");
            }
        })
    };

    let router = ClusterRouter::connect(&[vec![addr]], quick_config()).expect("connect");
    let outcomes = router.try_search_many(&[("harbor", 10), ("jazz", 10)]);
    assert_eq!(over_long.load(Ordering::SeqCst), 1, "one over-long reply");
    for outcome in outcomes {
        let hits = outcome.expect("the fallback answers each query");
        assert!(
            hits.is_empty(),
            "a stale tail was read as an answer: {hits:?}"
        );
    }
    let (_, partials, retries) = router_counts(&router);
    assert_eq!(
        (partials, retries),
        (0, 0),
        "the fallback dials a fresh connection; it never meets the spoiled one"
    );
    drop(router);

    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr); // wake the accept loop
    fake.join().expect("fake shard thread");
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
    let (_, partials, _) = router_counts(&router);
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
        stats.counter("shard_fanouts") > 0,
        "service stats must surface the router's fan-outs"
    );
    assert_eq!(stats.counter("partial_results"), 0);
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

/// The `fetched` counters of every shard server, summed: pages hydrated
/// by `FETCH` cluster-wide.
fn fetched(servers: &[ShardServer]) -> u64 {
    servers
        .iter()
        .map(|s| s.obs().counter("fetched").get())
        .sum()
}

/// A batch past both frame bounds: more queries than `MAX_BATCH` (so
/// several `SEARCH-MANY` frames) and, at a large `k`, more distinct
/// winners on one shard than `MAX_FETCH` (so several `FETCH` frames for
/// that shard in one frame). Every `(query, k)` is answered as the
/// single node answers it, and the shards hydrate exactly each frame's
/// distinct winners.
#[test]
fn a_batch_split_at_both_frame_bounds_equals_the_single_node() {
    let mut rng = StdRng::seed_from_u64(89);
    let corpus = synth_corpus(&mut rng, 2 * MAX_FETCH + 90);
    let every_term = VOCAB.join(" ");
    let root = temp_dir("frame_bounds");
    let servers = serve_partition(&corpus, 2, &root);
    let router = ClusterRouter::connect(&topology(&servers), quick_config()).expect("connect");

    let probes = probes();
    let pairs: Vec<(&str, usize)> = probes
        .iter()
        .flat_map(|q| KS.iter().map(move |&k| (q.as_str(), k)))
        .chain([
            (every_term.as_str(), corpus.len()),
            (every_term.as_str(), 300),
        ])
        .collect();
    let batch: Vec<(&str, usize)> = pairs
        .iter()
        .copied()
        .cycle()
        .take(2 * MAX_BATCH + 5)
        .collect();
    let assignment = partition_pages(corpus.len(), 2);
    let most_on_one_shard = (0..2u32)
        .map(|s| {
            let on = |id: &PageId| assignment[id.0 as usize] == s;
            corpus
                .index()
                .search(&every_term, corpus.len())
                .iter()
                .filter(|(id, _)| on(id))
                .count()
        })
        .max()
        .unwrap();
    assert!(
        most_on_one_shard > MAX_FETCH,
        "a shard must hold more than one FETCH frame of winners"
    );

    // Each frame's distinct winners, as the single node ranks them.
    let distinct_winners: u64 = batch
        .chunks(MAX_BATCH)
        .map(|frame| {
            let mut ids: Vec<PageId> = frame
                .iter()
                .flat_map(|&(q, k)| corpus.index().search(q, k))
                .map(|(id, _)| id)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() as u64
        })
        .sum();
    assert_batch_matches(&router, &corpus, &batch);
    assert_eq!(
        fetched(&servers),
        2 * distinct_winners,
        "two routed batches hydrate each frame's distinct winners, no more"
    );
    let (_, partials, retries) = router_counts(&router);
    assert_eq!((partials, retries), (0, 0));
    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A replica in front of a real shard server: it relays each frame and
/// its reply until `dead` is raised. Dead, it closes each relayed
/// connection at its next frame and drops every new connection unread,
/// as a dead process would, keeping the frames it refused. `on_rank`,
/// when set, is raised as a `SEARCH-MANY` reply goes back: the hook
/// that kills a replica between the two phases of a routed search.
struct Relay {
    addr: SocketAddr,
    dead: Arc<std::sync::atomic::AtomicBool>,
    refused: Arc<std::sync::Mutex<Vec<String>>>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    acceptor: std::thread::JoinHandle<()>,
}

impl Relay {
    fn start(
        upstream: SocketAddr,
        dead: Arc<std::sync::atomic::AtomicBool>,
        on_rank: Option<Arc<std::sync::atomic::AtomicBool>>,
    ) -> Relay {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};
        use std::sync::atomic::{AtomicBool, Ordering};

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
        let addr = listener.local_addr().unwrap();
        let refused = Arc::new(std::sync::Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let relay = {
            let (dead, refused) = (Arc::clone(&dead), Arc::clone(&refused));
            move |stream: TcpStream| {
                let shard = TcpStream::connect(upstream).expect("dial the real replica");
                let mut from_shard = BufReader::new(shard.try_clone().unwrap());
                let mut to_shard = shard;
                let mut from_router = BufReader::new(stream.try_clone().unwrap());
                let mut to_router = stream;
                loop {
                    let mut frame = String::new();
                    if from_router.read_line(&mut frame).unwrap_or(0) == 0 {
                        return;
                    }
                    if dead.load(Ordering::SeqCst) {
                        refused.lock().unwrap().push(frame);
                        return; // closes the connection with no reply
                    }
                    to_shard.write_all(frame.as_bytes()).unwrap();
                    let mut reply = String::new();
                    from_shard.read_line(&mut reply).unwrap();
                    // Raised before the reply goes back, so the kill
                    // lands before the router can send the FETCH.
                    if frame.contains("SEARCH-MANY") {
                        if let Some(flag) = &on_rank {
                            flag.store(true, Ordering::SeqCst);
                        }
                    }
                    to_router.write_all(reply.as_bytes()).unwrap();
                }
            }
        };
        let acceptor = {
            let (dead, stop) = (Arc::clone(&dead), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut conns = Vec::new();
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if dead.load(Ordering::SeqCst) {
                        continue; // dropped unread
                    }
                    let relay = relay.clone();
                    conns.push(std::thread::spawn(move || relay(stream)));
                }
                for conn in conns {
                    conn.join().expect("relay connection");
                }
            })
        };
        Relay {
            addr,
            dead,
            refused,
            stop,
            acceptor,
        }
    }

    /// Joins the relay; every router connected to it must be dropped
    /// first, so its relayed connections end.
    fn shutdown(self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(self.addr); // wake the accept loop
        self.acceptor.join().expect("relay thread");
    }
}

/// Query then fetch with one replica killed between the phases: shard
/// 0's group is two relays and the real server. A `SEARCH-MANY` through
/// relay A kills relay B, which the group's rotation sends the `FETCH`
/// to next; the `FETCH` fails there and is retried on the group's next
/// replica. Every answer stays bit-identical, the detour shows as
/// retries, and nothing degrades to partial.
#[test]
fn a_replica_killed_between_the_phases_fails_over_bit_identically() {
    use std::sync::atomic::Ordering;

    let mut rng = StdRng::seed_from_u64(97);
    let corpus = synth_corpus(&mut rng, 18);
    let root = temp_dir("between_phases");
    let servers = serve_partition(&corpus, 2, &root);
    let b_dead = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let relay_b = Relay::start(servers[0].local_addr(), Arc::clone(&b_dead), None);
    let relay_a = Relay::start(servers[0].local_addr(), Arc::default(), Some(b_dead));
    let topo = vec![
        vec![relay_a.addr, relay_b.addr, servers[0].local_addr()],
        vec![servers[1].local_addr()],
    ];
    let router = ClusterRouter::connect(&topo, quick_config()).expect("connect");

    // Connecting rotated group 0 once. Two ids-only searches rotate it
    // on to relay A, so the batch's SEARCH-MANY goes through A and its
    // FETCH, one rotation later, to B.
    for q in ["harbor", "jazz"] {
        router.try_search(q, 10).expect("healthy");
    }
    assert!(!relay_b.dead.load(Ordering::SeqCst), "B still lives");
    let probes = probes();
    let batch: Vec<(&str, usize)> = probes.iter().map(|q| (q.as_str(), 10)).collect();
    let (_, _, retries_before) = router_counts(&router);
    assert_batch_matches(&router, &corpus, &batch);
    assert!(
        relay_b.dead.load(Ordering::SeqCst),
        "A's SEARCH-MANY killed B"
    );
    assert!(
        relay_b
            .refused
            .lock()
            .unwrap()
            .iter()
            .any(|f| f.contains("FETCH")),
        "the FETCH met the killed replica: {:?}",
        relay_b.refused.lock().unwrap()
    );
    let (_, partials, retries) = router_counts(&router);
    assert!(retries > retries_before, "the failed FETCH must be retried");
    assert_eq!(partials, 0, "failover within a group is not a partial");

    drop(router);
    relay_a.shutdown();
    relay_b.shutdown();
    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A whole group that answers phase 1 and dies before its `FETCH`: each
/// query with a winner on that shard gets exactly the `PartialResults`
/// a group dead from the start gives (the merge over the other shard),
/// counted once per degraded query; the queries with no winner there
/// stay exact.
#[test]
fn a_group_dying_between_the_phases_degrades_only_the_queries_it_held_winners_for() {
    use std::sync::atomic::Ordering;

    let mut rng = StdRng::seed_from_u64(101);
    let corpus = synth_corpus(&mut rng, 18);
    let root = temp_dir("group_between_phases");
    let dirs = partition_corpus(&corpus, 2, &root).expect("partition");
    let start = |dir: &PathBuf| ShardServer::start(dir, true, "127.0.0.1:0").expect("serve");
    let servers: Vec<ShardServer> = dirs.iter().map(start).collect();
    // The relay is shard 1's only replica, and kills itself once it has
    // relayed a SEARCH-MANY reply.
    let dead = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let relay = Relay::start(servers[1].local_addr(), Arc::clone(&dead), Some(dead));
    let config = RouterConfig {
        attempts: 2,
        ..quick_config()
    };
    let router = ClusterRouter::connect(&[vec![servers[0].local_addr()], vec![relay.addr]], config)
        .expect("connect");

    // A router whose shard 1 is dead from the start: the oracle.
    let from_start: Vec<ShardServer> = dirs.iter().map(start).collect();
    let oracle = ClusterRouter::connect(&topology(&from_start), config).expect("connect");
    let mut from_start = from_start;
    from_start.remove(1).shutdown();

    let probes = probes();
    let batch: Vec<(&str, usize)> = probes
        .iter()
        .flat_map(|q| [(q.as_str(), 1), (q.as_str(), 10)])
        .collect();
    let assignment = partition_pages(corpus.len(), 2);
    let held = |q: &str, k: usize| {
        corpus
            .index()
            .search(q, k)
            .iter()
            .any(|(id, _)| assignment[id.0 as usize] == 1)
    };
    let (_, before, _) = router_counts(&router);
    let outcomes = router.try_search_many(&batch);
    let (_, after, _) = router_counts(&router);
    assert!(
        relay.dead.load(Ordering::SeqCst),
        "the group died after phase 1"
    );
    let want = oracle.try_search_many(&batch);
    let degraded = batch.iter().filter(|&&(q, k)| held(q, k)).count();
    assert!(
        degraded > 0 && degraded < batch.len(),
        "the batch must hold both kinds of query"
    );
    assert_eq!(
        after - before,
        degraded as u64,
        "one partial per degraded query"
    );
    for ((got, want), &(q, k)) in outcomes.iter().zip(&want).zip(&batch) {
        if held(q, k) {
            match (got, want) {
                (
                    Err(ClusterError::PartialResults { dead_shards, hits }),
                    Err(ClusterError::PartialResults {
                        dead_shards: want_dead,
                        hits: want_hits,
                    }),
                ) => {
                    assert_eq!(dead_shards, &vec![1], "{q:?} k {k}");
                    assert_eq!(dead_shards, want_dead, "{q:?} k {k}");
                    assert_eq!(to_bits(hits), to_bits(want_hits), "{q:?} k {k}");
                }
                other => panic!("{q:?} k {k}: expected PartialResults twice, got {other:?}"),
            }
        } else {
            let hits = got
                .as_ref()
                .unwrap_or_else(|e| panic!("{q:?} k {k} held no winner on shard 1: {e:?}"));
            let scored: Vec<(PageId, f64)> = hits.iter().map(|h| (h.id, h.score)).collect();
            assert_eq!(to_bits(&scored), to_bits(&corpus.index().search(q, k)));
            let results: Vec<SearchResult> = hits.iter().map(|h| h.result.clone()).collect();
            assert_eq!(results, corpus.search_results(q, k), "{q:?} k {k}");
        }
    }

    drop(router);
    drop(oracle);
    relay.shutdown();
    for s in servers.into_iter().chain(from_start) {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A shard that answers `FETCH` with a well-formed reply naming a page
/// that was not asked for: the router returns a typed error for each
/// query, never that page's fields under the id it ranked.
#[test]
fn a_forged_fetch_reply_is_a_typed_error_never_a_wrong_field() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use teda::wire::protocol::render_fetched;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap();
    let forged = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let serve = {
        let forged = Arc::clone(&forged);
        move |stream: TcpStream| {
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                let request = match Request::parse(&line) {
                    Ok(Request::Traced { inner, .. }) => *inner,
                    other => other.expect("the router sends well-formed frames"),
                };
                line.clear();
                let reply = match request {
                    Request::ShardStats => render_shard_stats(&ShardStatsReport {
                        shard: 0,
                        n_shards: 1,
                        docs: 8,
                        global_docs: 8,
                        searches: 0,
                    }),
                    Request::SearchMany { queries } => {
                        render_many(&vec![
                            vec![(PageId(5), 2.0), (PageId(3), 1.0)];
                            queries.len()
                        ])
                    }
                    // Every id but the last is echoed; the last names
                    // page 6, which nobody asked for.
                    Request::Fetch { mut ids } => {
                        forged.fetch_add(1, Ordering::SeqCst);
                        let pages: Vec<SearchResult> = ids
                            .iter()
                            .map(|id| SearchResult {
                                url: format!("http://forged.example/{}", id.0),
                                title: "forged".into(),
                                snippet: "the fields of another page".into(),
                            })
                            .collect();
                        if let Some(last) = ids.last_mut() {
                            *last = PageId(6);
                        }
                        render_fetched(&ids, &pages)
                    }
                    other => panic!("unexpected request {other:?}"),
                };
                if writer
                    .write_all(Reply::Ok(reply).encode().as_bytes())
                    .is_err()
                {
                    return;
                }
            }
        }
    };
    let fake = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let serve = serve.clone();
                handlers.push(std::thread::spawn(move || serve(stream)));
            }
            for h in handlers {
                h.join().expect("fake shard connection");
            }
        })
    };

    let router = ClusterRouter::connect(&[vec![addr]], quick_config()).expect("connect");
    // The ids-only path never fetches, so it is answered.
    assert_eq!(
        to_bits(&router.try_search("harbor", 10).expect("no FETCH")),
        vec![(5, 2.0f64.to_bits()), (3, 1.0f64.to_bits())]
    );
    // A two-query frame falls back to one frame per query; each fails
    // typed, and so does a one-query frame.
    let batch = [("harbor", 10), ("jazz", 10)];
    let outcomes = router
        .try_search_many(&batch)
        .into_iter()
        .chain(router.try_search_many(&[("museum", 10)]));
    for outcome in outcomes {
        match outcome {
            Err(ClusterError::Wire {
                shard: 0,
                error: WireError::BadRequest(_),
            }) => {}
            other => panic!("a forged FETCH reply must be a typed error, got {other:?}"),
        }
    }
    assert_eq!(
        forged.load(Ordering::SeqCst),
        4,
        "one forged reply per frame"
    );
    // The trait path answers no fields rather than forged ones.
    assert!(router.search_results("harbor", 10).is_empty());
    assert_eq!(answers_of(&router, &batch), vec![Vec::new(), Vec::new()]);
    let (_, partials, retries) = router_counts(&router);
    assert_eq!(
        (partials, retries),
        (0, 0),
        "a forged reply is a hard error, not an outage"
    );
    drop(router);

    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr); // wake the accept loop
    fake.join().expect("fake shard thread");
}
