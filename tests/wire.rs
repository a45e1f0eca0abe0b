//! Wire front-end integration: the TCP line protocol must deliver
//! annotations bit-identical to the offline batch path, survive
//! untrusted input (quoted CSV, bad frames) without panicking, mirror
//! every admission rejection as a typed wire error, and account each
//! connection's client separately — the loopback smoke gate CI runs on
//! every push.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use teda::classifier::svm::pegasos::PegasosConfig;
use teda::core::config::AnnotatorConfig;
use teda::core::model::SnippetClassifier;
use teda::core::pipeline::BatchAnnotator;
use teda::core::trainer::{harvest, train_svm_linear, TrainerConfig};
use teda::corpus::gft::poi_table;
use teda::corpus::typed_table_to_csv;
use teda::kb::{CategoryNetwork, EntityType, World, WorldSpec};
use teda::service::{AnnotationService, ServiceConfig};
use teda::simkit::rng_from_seed;
use teda::tabular::Table;
use teda::websim::BingSim;
use teda::websim::{
    PageId, SearchBackend, SearchResult, SwappableBackend, WebCorpus, WebCorpusSpec, WebPage,
};
use teda::wire::protocol::{
    parse_fetched, render_annotations, render_fetched, MAX_BATCH, MAX_FRAME,
};
use teda::wire::{Reply, Request, WireClient, WireError, WireServer};

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

fn seeded_tables(world: &World, n: usize, rows: usize) -> Vec<Table> {
    let mut rng = rng_from_seed(7);
    let types = [
        EntityType::Restaurant,
        EntityType::Museum,
        EntityType::Hotel,
    ];
    (0..n)
        .map(|i| {
            poi_table(
                world,
                types[i % types.len()],
                rows,
                (i % 3) as u8,
                &format!("wire_{i}"),
                &mut rng,
            )
            .table
        })
        .collect()
}

fn serve(
    engine: Arc<BingSim>,
    classifier: SnippetClassifier,
    config: ServiceConfig,
) -> (Arc<AnnotationService>, WireServer) {
    let service = Arc::new(AnnotationService::start(
        BatchAnnotator::new(engine, classifier, AnnotatorConfig::default()),
        config,
    ));
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    (service, server)
}

#[test]
fn wire_results_are_bit_identical_to_the_offline_batch_path() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_tables(&world, 6, 10);
    let offline = BatchAnnotator::new(
        engine.clone(),
        classifier.clone(),
        AnnotatorConfig::default(),
    );

    let (_service, server) = serve(
        engine,
        classifier,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    for (i, table) in tables.iter().enumerate() {
        let reference = render_annotations(&offline.annotate_table(table));
        let payload = client
            .annotate(&format!("wire_{i}"), &typed_table_to_csv(table))
            .expect("annotation succeeds over the wire");
        assert_eq!(
            payload, reference,
            "wire result for table {i} diverged from the offline batch path"
        );
    }
    server.shutdown();
}

#[test]
fn quoted_csv_with_commas_and_newlines_survives_the_wire() {
    let (_world, engine, classifier) = fixture();
    let offline = BatchAnnotator::new(
        engine.clone(),
        classifier.clone(),
        AnnotatorConfig::default(),
    );

    // A POI address with an embedded comma AND an embedded newline: the
    // frame must stay one line, and the parsed table must match what
    // table_from_csv sees offline.
    let csv = "#types,Text,Location\nname,address\n\
               \"Bar, Grill & Co\",\"1104 Wilshire Blvd,\nSanta Monica\"\n";
    let reference_table =
        teda::corpus::table_from_csv(csv, "quoted").expect("the CSV itself is well-formed");
    let reference = render_annotations(&offline.annotate_table(&reference_table));

    let (_service, server) = serve(engine, classifier, ServiceConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let payload = client
        .annotate("quoted", csv)
        .expect("quoted CSV annotates");
    assert_eq!(payload, reference);
    server.shutdown();
}

#[test]
fn typed_wire_errors_mirror_rejections() {
    let (world, engine, classifier) = fixture();
    let table = &seeded_tables(&world, 1, 8)[0];
    let need = (table.n_rows() * table.n_cols()) as u64;

    let (_service, server) = serve(
        engine,
        classifier,
        ServiceConfig {
            workers: 1,
            max_queries_per_request: Some(need - 1),
            query_pool: Some(0),
            ..ServiceConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    // Oversize: rejected up front with the need/budget pair intact.
    let err = client
        .annotate("big", &typed_table_to_csv(table))
        .expect_err("oversize table must be rejected");
    assert_eq!(
        err,
        WireError::TooLarge {
            need,
            budget: need - 1
        }
    );

    // Dry pool + TRY: sheds instead of parking the connection.
    let small = "#types,Text\nname\nMelisse\n";
    let err = client
        .try_annotate("small", small)
        .expect_err("a dry pool must shed TRY");
    assert_eq!(err, WireError::BudgetExhausted);

    // Malformed CSV: an in-band bad-request, not a dead connection.
    let err = client
        .annotate("ragged", "a,b\nonly-one-field\n")
        .expect_err("ragged CSV is a bad request");
    assert!(matches!(err, WireError::BadRequest(_)), "{err}");

    // The connection still works after every error above.
    let budget = client.budget().expect("BUDGET works after errors");
    assert_eq!(budget, "budget 0");
    server.shutdown();
}

#[test]
fn raw_socket_bad_frames_get_typed_errors_and_the_connection_survives() {
    let (_world, engine, classifier) = fixture();
    let (_service, server) = serve(engine, classifier, ServiceConfig::default());

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut reply = String::new();

    writer.write_all(b"BOGUS verb\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ERR bad-request"), "{reply:?}");

    reply.clear();
    writer.write_all(b"ANNOTATE t bad\\escape\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ERR bad-request"), "{reply:?}");

    // Same connection, now a valid frame: the reader resynchronized.
    reply.clear();
    writer.write_all(b"BUDGET\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "OK budget unmetered\n");

    reply.clear();
    writer.write_all(b"QUIT\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "OK bye\n");
    server.shutdown();
}

#[test]
fn stats_verb_reports_per_client_counters() {
    let (world, engine, classifier) = fixture();
    let tables = seeded_tables(&world, 2, 6);
    let (_service, server) = serve(engine, classifier, ServiceConfig::default());

    let mut bulk = WireClient::connect(server.local_addr()).expect("connect bulk");
    bulk.set_client("bulk").expect("CLIENT verb");
    let mut ui = WireClient::connect(server.local_addr()).expect("connect ui");
    ui.set_client("ui").expect("CLIENT verb");

    bulk.annotate("t0", &typed_table_to_csv(&tables[0]))
        .unwrap();
    bulk.annotate("t1", &typed_table_to_csv(&tables[1]))
        .unwrap();
    ui.annotate("t0", &typed_table_to_csv(&tables[0])).unwrap();

    let stats = ui.stats().expect("STATS verb");
    let bulk_line = stats
        .lines()
        .find(|l| l.starts_with("client bulk "))
        .expect("bulk client accounted");
    assert!(bulk_line.contains("submitted=2"), "{bulk_line}");
    assert!(bulk_line.contains("completed=2"), "{bulk_line}");
    let ui_line = stats
        .lines()
        .find(|l| l.starts_with("client ui "))
        .expect("ui client accounted");
    assert!(ui_line.contains("submitted=1"), "{ui_line}");
    assert!(stats.lines().next().unwrap().contains("completed=3"));
    server.shutdown();
}

/// Regression: a connection whose `ANNOTATE` is parked on a dry query
/// pool must not deadlock `WireServer::shutdown` — the shutdown kick
/// cancels the parked admission and the client sees `shutting-down`
/// (or a closed socket), never a hang.
#[test]
fn shutdown_unparks_a_connection_waiting_on_a_dry_pool() {
    let (world, engine, classifier) = fixture();
    let table = &seeded_tables(&world, 1, 4)[0];
    let (_service, server) = serve(
        engine,
        classifier,
        ServiceConfig {
            workers: 1,
            query_pool: Some(0), // bone dry, no refill anywhere
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();
    let csv = typed_table_to_csv(table);
    let parked = std::thread::spawn(move || {
        let mut client = WireClient::connect(addr).expect("connect");
        client.set_client("parked").expect("CLIENT");
        client.annotate("t", &csv)
    });
    // Give the connection time to park inside admission control…
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!parked.is_finished(), "the dry pool must park the request");
    // …then shutdown must cancel it and return (a hang here IS the bug).
    server.shutdown();
    let outcome = parked.join().expect("client thread");
    match outcome {
        Err(WireError::ShuttingDown) | Err(WireError::Transport(_)) => {}
        other => panic!("parked request must fail on shutdown, got {other:?}"),
    }
}

/// Satellite (client timeouts): a server that accepts the connection
/// but never answers must error the call out within the configured
/// deadline instead of blocking the caller forever.
#[test]
fn io_timeout_errors_out_against_a_mute_server() {
    use std::time::{Duration, Instant};

    // A "server" that accepts and then plays dead: no reads, no frames.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind mute server");
    let addr = listener.local_addr().unwrap();
    let mute = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        // Hold the socket open well past the client's deadline.
        std::thread::sleep(Duration::from_millis(500));
        drop(stream);
    });

    let mut client =
        WireClient::connect_timeout(&addr, Duration::from_millis(80)).expect("handshake works");
    let t0 = Instant::now();
    let err = client
        .budget()
        .expect_err("a mute server must not block the caller forever");
    let elapsed = t0.elapsed();
    assert!(matches!(err, WireError::Transport(_)), "{err:?}");
    assert!(
        elapsed < Duration::from_millis(400),
        "timeout took {elapsed:?}, deadline was 80ms"
    );
    mute.join().unwrap();

    // The same deadline against a live server is harmless.
    let (_world, engine, classifier) = fixture();
    let (_service, server) = serve(engine, classifier, ServiceConfig::default());
    let mut client = WireClient::connect_timeout(&server.local_addr(), Duration::from_secs(5))
        .expect("connect with deadline");
    assert_eq!(
        client.budget().expect("live server answers"),
        "budget unmetered"
    );
    // And clearing the timeout restores the blocking behaviour.
    client.set_io_timeout(None).expect("clear timeout");
    assert_eq!(client.budget().unwrap(), "budget unmetered");
    server.shutdown();
}

/// A reply longer than `MAX_FRAME` is a typed `bad-request`, and it
/// leaves the connection unframed: the rest of that line is still
/// unread, so the client sends nothing more on it rather than read that
/// tail as the next reply.
#[test]
fn an_over_long_reply_leaves_the_client_unframed() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("one request");
        let reply = "x".repeat(MAX_FRAME + 1) + "OK budget unmetered\n";
        let _ = (&stream).write_all(reply.as_bytes());
        // Hold the socket until the client hangs up.
        let _ = reader.read_line(&mut line);
    });

    let mut client = WireClient::connect(addr).expect("connect");
    assert!(client.is_framed());
    let err = client.budget().expect_err("an over-long reply is refused");
    assert!(matches!(err, WireError::BadRequest(_)), "{err:?}");
    assert!(!client.is_framed());
    let err = client
        .budget()
        .expect_err("the tail is never read as a reply");
    assert!(matches!(err, WireError::Transport(_)), "{err:?}");
    drop(client);
    fake.join().unwrap();
}

/// The `SNAPSHOT` verb: persists the cache snapshot over the wire when
/// the service has a store, and fails typed — connection intact — when
/// it does not.
#[test]
fn snapshot_verb_persists_and_fails_typed_without_a_store() {
    let (world, engine, classifier) = fixture();
    let table = &seeded_tables(&world, 1, 6)[0];

    // Without a store: typed failure, connection lives on.
    let (_service, server) = serve(engine.clone(), classifier.clone(), ServiceConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let err = client.snapshot().expect_err("no store dir configured");
    assert!(matches!(err, WireError::Failed(_)), "{err:?}");
    assert_eq!(client.budget().unwrap(), "budget unmetered");
    server.shutdown();

    // With a store: the verb reports how many entries were persisted,
    // and the file lands on disk.
    let dir = std::env::temp_dir().join(format!("teda_wire_snap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_service, server) = serve(
        engine,
        classifier,
        ServiceConfig {
            workers: 1,
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    client
        .annotate("warmup", &typed_table_to_csv(table))
        .expect("annotate to warm the cache");
    let payload = client.snapshot().expect("SNAPSHOT with a store succeeds");
    let entries: usize = payload
        .strip_prefix("snapshot ")
        .expect("payload shape")
        .parse()
        .expect("entry count");
    assert!(entries > 0, "a warmed cache must persist entries");
    assert!(dir.join("cache.snap").exists());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (auto-reconnect): a client that opted in survives a server
/// restart transparently — but only for read-only verbs. A mutating
/// verb over the dead connection fails typed; a replay could
/// double-apply the submission.
#[test]
fn auto_reconnect_retries_read_only_verbs_across_a_server_restart() {
    let (world, engine, classifier) = fixture();
    let table = &seeded_tables(&world, 1, 4)[0];

    let (_service, server) = serve(engine.clone(), classifier.clone(), ServiceConfig::default());
    let addr = server.local_addr();

    let mut client = WireClient::connect(addr).expect("connect");
    client.set_auto_reconnect(true);
    let mut plain = WireClient::connect(addr).expect("connect control");
    assert_eq!(client.budget().unwrap(), "budget unmetered");

    // Drop the server mid-stream, then bring a fresh one up on the very
    // same address — the restart every long-lived client eventually sees.
    server.shutdown();
    let service = Arc::new(AnnotationService::start(
        BatchAnnotator::new(engine, classifier, AnnotatorConfig::default()),
        ServiceConfig::default(),
    ));
    let server = WireServer::start(Arc::clone(&service), addr).expect("rebind same address");

    // Mutating verb first: the stale connection fails typed, no retry.
    let err = client
        .annotate("t", &typed_table_to_csv(table))
        .expect_err("a mutating verb must not be replayed onto the new server");
    assert!(matches!(err, WireError::Transport(_)), "{err:?}");
    assert_eq!(
        service.stats().counter("submitted"),
        0,
        "nothing may have been replayed"
    );

    // Read-only verb: redials once and succeeds against the new server.
    assert_eq!(
        client.budget().expect("BUDGET survives the restart"),
        "budget unmetered"
    );

    // Without the opt-in, the same restart is a hard transport error.
    let err = plain.budget().expect_err("no opt-in, no retry");
    assert!(matches!(err, WireError::Transport(_)), "{err:?}");
    server.shutdown();
}

#[test]
fn concurrent_connections_are_served_independently() {
    let (world, engine, classifier) = fixture();
    let tables = Arc::new(seeded_tables(&world, 4, 8));
    let offline = BatchAnnotator::new(
        engine.clone(),
        classifier.clone(),
        AnnotatorConfig::default(),
    );
    let references: Vec<String> = tables
        .iter()
        .map(|t| render_annotations(&offline.annotate_table(t)))
        .collect();

    let (service, server) = serve(
        engine,
        classifier,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let tables = Arc::clone(&tables);
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).expect("connect");
                client.set_client(&format!("conn{w}")).expect("CLIENT");
                let table = &tables[w];
                client
                    .annotate(&format!("wire_{w}"), &typed_table_to_csv(table))
                    .expect("annotation over a concurrent connection")
            })
        })
        .collect();
    for (w, handle) in workers.into_iter().enumerate() {
        let payload = handle.join().expect("client thread");
        assert_eq!(payload, references[w], "connection {w} diverged");
    }
    let stats = service.stats();
    for w in 0..4 {
        let c = stats.client(&format!("conn{w}")).expect("per-conn client");
        assert_eq!(c.completed, 1);
    }
    server.shutdown();
}

/// Ranks against one of two corpora by turns, one turn per ranking, and
/// counts the rankings: the worst case of a publish landing between two
/// rankings of the same request.
struct FlippingBackend {
    corpora: [WebCorpus; 2],
    rankings: std::sync::atomic::AtomicUsize,
}

impl FlippingBackend {
    fn rankings(&self) -> usize {
        self.rankings.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn next(&self) -> &WebCorpus {
        let turn = self
            .rankings
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        &self.corpora[turn % 2]
    }
}

impl SearchBackend for FlippingBackend {
    fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        SearchBackend::search(self.next(), query, k)
    }

    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult> {
        self.next().search_results(query, k)
    }

    fn n_docs(&self) -> usize {
        self.corpora[0].len()
    }
}

/// A one-query `SEARCH-MANY` ranks once, so every hit's id and score
/// come from one corpus, even when the backend changes between rankings
/// (a swappable node over a live corpus): each reply must equal `search`
/// of the corpus that one ranking resolved. The fields cannot be paired
/// with those hits afterwards: a `FETCH` on the swappable node is
/// refused, typed, because an id from one ranking may name another page
/// after a swap.
#[test]
fn a_one_query_search_many_ranks_once_and_pairs_each_hit_with_its_own_page() {
    // The same query ranks different pages, under different ids, in
    // each corpus.
    let a = WebCorpus::from_pages(vec![
        page("a0", "harbor museum"),
        page("a1", "harbor harbor jazz"),
        page("a2", "quartet"),
    ]);
    let b = WebCorpus::from_pages(vec![
        page("b0", "quartet"),
        page("b1", "harbor"),
        page("b2", "lantern"),
        page("b3", "harbor museum museum"),
    ]);
    let flipping = Arc::new(FlippingBackend {
        corpora: [a, b],
        rankings: std::sync::atomic::AtomicUsize::new(0),
    });
    let node = Arc::new(SwappableBackend::new(Arc::clone(&flipping) as _));
    let server = WireServer::start_search_only(node, None, "127.0.0.1:0").expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    for (query, k) in [("harbor", 5), ("harbor museum", 2), ("zanzibar", 3)] {
        for _ in 0..2 {
            let before = flipping.rankings();
            let hits = client
                .search_many(&[(query, k)])
                .expect("SEARCH-MANY")
                .remove(0);
            assert_eq!(
                flipping.rankings(),
                before + 1,
                "a one-query SEARCH-MANY must rank exactly once ({query:?})"
            );
            let corpus = &flipping.corpora[before % 2];
            let scored: Vec<(u32, u64)> = hits
                .iter()
                .map(|&(id, score)| (id.0, score.to_bits()))
                .collect();
            let want: Vec<(u32, u64)> = SearchBackend::search(corpus, query, k)
                .iter()
                .map(|&(id, score)| (id.0, score.to_bits()))
                .collect();
            assert_eq!(scored, want, "ids and scores of {query:?}");
        }
    }
    // Every page id is held by both corpora, and still refused.
    for ids in [&[PageId(0)][..], &[PageId(1), PageId(2)]] {
        match client.fetch(ids) {
            Err(WireError::BadRequest(_)) => {}
            other => panic!("a FETCH on a swappable node must be refused, got {other:?}"),
        }
    }
    assert_eq!(
        client
            .search("harbor", 5)
            .expect("the connection lives on")
            .len(),
        2
    );
    server.shutdown();
}

/// `SEARCH-MANY` answers each of its queries exactly as a one-query
/// frame answers it alone, and as the backend's `search` does, in
/// request order (repeats, the empty query and
/// `k = 0` included); `SHARD-STATS` counts one search per query; the
/// frame runs under a `TRACE` prefix; and malformed batches are typed
/// `bad-request`s that leave the connection usable.
#[test]
fn search_many_answers_each_query_as_it_is_answered_alone() {
    let corpus = Arc::new(WebCorpus::from_pages(vec![
        page("p0", "harbor museum"),
        page("p1", "harbor harbor jazz"),
        page("p2", "quartet\tlantern"),
        page("p3", "museum museum lantern"),
    ]));
    let server =
        WireServer::start_search_only(Arc::clone(&corpus) as _, None, "127.0.0.1:0").expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let batch = [
        ("harbor", 3),
        ("museum lantern", 10),
        ("", 5),
        ("harbor", 3),
        ("jazz", 0),
        ("zanzibar", 2),
    ];
    let want: Vec<_> = batch
        .iter()
        .map(|&query| client.search_many(&[query]).expect("SEARCH-MANY").remove(0))
        .collect();
    for (hits, &(q, k)) in want.iter().zip(&batch) {
        let bits = |hits: &[(PageId, f64)]| -> Vec<(u32, u64)> {
            hits.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
        };
        assert_eq!(
            bits(hits),
            bits(&SearchBackend::search(corpus.as_ref(), q, k)),
            "{q:?} alone must be the backend's own hits"
        );
    }
    let searches = client.shard_stats().expect("SHARD-STATS").searches;
    assert_eq!(searches, batch.len() as u64);
    assert_eq!(client.search_many(&batch).expect("SEARCH-MANY"), want);
    assert_eq!(
        client.shard_stats().expect("SHARD-STATS").searches,
        2 * batch.len() as u64,
        "one search per query of the batch"
    );

    // An empty batch is refused, typed, and the connection lives on.
    assert!(matches!(
        client.search_many(&[]),
        Err(WireError::BadRequest(_))
    ));

    let mut roundtrip = raw_connection(server.local_addr());
    let over_bound = format!("SEARCH-MANY {} 3 harbor\n", MAX_BATCH + 1);
    for bad in [
        "SEARCH-MANY 2 3 harbor\n",
        "SEARCH-MANY 1 3 harbor\t3 jazz\n",
        "SEARCH-MANY 1 100001 harbor\n",
        &over_bound,
        "SEARCH-MANY 0 \n",
        "SEARCH-MANY 2 3 harbor\t3\n",
    ] {
        let reply = roundtrip(bad);
        assert!(reply.starts_with("ERR bad-request"), "{bad:?}: {reply:?}");
    }
    let traced = roundtrip("TRACE 000000000000002a SEARCH-MANY 2 3 harbor\t1 jazz\n");
    assert!(traced.starts_with("OK queries=2"), "{traced:?}");
    let dump = client.trace_dump(0x2a).expect("the batch was traced");
    assert!(dump.render().contains("search"), "{}", dump.render());
    server.shutdown();
}

fn page(url: &str, body: &str) -> WebPage {
    WebPage {
        url: url.into(),
        title: url.to_uppercase(),
        body: body.into(),
    }
}

/// A raw connection: each call writes one frame and returns the reply
/// line exactly as the server sent it.
fn raw_connection(addr: SocketAddr) -> impl FnMut(&str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    move |frame| {
        writer.write_all(frame.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    }
}

/// One dispatch serves a traceable verb with or without a `TRACE <id>`
/// prefix: `SEARCH-MANY`, `FETCH`, `ANNOTATE` and `TRY` each answer the
/// same bytes either way and count the same searches, and only the
/// traced frame leaves a `TRACE-DUMP`-able tree under its id.
#[test]
fn traced_and_plain_frames_answer_the_same_bytes() {
    let corpus = Arc::new(WebCorpus::from_pages(vec![
        page("p0", "harbor museum"),
        page("p1", "harbor harbor jazz"),
        page("p2", "quartet lantern"),
    ]));
    let search_node = WireServer::start_search_only(corpus, None, "127.0.0.1:0").expect("bind");
    let (world, engine, classifier) = fixture();
    let (_service, annotation_node) = serve(engine, classifier, ServiceConfig::default());
    let csv = typed_table_to_csv(&seeded_tables(&world, 1, 6)[0]);

    // (node, request, trace root, searches the request counts; `None`
    // where the node keeps no search counter)
    let cases = [
        (
            &search_node,
            Request::Fetch {
                ids: vec![PageId(0), PageId(2)],
            },
            "fetch",
            Some(0),
        ),
        (
            &search_node,
            Request::SearchMany {
                queries: vec![(3, "harbor".into()), (1, "jazz".into())],
            },
            "search_many",
            Some(2),
        ),
        (
            &annotation_node,
            Request::Annotate {
                name: "traced".into(),
                csv: csv.clone(),
            },
            "request",
            None,
        ),
        (
            &annotation_node,
            Request::Try {
                name: "traced".into(),
                csv,
            },
            "request",
            None,
        ),
    ];
    for (i, (server, request, root, searches)) in cases.into_iter().enumerate() {
        let id = 0x7ace_0000_0000_0000 + i as u64;
        let mut raw = raw_connection(server.local_addr());
        let mut client = WireClient::connect(server.local_addr()).expect("connect");
        let count = |client: &mut WireClient| {
            searches.map(|_| client.shard_stats().expect("SHARD-STATS").searches)
        };

        let before = count(&mut client);
        let plain = raw(&request.encode());
        let after_plain = count(&mut client);
        assert!(
            client.trace_dump(id).is_err(),
            "{root}: a plain frame records nothing under {id:016x}"
        );
        let traced = raw(&Request::Traced {
            id,
            inner: Box::new(request),
        }
        .encode());
        let after_traced = count(&mut client);

        assert!(plain.starts_with("OK "), "{root}: {plain:?}");
        assert_eq!(
            traced, plain,
            "{root}: tracing must not change a reply byte"
        );
        if let (Some(n), Some(before), Some(mid), Some(after)) =
            (searches, before, after_plain, after_traced)
        {
            assert_eq!(mid - before, n, "{root}: plain search count");
            assert_eq!(after - mid, n, "{root}: traced search count");
        }
        let tree = client.trace_dump(id).expect("the traced frame left a tree");
        assert_eq!(tree.id, id);
        assert_eq!(tree.spans[0].name, root);
    }
    search_node.shutdown();
    annotation_node.shutdown();
}

/// A reply cut off by EOF before its newline is a transport error, not
/// an answer: cut inside the last snippet of a `FETCH` reply, the bytes
/// would still parse, with a shorter snippet. The client then refuses
/// to reuse the connection, which is how a router knows to try the next
/// replica.
#[test]
fn a_reply_cut_off_by_eof_is_a_transport_error() {
    let page = SearchResult {
        url: "http://web.sim/4".into(),
        title: "Harbor".into(),
        snippet: "harbor museum".into(),
    };
    let whole = Reply::Ok(render_fetched(&[PageId(4)], &[page])).encode();
    let cut = whole
        .strip_suffix(" museum\\n\n")
        .expect("the reply ends in the snippet")
        .to_owned();
    let Ok(Reply::Ok(payload)) = Reply::parse(&cut) else {
        panic!("the cut frame parses");
    };
    assert_eq!(
        parse_fetched(&payload, &[PageId(4)]).unwrap()[0].snippet,
        "harbor"
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut frame = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut frame)
            .unwrap();
        assert_eq!(frame, "FETCH 1 4\n");
        (&stream).write_all(cut.as_bytes()).unwrap();
        // Dropping the stream closes it: EOF inside the frame.
    });

    let mut client = WireClient::connect(addr).expect("connect");
    let answer = client.fetch(&[PageId(4)]);
    assert!(matches!(answer, Err(WireError::Transport(_))), "{answer:?}");
    assert!(!client.is_framed(), "the connection must not be reused");
    fake.join().expect("fake shard");
}

/// A request cut off by EOF before its newline is never run: the server
/// answers nothing and drops the connection, so `SHARD-STATS` counts no
/// search. The same frame, ended, runs.
#[test]
fn a_request_cut_off_by_eof_is_never_run() {
    let corpus = Arc::new(WebCorpus::from_pages(vec![page("p0", "harbor museum")]));
    let server = WireServer::start_search_only(corpus, None, "127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // A server that kept the socket open would stall the read below.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"SEARCH-MANY 1 5 harbor").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("the server closes the connection");
    assert_eq!(reply, "", "no reply to a frame that never ended");

    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.shard_stats().expect("SHARD-STATS").searches, 0);
    assert_eq!(client.search("harbor", 5).expect("SEARCH-MANY").len(), 1);
    assert_eq!(client.shard_stats().expect("SHARD-STATS").searches, 1);
    server.shutdown();
}
