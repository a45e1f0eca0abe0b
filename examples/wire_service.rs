//! Serving the annotator over TCP with per-client fair admission.
//!
//! ```text
//! cargo run --release --example wire_service
//! ```
//!
//! Starts an [`AnnotationService`] with a metered, drip-fed query pool,
//! puts the [`WireServer`] line protocol in front of it, and drives it
//! with two concurrent wire clients: a bulk ingester streaming tables
//! back to back, and an interactive client issuing occasional lookups.
//! Deficit-round-robin token buckets keep the interactive latency flat
//! while the bulk client consumes every token the interactive one
//! doesn't need — run it and compare the two latency columns.
//!
//! [`AnnotationService`]: teda::service::AnnotationService
//! [`WireServer`]: teda::wire::WireServer

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teda::classifier::svm::pegasos::PegasosConfig;
use teda::core::config::AnnotatorConfig;
use teda::core::pipeline::BatchAnnotator;
use teda::core::trainer::{harvest, train_svm_linear, TrainerConfig};
use teda::corpus::gft::poi_table;
use teda::corpus::typed_table_to_csv;
use teda::kb::{CategoryNetwork, EntityType, World, WorldSpec};
use teda::service::{AnnotationService, ServiceConfig};
use teda::simkit::rng_from_seed;
use teda::websim::{BingSim, WebCorpus, WebCorpusSpec};
use teda::wire::{WireClient, WireServer};

/// Raises its flag when dropped, on a return and on a panic alike.
struct RaiseOnDrop(Arc<AtomicBool>);

impl Drop for RaiseOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn main() {
    // Fixture: world + web + trained classifier (tiny scale).
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
    let batch = BatchAnnotator::new(engine, classifier, AnnotatorConfig::default());

    // A metered service: the pool starts dry and a refill thread drips
    // the "daily allowance" in. fair_quantum sizes one DRR grant.
    let service = Arc::new(AnnotationService::start(
        batch,
        ServiceConfig {
            workers: 2,
            query_pool: Some(0),
            fair_quantum: 20,
            ..ServiceConfig::default()
        },
    ));
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    println!("wire server listening on {addr}");

    let mut rng = rng_from_seed(7);
    let small = poi_table(&world, EntityType::Restaurant, 4, 0, "lookup", &mut rng).table;
    let big = poi_table(&world, EntityType::Museum, 25, 1, "bulk", &mut rng).table;
    let small_csv = typed_table_to_csv(&small);
    let big_csv = typed_table_to_csv(&big);

    // `stop` is raised when the interactive client is done, and
    // `bulk_returned` when the bulk thread is; each from a drop guard,
    // so a panic on either side raises it too. The drip runs until both
    // are up: the bulk client's last ANNOTATE may be parked on a dry
    // pool when `stop` is raised, and only the drip can let it finish.
    let stop = Arc::new(AtomicBool::new(false));
    let bulk_returned = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // The allowance drip.
        let refill = Arc::clone(&service);
        let (stop_refill, bulk_gone) = (Arc::clone(&stop), Arc::clone(&bulk_returned));
        s.spawn(move || {
            while !(stop_refill.load(Ordering::Relaxed) && bulk_gone.load(Ordering::Relaxed)) {
                refill.add_budget(80);
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        // Bulk ingester: back-to-back ANNOTATE on its own connection.
        let stop_bulk = Arc::clone(&stop);
        let returned = RaiseOnDrop(Arc::clone(&bulk_returned));
        let bulk = s.spawn(move || {
            let _returned = returned;
            let mut client = WireClient::connect(addr).expect("connect bulk");
            client.set_client("bulk").expect("CLIENT");
            let mut done = 0u64;
            let mut worst = Duration::ZERO;
            while !stop_bulk.load(Ordering::Relaxed) {
                let t = Instant::now();
                client.annotate("bulk", &big_csv).expect("bulk annotate");
                worst = worst.max(t.elapsed());
                done += 1;
            }
            (done, worst)
        });

        // Interactive client: one lookup every 10 ms.
        let interactive_done = RaiseOnDrop(Arc::clone(&stop));
        let mut client = WireClient::connect(addr).expect("connect interactive");
        client.set_client("interactive").expect("CLIENT");
        let mut worst = Duration::ZERO;
        for i in 0..30 {
            let t = Instant::now();
            client.annotate("lookup", &small_csv).expect("lookup");
            let took = t.elapsed();
            worst = worst.max(took);
            if i % 10 == 0 {
                println!(
                    "[interactive] lookup {i}: {:.1} ms",
                    took.as_secs_f64() * 1e3
                );
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        drop(interactive_done);
        let (bulk_done, bulk_worst) = bulk.join().expect("bulk thread");
        println!(
            "\nbulk:        {bulk_done} tables, worst {:.1} ms (token-metered, as intended)",
            bulk_worst.as_secs_f64() * 1e3
        );
        println!(
            "interactive: 30 lookups, worst {:.1} ms (fair share despite the bulk stream)",
            worst.as_secs_f64() * 1e3
        );

        println!("\nSTATS over the wire:");
        print!("{}", client.stats().expect("STATS"));
        println!("BUDGET over the wire: {}", client.budget().expect("BUDGET"));
    });
    server.shutdown();
}
