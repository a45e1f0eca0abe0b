//! Set-up: the fixture (world, Web, classifier), the serving stack each
//! workload runs behind loopback TCP, and the seeded table streams.
//!
//! Built only from the libraries' public generators, so edits to the
//! repository's experiment binaries cannot move the benchmark.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::Rng;

use teda_classifier::svm::pegasos::PegasosConfig;
use teda_cluster::{partition_corpus, ClusterRouter, RouterConfig, ShardServer};
use teda_core::cache::CacheConfig;
use teda_core::config::AnnotatorConfig;
use teda_core::model::SnippetClassifier;
use teda_core::pipeline::BatchAnnotator;
use teda_core::trainer::{harvest, train_svm_linear, TrainerConfig};
use teda_corpus::gft::poi_table;
use teda_corpus::{table_from_csv, typed_table_to_csv};
use teda_geo::SimGeocoder;
use teda_kb::{CategoryNetwork, EntityType, TypeCategory, World, WorldSpec};
use teda_service::{AnnotationService, LiveCorpus, ServiceConfig, TierPolicy};
use teda_simkit::{derive_seed, rng_from_seed, LatencyModel, VirtualClock};
use teda_store::CorpusStore;
use teda_tabular::{CellId, Table};
use teda_websim::{BingSim, SearchBackend, WebCorpus, WebCorpusSpec};
use teda_wire::WireServer;

use crate::catalogue::{Workload, CLUSTER_SHARDS, FIXTURE_SEED, WORKERS};
use crate::trace::TimedBackend;

/// Fixture size. `Standard` is what the benchmark measures; `Quick`
/// shrinks every input so the package's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Standard,
    Quick,
}

impl Scale {
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "standard" => Some(Scale::Standard),
            "quick" => Some(Scale::Quick),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Standard => "standard",
            Scale::Quick => "quick",
        }
    }

    fn world_spec(self) -> WorldSpec {
        match self {
            Scale::Standard => WorldSpec::default(),
            Scale::Quick => WorldSpec::tiny(),
        }
    }

    /// The Web a workload serves. `serve_large` appends noise pages to
    /// the same world's Web: ≥100× the Standard page count.
    fn web_spec(self, workload: Workload) -> WebCorpusSpec {
        let base = match self {
            Scale::Standard => WebCorpusSpec::default(),
            Scale::Quick => WebCorpusSpec::tiny(),
        };
        let noise = match (workload, self) {
            (Workload::ServeLarge, Scale::Standard) => 1_430_000,
            (Workload::ServeLarge, Scale::Quick) => 20_000,
            _ => base.noise_pages,
        };
        WebCorpusSpec {
            noise_pages: noise,
            ..base
        }
    }

    fn max_entities_per_type(self) -> usize {
        match self {
            Scale::Standard => 80,
            Scale::Quick => 12,
        }
    }

    /// Distinct tables the request stream draws from. On the bounded-cache
    /// workloads the pool issues far more distinct queries than the cache
    /// holds; on `serve_warm` all of it is cached before timing.
    pub fn pool_size(self, workload: Workload) -> usize {
        match (self, workload) {
            (Scale::Standard, Workload::ServeWarm) => 600,
            (Scale::Standard, _) => 256,
            (Scale::Quick, _) => 24,
        }
    }

    /// Tables in the fixed quality set `f1_micro` is scored on.
    pub fn quality_tables(self) -> usize {
        match self {
            Scale::Standard => 200,
            Scale::Quick => 12,
        }
    }

    /// Stream prefix the traced run replays stage by stage.
    pub fn replay_tables(self) -> usize {
        self.quality_tables()
    }

    pub fn rows(self) -> usize {
        match self {
            Scale::Standard => 25,
            Scale::Quick => 8,
        }
    }
}

/// Wall time of each set-up step, in seconds. Steps a workload does not
/// run stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    pub world: f64,
    pub web: f64,
    pub harvest: f64,
    pub train: f64,
    pub snapshot: f64,
    pub partition: f64,
    pub open: f64,
    /// From the first step until the wire server accepts connections.
    pub total: f64,
}

/// What every workload shares: the world, the heap corpus whose results
/// the served ones must equal, and the trained classifier.
pub struct Fixture {
    pub world: World,
    pub web: Arc<WebCorpus>,
    pub classifier: SnippetClassifier,
    pub geocoder: Arc<SimGeocoder>,
    pub config: AnnotatorConfig,
}

impl Fixture {
    /// A batch annotator over `backend` with the fixture's classifier,
    /// geocoder and configuration, and an unbounded query cache.
    pub fn annotator(&self, backend: Arc<dyn SearchBackend>) -> BatchAnnotator {
        BatchAnnotator::new(
            Arc::new(BingSim::instant(backend)),
            self.classifier.clone(),
            self.config.clone(),
        )
        .with_geocoder(Arc::clone(&self.geocoder))
    }
}

/// One workload's running serving stack. Fields drop in declaration
/// order: the wire front-end first, then the service and its workers,
/// then the search tier behind it.
pub struct Stack {
    pub server: WireServer,
    pub service: Arc<AnnotationService>,
    pub router: Option<Arc<ClusterRouter>>,
    pub shards: Vec<ShardServer>,
    /// The backend the service searches, without the timing decorator.
    pub backend: Arc<dyn SearchBackend>,
    /// The timing decorator between the engine and `backend` (traced
    /// runs only).
    pub timed: Option<Arc<TimedBackend>>,
    pub fixture: Fixture,
    pub times: SetupTimes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Stack {
    /// Builds the stack from nothing: world, Web, training corpus,
    /// classifier, the workload's search tier, service and wire server.
    /// `work` is wiped first and holds any on-disk corpus images.
    pub fn build(
        workload: Workload,
        scale: Scale,
        work: &Path,
        traced: bool,
    ) -> Result<Stack, String> {
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work).map_err(io_err("create work dir"))?;
        let mut times = SetupTimes::default();
        let start = Instant::now();

        let t = Instant::now();
        let world = World::generate(scale.world_spec(), FIXTURE_SEED);
        let net = CategoryNetwork::build(&world, FIXTURE_SEED);
        times.world = secs(t);

        let t = Instant::now();
        let web = Arc::new(WebCorpus::build(
            &world,
            scale.web_spec(workload),
            FIXTURE_SEED,
        ));
        times.web = secs(t);

        let t = Instant::now();
        let training = harvest(
            &world,
            &net,
            &BingSim::instant(web.clone()),
            &EntityType::TARGETS,
            TrainerConfig {
                max_entities_per_type: Some(scale.max_entities_per_type()),
                seed: FIXTURE_SEED,
                ..TrainerConfig::default()
            },
        );
        times.harvest = secs(t);

        let t = Instant::now();
        let classifier = train_svm_linear(&training, PegasosConfig::default());
        times.train = secs(t);

        let geocoder = Arc::new(SimGeocoder::new(
            world.gazetteer().clone(),
            VirtualClock::new(),
            LatencyModel::zero(),
        ));
        let fixture = Fixture {
            world,
            web,
            classifier,
            geocoder,
            config: AnnotatorConfig {
                use_disambiguation: workload.disambiguation(),
                ..AnnotatorConfig::default()
            },
        };

        let mut router = None;
        let mut shards = Vec::new();
        let mut live = None;
        let backend: Arc<dyn SearchBackend> = match workload {
            Workload::ServeWarm | Workload::ServeLarge => fixture.web.clone(),
            Workload::ServeCluster => {
                let t = Instant::now();
                let dirs = partition_corpus(&fixture.web, CLUSTER_SHARDS, work)
                    .map_err(|e| format!("partition: {e}"))?;
                times.partition = secs(t);
                let t = Instant::now();
                for dir in &dirs {
                    shards.push(
                        ShardServer::start(dir, true, "127.0.0.1:0")
                            .map_err(|e| format!("shard server: {e}"))?,
                    );
                }
                let topology: Vec<_> = shards.iter().map(|s| vec![s.local_addr()]).collect();
                let connected = Arc::new(
                    ClusterRouter::connect(&topology, RouterConfig::default())
                        .map_err(|e| format!("router: {e}"))?,
                );
                times.open = secs(t);
                router = Some(Arc::clone(&connected));
                connected
            }
            Workload::IngestLive => {
                let t = Instant::now();
                CorpusStore::open(work)
                    .and_then(|store| store.save(&fixture.web))
                    .map_err(|e| format!("snapshot: {e}"))?;
                times.snapshot = secs(t);
                let t = Instant::now();
                let opened = Arc::new(
                    LiveCorpus::open_mapped(work, TierPolicy::default())
                        .map_err(|e| format!("open live corpus: {e}"))?,
                );
                times.open = secs(t);
                let backend = opened.backend();
                live = Some(opened);
                backend
            }
        };

        let timed = traced.then(|| Arc::new(TimedBackend::new(Arc::clone(&backend))));
        let engine_backend: Arc<dyn SearchBackend> = match &timed {
            Some(timed) => timed.clone(),
            None => Arc::clone(&backend),
        };
        let config = ServiceConfig {
            workers: WORKERS,
            cache: Some(CacheConfig {
                capacity: workload.cache_capacity(),
                ..CacheConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let annotator = fixture.annotator(engine_backend);
        let service = Arc::new(match live {
            Some(live) => AnnotationService::start_live(annotator, config, live),
            None => AnnotationService::start(annotator, config),
        });
        if let Some(router) = &router {
            service.attach_cluster_telemetry(router.telemetry());
        }
        let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0")
            .map_err(io_err("bind wire server"))?;
        times.total = secs(start);

        Ok(Stack {
            server,
            service,
            router,
            shards,
            backend,
            timed,
            fixture,
            times,
        })
    }
}

/// A scratch directory inside the benchmark package, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(name: &str) -> WorkDir {
        WorkDir(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("work")
                .join(format!("{name}-{}", std::process::id())),
        )
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One table as the wire `ANNOTATE` verb carries it, with its parsed
/// form (for in-process submission and the offline reference) and gold.
pub struct Request {
    pub name: String,
    pub csv: String,
    /// Bytes of the `ANNOTATE` frame on the wire.
    pub frame_bytes: u64,
    pub table: Arc<Table>,
    pub gold: Vec<(CellId, EntityType)>,
}

/// `n` seeded 25-row POI tables: the 7 POI target types, schema variants
/// 0–2, and every third table sent without its `#types` row so the
/// service infers its column types.
pub fn make_requests(
    world: &World,
    seed: u64,
    label: &str,
    n: usize,
    rows: usize,
) -> Result<Vec<Request>, String> {
    let poi: Vec<EntityType> = EntityType::TARGETS
        .into_iter()
        .filter(|t| t.category() == TypeCategory::Poi)
        .collect();
    let mut rng = rng_from_seed(derive_seed(seed, label));
    (0..n)
        .map(|i| {
            let etype = poi[rng.gen_range(0..poi.len())];
            let variant = rng.gen_range(0..3u8);
            let name = format!("{label}-{i}");
            let gold = poi_table(world, etype, rows, variant, &name, &mut rng);
            let csv = if i % 3 == 2 {
                teda_tabular::csv::write_table(&gold.table)
            } else {
                typed_table_to_csv(&gold.table)
            };
            let table = table_from_csv(&csv, &name).map_err(|e| e.message().to_owned())?;
            let frame_bytes = teda_wire::Request::Annotate {
                name: name.clone(),
                csv: csv.clone(),
            }
            .encode()
            .len() as u64;
            Ok(Request {
                name,
                csv,
                frame_bytes,
                table: Arc::new(table),
                gold: gold.entries.iter().map(|e| (e.cell, e.etype)).collect(),
            })
        })
        .collect()
}

/// The request stream: position `pos` of seed `seed` picks a pool index,
/// uniformly (SplitMix64 of the pair), so any number of clients can share
/// one stream through an atomic cursor.
pub fn stream_pick(seed: u64, pos: u64, len: usize) -> usize {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(pos.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % len as u64) as usize
}
