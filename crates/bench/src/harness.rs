//! The shared experiment fixture, the evaluation and sampling helpers,
//! and the suite: the registry of experiments, their claims, and the one
//! driver behind every `exp_*` binary and `run_all`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use teda_classifier::naive_bayes::NaiveBayesConfig;
use teda_classifier::svm::pegasos::PegasosConfig;
use teda_classifier::Prf;
use teda_core::annotate::CellAnnotation;
use teda_core::config::AnnotatorConfig;
use teda_core::evaluate::{count_type, TypeCounts};
use teda_core::model::SnippetClassifier;
use teda_core::pipeline::Annotator;
use teda_core::trainer::{harvest, train_bayes, train_svm_linear, TrainerConfig, TrainingCorpus};
use teda_corpus::datasets::{gft_benchmark, BenchmarkSet};
use teda_corpus::gold::GoldTable;
use teda_geo::SimGeocoder;
use teda_kb::{Catalogue, CategoryNetwork, EntityType, TypeCategory, World, WorldSpec};
use teda_simkit::stats::percentile_sorted;
use teda_simkit::{LatencyModel, VirtualClock};
use teda_tabular::CellId;
use teda_websim::{BingSim, PageId, WebCorpus, WebCorpusSpec};

use crate::exp::{
    ablation, cluster, comparison, coverage, efficiency, fig7, lint, mmap, obs, preprocess_stats,
    segments, service, store, stream, table1, table2, table3, throughput, wire,
};
use crate::report::{log, BenchJson};

/// The master seed of every experiment fixture.
const SEED: u64 = 42;

/// Everything an experiment needs, built once per process.
pub struct Fixture {
    pub seed: u64,
    pub world: World,
    pub net: CategoryNetwork,
    /// The shape the fixture's Web was built with — experiments that
    /// time a true cold start (`exp_store`) rebuild from this.
    pub web_spec: WebCorpusSpec,
    pub web: Arc<WebCorpus>,
    pub clock: VirtualClock,
    pub engine: Arc<BingSim>,
    pub geocoder: Arc<SimGeocoder>,
    pub catalogue: Catalogue,
    pub benchmark: BenchmarkSet,
    pub corpus: TrainingCorpus,
    pub svm: SnippetClassifier,
    pub bayes: SnippetClassifier,
}

/// Fixture scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full-size: the 40-table benchmark over a 1,680-entity world.
    Standard,
    /// Reduced: for integration tests and smoke runs.
    Quick,
}

impl Fixture {
    /// Builds the fixture at the given scale. Progress goes to stderr.
    pub fn build(scale: Scale, seed: u64) -> Self {
        let t0 = Instant::now();
        let (world_spec, web_spec, trainer_cfg) = match scale {
            Scale::Standard => (
                WorldSpec::default(),
                WebCorpusSpec::default(),
                TrainerConfig {
                    max_entities_per_type: Some(80),
                    seed,
                    ..TrainerConfig::default()
                },
            ),
            Scale::Quick => (
                WorldSpec::tiny(),
                WebCorpusSpec::tiny(),
                TrainerConfig {
                    max_entities_per_type: Some(12),
                    seed,
                    ..TrainerConfig::default()
                },
            ),
        };

        log("fixture", "generating world…");
        let world = World::generate(world_spec, seed);
        let net = CategoryNetwork::build(&world, seed);

        log("fixture", "building web corpus…");
        let web = Arc::new(WebCorpus::build(&world, web_spec, seed));
        let clock = VirtualClock::new();
        let engine = Arc::new(BingSim::new(
            web.clone(),
            clock.clone(),
            LatencyModel::bing_default(),
        ));
        let geocoder = Arc::new(SimGeocoder::new(
            world.gazetteer().clone(),
            clock.clone(),
            LatencyModel::geocoder_default(),
        ));

        let catalogue = Catalogue::sample(&world, 0.22, seed);
        let benchmark = gft_benchmark(&world, seed);

        log("fixture", "harvesting training corpus…");
        let targets = EntityType::TARGETS.to_vec();
        let corpus = harvest(&world, &net, engine.as_ref(), &targets, trainer_cfg);
        log(
            "fixture",
            &format!(
                "corpus: {} train / {} test snippets, vocab {}",
                corpus.train.len(),
                corpus.test.len(),
                corpus.extractor.dim()
            ),
        );

        log("fixture", "training classifiers…");
        let svm = train_svm_linear(&corpus, PegasosConfig::default());
        let bayes = train_bayes(&corpus, NaiveBayesConfig::snippet_default());
        clock.reset();
        log(
            "fixture",
            &format!("ready in {:.1}s (real)", t0.elapsed().as_secs_f64()),
        );

        Fixture {
            seed,
            world,
            net,
            web_spec,
            web,
            clock,
            engine,
            geocoder,
            catalogue,
            benchmark,
            corpus,
            svm,
            bayes,
        }
    }

    /// An annotator over the fixture's engine with the given classifier.
    pub fn annotator(&self, classifier: SnippetClassifier, config: AnnotatorConfig) -> Annotator {
        Annotator::new(self.engine.clone(), classifier, config).with_geocoder(self.geocoder.clone())
    }

    /// The paper's main configuration: SVM + post-processing.
    pub fn svm_annotator(&self, postproc: bool, disambig: bool) -> Annotator {
        self.annotator(
            self.svm.clone(),
            AnnotatorConfig {
                use_postprocessing: postproc,
                use_disambiguation: disambig,
                ..AnnotatorConfig::default()
            },
        )
    }

    /// The Bayes variant.
    pub fn bayes_annotator(&self, postproc: bool) -> Annotator {
        self.annotator(
            self.bayes.clone(),
            AnnotatorConfig {
                use_postprocessing: postproc,
                ..AnnotatorConfig::default()
            },
        )
    }
}

/// The gold standard of a table as `(cell, type)` pairs.
pub fn gold_pairs(table: &GoldTable) -> Vec<(CellId, EntityType)> {
    table.entries.iter().map(|e| (e.cell, e.etype)).collect()
}

/// One method's outputs over a table set, ready for evaluation.
pub struct RunOutput {
    /// Parallel to the table set: `(gold pairs, predicted annotations)`.
    pub per_table: Vec<teda_core::evaluate::TableResult>,
}

impl RunOutput {
    /// Aggregated PRF for one type.
    pub fn prf(&self, etype: EntityType) -> Prf {
        let mut totals = TypeCounts::default();
        for (gold, predicted) in &self.per_table {
            totals.add(count_type(gold, predicted, etype));
        }
        totals.prf()
    }

    /// Micro-averaged PRF over all target types (the single-F numbers the
    /// paper quotes for the §6.3 comparison).
    pub fn micro_prf(&self) -> Prf {
        let mut totals = TypeCounts::default();
        for etype in EntityType::TARGETS {
            for (gold, predicted) in &self.per_table {
                totals.add(count_type(gold, predicted, etype));
            }
        }
        totals.prf()
    }

    /// Per-type PRFs in the Table 1 order.
    pub fn per_type(&self) -> Vec<(EntityType, Prf)> {
        EntityType::TARGETS
            .iter()
            .map(|&t| (t, self.prf(t)))
            .collect()
    }

    /// Arithmetic mean of the PRFs of the types in one category — the
    /// paper's AVERAGE rows.
    pub fn category_average(&self, category: TypeCategory) -> Prf {
        let prfs: Vec<Prf> = EntityType::TARGETS
            .iter()
            .filter(|t| t.category() == category)
            .map(|&t| self.prf(t))
            .collect();
        Prf::mean(&prfs)
    }
}

/// Runs `annotate` over every table and pairs outputs with gold.
pub fn run_method<F>(tables: &[GoldTable], mut annotate: F) -> RunOutput
where
    F: FnMut(&GoldTable) -> Vec<CellAnnotation>,
{
    let per_table = tables
        .iter()
        .map(|t| (gold_pairs(t), annotate(t)))
        .collect();
    RunOutput { per_table }
}

/// The fastest of `reps` timed runs of `f`, with that run's output: the
/// minimum damps scheduler noise.
pub(crate) fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        let elapsed = t0.elapsed();
        if best.as_ref().is_none_or(|(d, _)| elapsed < *d) {
            best = Some((elapsed, out));
        }
    }
    best.expect("reps >= 1")
}

/// `pairs` interleaved samples of two measurements, `(a, b)` per pair in
/// pair order. Even pairs run `a` first and odd pairs `b` first, so
/// drift over the phase cancels instead of favouring one side.
pub(crate) fn paired(
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> Vec<(f64, f64)> {
    (0..pairs)
        .map(|pair| {
            if pair % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            }
        })
        .collect()
}

/// Median and quartiles of a sample (interpolated, by
/// `percentile_sorted`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    /// The spread of a non-empty sample, in any order.
    pub(crate) fn of(samples: impl IntoIterator<Item = f64>) -> Spread {
        let mut xs: Vec<f64> = samples.into_iter().collect();
        xs.sort_by(f64::total_cmp);
        Spread {
            median: percentile_sorted(&xs, 0.5),
            q1: percentile_sorted(&xs, 0.25),
            q3: percentile_sorted(&xs, 0.75),
        }
    }
}

/// Bit-pattern view of a result list (scores as raw bits: "identical"
/// means identical, not approximately equal).
pub(crate) fn bits(hits: &[(PageId, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

/// Every `(query, k)` of `queries` × `ks`: an identity-check probe set.
pub(crate) fn probes(queries: &[&str], ks: &[usize]) -> Vec<(String, usize)> {
    queries
        .iter()
        .flat_map(|q| ks.iter().map(|&k| (q.to_string(), k)))
        .collect()
}

/// What a claim reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An identity or a structural count: holds on any host, so the
    /// in-crate tests assert it.
    Exact,
    /// Reads the wall clock (or, for `exp_mmap`'s peak-RSS claims, the
    /// host's memory accounting): asserted only by the `exp_*` binaries.
    Timed,
}

/// One claim an experiment makes about its report.
#[derive(Debug, Clone)]
pub struct Claim {
    pub name: &'static str,
    pub kind: Kind,
    pub holds: bool,
    /// What failed, with the measured values.
    pub detail: String,
}

impl Claim {
    pub fn exact(name: &'static str, holds: bool, detail: impl Into<String>) -> Claim {
        Claim {
            name,
            kind: Kind::Exact,
            holds,
            detail: detail.into(),
        }
    }

    pub fn timed(name: &'static str, holds: bool, detail: impl Into<String>) -> Claim {
        Claim {
            kind: Kind::Timed,
            ..Claim::exact(name, holds, detail)
        }
    }
}

/// One `name: detail` line per failed claim.
pub(crate) fn failures<'a>(claims: impl IntoIterator<Item = &'a Claim>) -> Vec<String> {
    claims
        .into_iter()
        .filter(|c| !c.holds)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect()
}

/// The in-crate tests' assert: every exact claim holds, and a failure
/// names all the claims that failed.
#[cfg(test)]
pub(crate) fn assert_exact(claims: &[Claim]) {
    let failed = failures(claims.iter().filter(|c| c.kind == Kind::Exact));
    assert!(failed.is_empty(), "failed claims:\n{}", failed.join("\n"));
}

/// One experiment run, ready for the driver.
struct Outcome {
    rendered: String,
    json: Option<BenchJson>,
    claims: Vec<Claim>,
}

/// The outcome of `$m::run($args)`: its rendered report, plus — for a
/// `checked` systems experiment — its `BENCH_*.json` and its claims.
macro_rules! outcome {
    ($m:ident($($arg:expr),*)) => {
        Outcome {
            rendered: $m::render(&$m::run($($arg),*)),
            json: None,
            claims: Vec::new(),
        }
    };
    (checked $m:ident($($arg:expr),*)) => {
        outcome!(checked $m, $m::run($($arg),*))
    };
    (checked $m:ident, $report:expr) => {{
        let report = $report;
        Outcome {
            rendered: $m::render(&report),
            json: Some($m::to_json(&report)),
            claims: $m::claims(&report),
        }
    }};
}

/// What an experiment runs with: the scale, and the fixture, built on
/// first use so experiments that need none never pay for it.
struct Suite {
    scale: Scale,
    fixture: std::cell::OnceCell<Fixture>,
}

impl Suite {
    fn new(scale: Scale) -> Suite {
        Suite {
            scale,
            fixture: std::cell::OnceCell::new(),
        }
    }

    fn fixture(&self) -> &Fixture {
        self.fixture
            .get_or_init(|| Fixture::build(self.scale, SEED))
    }
}

/// One registered experiment: `exp_<name>` is its binary.
type Experiment = (&'static str, fn(&Suite) -> Outcome);

/// Every experiment, in `run_all` order.
const EXPERIMENTS: &[Experiment] = &[
    ("table2", |s| outcome!(table2(s.fixture()))),
    ("table1", |s| outcome!(table1(s.fixture()))),
    ("table3", |s| outcome!(table3(s.fixture()))),
    ("comparison", |s| outcome!(comparison(s.fixture()))),
    ("coverage", |s| outcome!(coverage(s.fixture()))),
    ("preprocess", |s| outcome!(preprocess_stats(s.fixture()))),
    ("efficiency", |s| outcome!(efficiency(s.fixture()))),
    ("throughput", |s| outcome!(checked throughput(s.fixture()))),
    ("service", |s| outcome!(checked service(s.fixture()))),
    ("stream", |s| outcome!(checked stream(s.fixture()))),
    ("wire", |s| outcome!(checked wire(s.fixture()))),
    ("store", |s| outcome!(checked store(s.fixture()))),
    ("segments", |s| outcome!(checked segments(s.fixture()))),
    ("mmap", |s| {
        let mut report = mmap::run(s.scale);
        report.rss = mmap::measure_rss(s.scale);
        outcome!(checked mmap, report)
    }),
    ("cluster", |s| outcome!(checked cluster(s.scale))),
    ("obs", |s| outcome!(checked obs(s.fixture(), s.scale))),
    ("fig7", |_| outcome!(fig7())),
    ("lint", |_| outcome!(checked lint())),
    ("ablation", |s| outcome!(ablation(s.fixture()))),
];

/// Reads the command line: answers an `exp_mmap` peak-RSS probe re-exec
/// (`--rss-probe <mapped|eager> <dir>`) and returns `None`, or returns
/// the scale (`--quick` selects [`Scale::Quick`]).
fn scale_from_args() -> Option<Scale> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--rss-probe") {
        let mode = args.get(i + 1).expect("--rss-probe needs a mode");
        let dir = args.get(i + 2).expect("--rss-probe needs a store dir");
        mmap::rss_probe(mode, std::path::Path::new(dir));
        return None;
    }
    Some(if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Standard
    })
}

/// Logs every failed claim and turns the list into the exit status.
fn verdict(component: &str, failed: &[String], total: usize) -> ExitCode {
    for line in failed {
        log(component, &format!("FAILED claim {line}"));
    }
    log(
        component,
        &format!("{} of {total} claims hold", total - failed.len()),
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `main` of the `exp_<name>` binary: run the experiment, print its
/// report, write its `BENCH_<name>.json` (if it has one), then check
/// every claim and exit non-zero after listing each one that failed.
pub fn main(name: &str) -> ExitCode {
    let Some(scale) = scale_from_args() else {
        return ExitCode::SUCCESS;
    };
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(registered, _)| *registered == name)
        .expect("every exp_* binary is registered");
    let outcome = run(&Suite::new(scale));
    println!("{}", outcome.rendered);
    if let Some(json) = &outcome.json {
        json.write_logged();
    }
    verdict(
        &format!("exp_{name}"),
        &failures(&outcome.claims),
        outcome.claims.len(),
    )
}

/// The `main` of `run_all`: every experiment in order over one shared
/// fixture, every claim checked, every failure listed at the end.
pub fn run_all() -> ExitCode {
    let Some(scale) = scale_from_args() else {
        return ExitCode::SUCCESS;
    };
    let suite = Suite::new(scale);
    println!("==============================================================");
    println!(" teda — full experiment suite (seed {SEED}, {scale:?} fixture)");
    println!("==============================================================\n");

    let mut failed = Vec::new();
    let mut total = 0;
    for (name, run) in EXPERIMENTS {
        let outcome = run(&suite);
        println!("{}", outcome.rendered);
        total += outcome.claims.len();
        failed.extend(
            failures(&outcome.claims)
                .into_iter()
                .map(|line| format!("exp_{name} {line}")),
        );
    }
    verdict("run_all", &failed, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fixture_builds_and_is_consistent() {
        let f = Fixture::build(Scale::Quick, 42);
        assert_eq!(f.benchmark.tables.len(), 40);
        assert!(!f.corpus.train.is_empty());
        assert_eq!(f.corpus.labels.types().len(), 12);
        // every target type has harvested stats
        assert_eq!(f.corpus.stats.len(), 12);
    }

    #[test]
    fn run_output_math() {
        use teda_corpus::gold::GoldEntry;
        use teda_kb::EntityId;
        use teda_tabular::Table;

        let table = Table::builder(1)
            .row(vec!["Melisse"])
            .unwrap()
            .build()
            .unwrap();
        let gt = GoldTable::new(
            table,
            vec![GoldEntry {
                cell: CellId::new(0, 0),
                etype: EntityType::Restaurant,
                entity: EntityId(0),
            }],
        );
        let out = run_method(std::slice::from_ref(&gt), |_| {
            vec![CellAnnotation {
                cell: CellId::new(0, 0),
                etype: EntityType::Restaurant,
                score: 1.0,
                votes: 10,
            }]
        });
        assert_eq!(out.prf(EntityType::Restaurant).f1, 1.0);
        assert_eq!(out.micro_prf().f1, 1.0);
        let avg = out.category_average(TypeCategory::Poi);
        // restaurants perfect, the other six POI types are 0/0/0 → mean
        assert!(avg.f1 > 0.0);
    }

    #[test]
    fn paired_sampler_alternates_and_its_spread_matches_percentile_sorted() {
        use std::cell::RefCell;

        let order = RefCell::new(String::new());
        let sample = |side: char| {
            let mut order = order.borrow_mut();
            order.push(side);
            order.len() as f64
        };
        let pairs = paired(4, || sample('a'), || sample('b'));
        assert_eq!(order.into_inner(), "abbaabba");
        // Each pair keeps its sides apart whichever ran first.
        assert_eq!(pairs, vec![(1.0, 2.0), (4.0, 3.0), (5.0, 6.0), (8.0, 7.0)]);

        for n in [5usize, 6] {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64 * 1.5).collect();
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let spread = Spread::of(xs);
            assert_eq!(spread.median, percentile_sorted(&sorted, 0.5));
            assert_eq!(spread.q1, percentile_sorted(&sorted, 0.25));
            assert_eq!(spread.q3, percentile_sorted(&sorted, 0.75));
        }
    }

    #[test]
    fn a_claim_list_reports_every_failure() {
        let claims = vec![
            Claim::exact("first_broken", false, "one"),
            Claim::timed("fine", true, "never shown"),
            Claim::timed("second_broken", false, "two"),
        ];
        assert_eq!(
            failures(&claims),
            vec!["first_broken: one", "second_broken: two"]
        );
        // Timed claims never fail an in-crate test.
        assert_exact(&[Claim::timed("slow_host", false, "")]);
    }

    #[test]
    fn the_registry_names_every_experiment_binary_once() {
        let manifest = include_str!("../Cargo.toml");
        let mut bins: Vec<&str> = manifest
            .split("[[bin]]")
            .skip(1)
            .map(|section| {
                section
                    .lines()
                    .find_map(|l| l.strip_prefix("name = \""))
                    .and_then(|l| l.strip_suffix('"'))
                    .expect("every [[bin]] has a name")
            })
            .collect();
        bins.sort_unstable();
        let mut registered: Vec<String> = EXPERIMENTS
            .iter()
            .map(|(name, _)| format!("exp_{name}"))
            .chain(["run_all".to_string()])
            .collect();
        registered.sort_unstable();
        assert_eq!(bins, registered);
    }
}
