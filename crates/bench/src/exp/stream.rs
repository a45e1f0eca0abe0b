//! Streaming annotation: tables/sec and peak resident tables at several
//! in-flight windows, plus the service's backpressure front-end.
//!
//! The corpus is **generated lazily** ([`GeneratedPoiSource`]): table
//! `i` is materialized only when the driver pulls it, so the experiment
//! can observe the claim the streaming API exists to make — resident
//! tables track `max_in_flight`, not corpus size. Two phases:
//!
//! * **window sweep** — the same lazy stream through
//!   `BatchAnnotator::annotate_stream` at several `max_in_flight`
//!   values. Per window: wall seconds, tables/sec, the independently
//!   metered peak of live tables (produced − consumed, measured outside
//!   the driver), and bit-identity against a sequential
//!   `annotate_stream` pass (window 1) over the materialized corpus.
//!   Peak ≤ window is asserted on every run.
//! * **service streaming** — the same stream through
//!   `AnnotationService::submit_stream` against a deliberately tiny
//!   queue: admission must *pause the source* (backpressure waits > 0)
//!   and complete every table (shed == 0), still bit-identical.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use teda_core::pipeline::TableAnnotations;
use teda_core::stream::{
    AnnotatedTable, AnnotationSink, Collect, SliceSource, SourceError, TableSource,
};
use teda_corpus::GeneratedPoiSource;
use teda_kb::EntityType;
use teda_service::{AnnotationService, ClientId, ServiceConfig, ServiceStats};
use teda_simkit::tablefmt::{Align, TextTable};
use teda_tabular::Table;

use crate::harness::{Claim, Fixture};

/// Stream length and shape: long enough that O(corpus) and O(window)
/// are visibly different regimes, duplicate-heavy like the throughput
/// corpus so the cache works.
const N_TABLES: usize = 24;
const ROWS_PER_TABLE: usize = 25;

/// The types the generated stream cycles through.
const STREAM_TYPES: [EntityType; 3] = [
    EntityType::Restaurant,
    EntityType::Museum,
    EntityType::Hotel,
];

/// One row of the window sweep.
#[derive(Debug, Clone, Copy)]
pub struct WindowRun {
    /// The `max_in_flight` bound handed to the driver.
    pub window: usize,
    /// Wall-clock seconds to drain the stream.
    pub wall_secs: f64,
    /// Tables per second.
    pub tables_per_sec: f64,
    /// Peak live tables (produced − consumed), metered outside the
    /// driver. The memory bound: must be ≤ `window`.
    pub peak_live: usize,
    /// The driver's own high-water mark (must agree with `peak_live`).
    pub peak_reported: usize,
    /// Whether the streamed output was bit-identical to the sequential
    /// reference pass over the materialized corpus.
    pub identical: bool,
}

/// The streaming experiment report.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Stream length.
    pub tables: usize,
    /// Worker threads available to the window driver.
    pub threads: usize,
    /// The sweep, one row per `max_in_flight`.
    pub runs: Vec<WindowRun>,
    /// Service phase: every table annotated (nothing shed)?
    pub service_identical: bool,
    /// Final service counters (stream_tables, backpressure_waits, sheds).
    pub service: ServiceStats,
}

/// Tracks tables currently alive between source and sink.
struct LiveGauge {
    produced: Cell<usize>,
    consumed: Cell<usize>,
    peak: Cell<usize>,
}

impl LiveGauge {
    fn new() -> Rc<Self> {
        Rc::new(LiveGauge {
            produced: Cell::new(0),
            consumed: Cell::new(0),
            peak: Cell::new(0),
        })
    }

    fn on_produce(&self) {
        self.produced.set(self.produced.get() + 1);
        let live = self.produced.get() - self.consumed.get();
        self.peak.set(self.peak.get().max(live));
    }

    fn on_consume(&self) {
        self.consumed.set(self.consumed.get() + 1);
    }
}

/// A lazy generated stream that reports into a [`LiveGauge`].
struct MeteredSource<'w> {
    inner: GeneratedPoiSource<'w>,
    gauge: Rc<LiveGauge>,
}

impl TableSource for MeteredSource<'_> {
    type Item = Table;

    fn next_table(&mut self) -> Option<Result<Table, SourceError>> {
        let next = self.inner.next_table();
        if next.is_some() {
            self.gauge.on_produce();
        }
        next
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// A collecting sink that reports consumption into the same gauge.
struct MeteredSink {
    inner: Collect,
    gauge: Rc<LiveGauge>,
}

impl<T> AnnotationSink<T> for MeteredSink {
    fn on_annotated(&mut self, result: AnnotatedTable<T>) {
        self.gauge.on_consume();
        self.inner.on_annotated(AnnotatedTable {
            index: result.index,
            table: (),
            annotations: result.annotations,
        });
    }

    fn on_error(&mut self, index: usize, error: SourceError) {
        self.gauge.on_consume();
        AnnotationSink::<()>::on_error(&mut self.inner, index, error);
    }
}

fn stream_of(fixture: &Fixture) -> GeneratedPoiSource<'_> {
    GeneratedPoiSource::new(
        &fixture.world,
        STREAM_TYPES.to_vec(),
        ROWS_PER_TABLE,
        N_TABLES,
        fixture.seed ^ 0x57ae,
    )
}

/// Runs the sweep and the service phase.
pub fn run(fixture: &Fixture) -> StreamReport {
    // Reference: materialize the same (deterministic) stream and run
    // the classic batch path.
    let corpus: Vec<Table> = {
        let mut source = stream_of(fixture);
        std::iter::from_fn(|| source.next_table())
            .map(|t| t.expect("generated streams are infallible"))
            .collect()
    };
    let reference: Vec<TableAnnotations> = {
        // The definitional reference: annotate_stream at window 1 (the
        // sequential pass every other window must match bit for bit).
        let batch = fixture.svm_annotator(true, false).into_batch();
        let mut sink = Collect::new();
        batch.annotate_stream(SliceSource::new(&corpus), &mut sink, 1);
        sink.into_annotations()
            .expect("slice sources never yield errors")
    };

    let threads = rayon::current_num_threads();
    let mut windows = vec![1, 2, 4, teda_core::stream::default_max_in_flight()];
    windows.dedup();

    let runs: Vec<WindowRun> = windows
        .into_iter()
        .map(|window| {
            let batch = fixture.svm_annotator(true, false).into_batch();
            let gauge = LiveGauge::new();
            let source = MeteredSource {
                inner: stream_of(fixture),
                gauge: Rc::clone(&gauge),
            };
            let mut sink = MeteredSink {
                inner: Collect::new(),
                gauge: Rc::clone(&gauge),
            };
            let t0 = Instant::now();
            let summary = batch.annotate_stream(source, &mut sink, window);
            let wall_secs = t0.elapsed().as_secs_f64();
            let out = sink
                .inner
                .into_annotations()
                .expect("generated streams are infallible");
            let peak_live = gauge.peak.get();
            assert!(
                peak_live <= window,
                "window {window} held {peak_live} tables live"
            );
            assert_eq!(
                summary.peak_in_flight, peak_live,
                "driver-reported peak diverged from the external meter"
            );
            WindowRun {
                window,
                wall_secs,
                tables_per_sec: if wall_secs == 0.0 {
                    0.0
                } else {
                    out.len() as f64 / wall_secs
                },
                peak_live,
                peak_reported: summary.peak_in_flight,
                identical: out == reference,
            }
        })
        .collect();

    // Service phase: tiny queue, the stream must be paused, not shed.
    let service = AnnotationService::start(
        fixture.svm_annotator(true, false).into_batch(),
        ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..ServiceConfig::default()
        },
    );
    let mut sink = Collect::new();
    let summary = service.submit_stream(&ClientId::ANONYMOUS, stream_of(fixture), &mut sink, 4);
    let service_out = sink
        .into_annotations()
        .expect("nothing may be shed from a stream");
    let service_identical = summary.annotated == N_TABLES && service_out == reference;
    let service_stats = service.shutdown();

    StreamReport {
        tables: N_TABLES,
        threads,
        runs,
        service_identical,
        service: service_stats,
    }
}

/// Renders the report.
pub fn render(r: &StreamReport) -> String {
    let mut out = String::from(
        "Streaming annotation: lazy source → bounded window → sink, vs the batch path.\n",
    );
    let mut tbl = TextTable::new(vec![
        "max_in_flight",
        "wall (s)",
        "tables/s",
        "peak live",
        "== batch",
    ]);
    for col in 1..5 {
        tbl.align(col, Align::Right);
    }
    for run in &r.runs {
        tbl.row(vec![
            run.window.to_string(),
            format!("{:.3}", run.wall_secs),
            format!("{:.1}", run.tables_per_sec),
            format!("{} / {}", run.peak_live, run.window),
            run.identical.to_string(),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "({} tables, {} worker threads; peak live is produced − consumed, \
         metered outside the driver — the O(window) memory bound)\n",
        r.tables, r.threads
    ));
    let mut svc = TextTable::new(vec!["Service streaming", "Value"]);
    svc.align(1, Align::Right);
    svc.row(vec![
        "tables admitted".into(),
        r.service.counter("stream_tables").to_string(),
    ]);
    svc.row(vec![
        "backpressure waits".into(),
        r.service.counter("backpressure_waits").to_string(),
    ]);
    svc.row(vec!["tables shed".into(), r.service.shed().to_string()]);
    svc.row(vec![
        "stream == offline batch".into(),
        r.service_identical.to_string(),
    ]);
    out.push_str(&svc.render());
    out.push_str(
        "(depth-1 queue, one worker: the stream must pause the source — \
         backpressure — and drop nothing)\n",
    );
    out
}

/// The machine-readable record (satellite of the human table): one
/// metric triplet per window row, keyed by the `max_in_flight` bound.
pub fn to_json(r: &StreamReport) -> crate::report::BenchJson {
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let mut json = crate::report::BenchJson::new("stream");
    json.metric("tables", r.tables as f64, "tables")
        .metric("threads", r.threads as f64, "threads");
    for run in &r.runs {
        json.metric(
            &format!("w{}_tables_per_sec", run.window),
            run.tables_per_sec,
            "tables/s",
        )
        .metric(
            &format!("w{}_peak_live", run.window),
            run.peak_live as f64,
            "tables",
        )
        .metric(
            &format!("w{}_identical", run.window),
            flag(run.identical),
            "bool",
        );
    }
    json.metric(
        "service_stream_tables",
        r.service.counter("stream_tables") as f64,
        "tables",
    )
    .metric(
        "service_backpressure_waits",
        r.service.counter("backpressure_waits") as f64,
        "waits",
    )
    .metric("service_shed", r.service.shed() as f64, "tables")
    .metric("service_identical", flag(r.service_identical), "bool");
    json
}

/// The streaming claims; each window claim covers every row of the
/// sweep and names the windows that broke it.
pub fn claims(r: &StreamReport) -> Vec<Claim> {
    let windows = |broken: fn(&WindowRun) -> bool| -> Vec<usize> {
        r.runs
            .iter()
            .filter(|w| broken(w))
            .map(|w| w.window)
            .collect()
    };
    let diverged = windows(|w| !w.identical);
    let over_bound = windows(|w| w.peak_live > w.window);
    let misreported = windows(|w| w.peak_live != w.peak_reported);
    vec![
        Claim::exact("window sweep ran", !r.runs.is_empty(), "no window was run"),
        Claim::exact(
            "every window identical",
            diverged.is_empty(),
            format!("streaming diverged from the batch path at max_in_flight {diverged:?}"),
        ),
        Claim::exact(
            "peak_live <= window",
            over_bound.is_empty(),
            format!("max_in_flight {over_bound:?} held more tables live than the window"),
        ),
        Claim::exact(
            "peak_live == peak_reported",
            misreported.is_empty(),
            format!("the driver misreported its high-water mark at max_in_flight {misreported:?}"),
        ),
        Claim::exact(
            "service_identical",
            r.service_identical,
            "service streaming diverged from the offline batch path",
        ),
        Claim::exact(
            "service shed == 0",
            r.service.shed() == 0,
            "streaming admission shed tables instead of applying backpressure",
        ),
        Claim::exact(
            "service stream_tables == tables",
            r.service.counter("stream_tables") == r.tables as u64,
            format!(
                "the service admitted {} of {} streamed tables",
                r.service.counter("stream_tables"),
                r.tables
            ),
        ),
        Claim::exact(
            "backpressure_waits > 0",
            r.service.counter("backpressure_waits") > 0,
            format!(
                "a depth-1 queue under a {}-table stream must stall the source",
                r.tables
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{assert_exact, Scale};

    #[test]
    fn stream_experiment_is_identical_bounded_and_backpressured() {
        let fixture = Fixture::build(Scale::Quick, 42);
        let r = run(&fixture);
        assert_exact(&claims(&r));
        assert!(render(&r).contains("backpressure"));
        assert!(to_json(&r)
            .render()
            .contains("\"service_backpressure_waits\""));
    }
}
