//! Annotation-as-a-service: sustained requests/sec under open-loop load,
//! tail latency, and admission control.
//!
//! Two phases over the same duplicate-heavy corpus the throughput
//! experiment uses:
//!
//! * **sustained** — a wide queue and a full worker pool: every table is
//!   submitted up front (open loop — submitters never wait for
//!   completions), the service drains the queue, and the report is
//!   requests/sec, p50/p99 submit-to-completion latency and the cache
//!   hit rate of the shared bounded query cache. Completed outputs are
//!   checked bit-identical against the offline batch path on every run.
//! * **pressure** — a depth-2 queue in front of a single worker, plus a
//!   deliberately small query pool: the same burst now exceeds both
//!   bounds, and admission control must shed rather than queue without
//!   limit. The report counts queue sheds and budget sheds separately.

use std::sync::Arc;
use std::time::Instant;

use teda_core::cache::CacheConfig;
use teda_core::pipeline::TableAnnotations;
use teda_service::{AnnotationService, Rejection, RequestHandle, ServiceConfig, ServiceStats};
use teda_simkit::tablefmt::{Align, TextTable};
use teda_tabular::Table;

use crate::exp::throughput::build_corpus;
use crate::harness::{Claim, Fixture};

/// The service experiment report.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Tables offered in the sustained phase.
    pub offered: usize,
    /// Worker threads of the sustained phase.
    pub workers: usize,
    /// Wall-clock seconds to drain the sustained phase.
    pub wall_secs: f64,
    /// Completed requests per second (sustained phase).
    pub req_per_sec: f64,
    /// Final counters of the sustained phase.
    pub sustained: ServiceStats,
    /// Whether every service result was bit-identical to the offline
    /// batch annotation of the same table.
    pub deterministic: bool,
    /// Final counters of the pressure phase (tiny queue + small pool).
    pub pressure: ServiceStats,
}

/// Runs both phases.
pub fn run(fixture: &Fixture) -> ServiceReport {
    let tables: Vec<Arc<Table>> = build_corpus(fixture).into_iter().map(Arc::new).collect();

    // Offline reference for the determinism check.
    let reference: Vec<TableAnnotations> = {
        let batch = fixture.svm_annotator(true, false).into_batch();
        tables.iter().map(|t| batch.annotate_table(t)).collect()
    };

    // Phase 1: sustained open-loop load through a bounded cache.
    let service = AnnotationService::start(
        fixture.svm_annotator(true, false).into_batch(),
        ServiceConfig {
            workers: 0, // all cores
            queue_depth: tables.len().max(4) * 2,
            cache: Some(CacheConfig {
                capacity: Some(4096),
                ..CacheConfig::default()
            }),
            ..ServiceConfig::default()
        },
    );
    let workers = service.config().workers;
    let t0 = Instant::now();
    let handles: Vec<(usize, RequestHandle)> = tables
        .iter()
        .enumerate()
        .filter_map(|(i, t)| service.submit(Arc::clone(t)).ok().map(|h| (i, h)))
        .collect();
    let mut deterministic = true;
    let mut completed = 0u64;
    for (i, handle) in handles {
        if let Ok(outcome) = handle.wait() {
            completed += 1;
            deterministic &= outcome.annotations == reference[i];
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let sustained = service.shutdown();

    // Phase 2: the same burst against deliberately tight bounds.
    let pressure_service = AnnotationService::start(
        fixture.svm_annotator(true, false).into_batch(),
        ServiceConfig {
            workers: 1,
            queue_depth: 2,
            query_pool: Some(
                // Enough for a handful of tables, not the whole burst.
                tables
                    .iter()
                    .take(4)
                    .map(|t| (t.n_rows() * t.n_cols()) as u64)
                    .sum(),
            ),
            ..ServiceConfig::default()
        },
    );
    let mut pressure_handles = Vec::new();
    for table in &tables {
        match pressure_service.submit(Arc::clone(table)) {
            Ok(h) => pressure_handles.push(h),
            Err(Rejection::QueueFull | Rejection::BudgetExhausted) => {}
            Err(other) => panic!("unexpected rejection under pressure: {other}"),
        }
    }
    for h in pressure_handles {
        let _ = h.wait();
    }
    let pressure = pressure_service.shutdown();

    ServiceReport {
        offered: tables.len(),
        workers,
        wall_secs,
        req_per_sec: if wall_secs == 0.0 {
            0.0
        } else {
            completed as f64 / wall_secs
        },
        sustained,
        deterministic,
        pressure,
    }
}

/// Renders the report.
pub fn render(r: &ServiceReport) -> String {
    let mut out =
        String::from("Annotation service: request scheduling, bounded cache, admission control.\n");
    let mut tbl = TextTable::new(vec!["Metric", "Value"]);
    tbl.align(1, Align::Right);
    tbl.row(vec!["tables offered".into(), r.offered.to_string()]);
    tbl.row(vec!["worker threads".into(), r.workers.to_string()]);
    tbl.row(vec![
        "sustained throughput".into(),
        format!("{:.1} req/s ({:.3} s wall)", r.req_per_sec, r.wall_secs),
    ]);
    tbl.row(vec![
        "latency p50 / p99".into(),
        format!(
            "{:.1} ms / {:.1} ms",
            r.sustained.latency.p50.as_secs_f64() * 1e3,
            r.sustained.latency.p99.as_secs_f64() * 1e3
        ),
    ]);
    tbl.row(vec![
        "cache hit rate".into(),
        format!("{:.0}%", r.sustained.cache_hit_rate() * 100.0),
    ]);
    tbl.row(vec![
        "sustained shed rate".into(),
        format!("{:.0}%", r.sustained.shed_rate() * 100.0),
    ]);
    tbl.row(vec![
        "service == offline batch".into(),
        r.deterministic.to_string(),
    ]);
    tbl.row(vec![
        "pressure: queue sheds".into(),
        r.pressure.shed_queue.to_string(),
    ]);
    tbl.row(vec![
        "pressure: budget sheds".into(),
        r.pressure.shed_budget.to_string(),
    ]);
    tbl.row(vec![
        "pressure: shed rate".into(),
        format!("{:.0}%", r.pressure.shed_rate() * 100.0),
    ]);
    out.push_str(&tbl.render());
    out.push_str(
        "(sustained phase: wide queue, all cores, bounded cache — every \
         completed result is checked against the offline batch path; \
         pressure phase: depth-2 queue, one worker, small query pool — \
         admission control must shed, not queue without bound)\n",
    );
    out
}

/// The machine-readable record (satellite of the human table).
pub fn to_json(r: &ServiceReport) -> crate::report::BenchJson {
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let mut json = crate::report::BenchJson::new("service");
    json.metric("offered", r.offered as f64, "tables")
        .metric("workers", r.workers as f64, "threads")
        .metric("wall_secs", r.wall_secs, "s")
        .metric("req_per_sec", r.req_per_sec, "req/s")
        .metric(
            "latency_p50",
            r.sustained.latency.p50.as_secs_f64() * 1e3,
            "ms",
        )
        .metric(
            "latency_p99",
            r.sustained.latency.p99.as_secs_f64() * 1e3,
            "ms",
        )
        .metric("cache_hit_rate", r.sustained.cache_hit_rate(), "ratio")
        .metric("sustained_shed_rate", r.sustained.shed_rate(), "ratio")
        .metric("deterministic", flag(r.deterministic), "bool")
        .metric("pressure_shed_queue", r.pressure.shed_queue as f64, "req")
        .metric("pressure_shed_budget", r.pressure.shed_budget as f64, "req")
        .metric("pressure_shed_rate", r.pressure.shed_rate(), "ratio");
    json
}

/// The service claims.
pub fn claims(r: &ServiceReport) -> Vec<Claim> {
    vec![
        Claim::exact(
            "sustained completed > 0",
            r.sustained.completed > 0,
            "sustained phase completed nothing",
        ),
        Claim::exact(
            "deterministic",
            r.deterministic,
            "service results diverged from the offline batch path",
        ),
        Claim::exact(
            "sustained shed == 0",
            r.sustained.shed() == 0,
            format!(
                "a wide queue must not shed the sustained burst, shed {}",
                r.sustained.shed()
            ),
        ),
        Claim::exact(
            "sustained cache_hit_rate > 0",
            r.sustained.cache_hit_rate() > 0.0,
            "duplicate-heavy corpus must hit the cache",
        ),
        Claim::exact(
            "pressure shed > 0",
            r.pressure.shed() > 0,
            format!(
                "admission control failed to shed under pressure: {:?}",
                r.pressure
            ),
        ),
        Claim::timed(
            "req_per_sec > 0",
            r.req_per_sec > 0.0,
            "the sustained phase measured no throughput",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{assert_exact, Scale};

    #[test]
    fn service_experiment_completes_sheds_and_stays_deterministic() {
        let fixture = Fixture::build(Scale::Quick, 42);
        let r = run(&fixture);
        assert_exact(&claims(&r));
        assert!(render(&r).contains("req/s"));
        assert!(to_json(&r).render().contains("\"req_per_sec\""));
    }
}
