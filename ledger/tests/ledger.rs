//! End-to-end checks of the benchmark itself, at Quick scale.

use std::process::Command;

use teda_core::cache::CacheConfig;
use teda_ledger::catalogue::{Workload, END_TO_END, PER_LAYER};
use teda_ledger::fixture::{make_requests, Scale, Stack, WorkDir};
use teda_ledger::json::Json;
use teda_ledger::run::MAX_RESIDUAL_SHARE;
use teda_ledger::trace::{Ledger, Replayer};

#[test]
fn benchmark_json_restates_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .expect(key)
            .as_array()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    };
    let want = |defs: &[teda_ledger::catalogue::MetricDef]| -> Vec<_> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    d.bound,
                )
            })
            .collect()
    };
    assert_eq!(names("end_to_end"), want(END_TO_END));
    assert_eq!(names("per_layer"), want(PER_LAYER));
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .expect("workloads")
        .as_array()
        .iter()
        .map(|w| {
            let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("why"))
        })
        .collect();
    let expected: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, expected);
}

/// The stage-by-stage replay reproduces `BatchAnnotator::annotate_table`
/// bit for bit, over the heap corpus and over the cluster router, and its
/// stopwatches account for all but a small residual of its wall time.
#[test]
fn replay_matches_the_batch_annotator_and_the_ledger_adds_up() {
    for workload in [Workload::ServeWarm, Workload::ServeCluster] {
        let work = WorkDir::new(&format!("test-replay-{}", workload.name()));
        let stack = Stack::build(workload, Scale::Quick, work.path(), false).expect("set-up");
        let fx = &stack.fixture;
        let reqs = make_requests(&fx.world, 5, "replay", 12, Scale::Quick.rows()).expect("tables");
        let reference = fx.annotator(fx.web.clone());
        let replayer = Replayer::new(
            fx,
            stack.backend.clone(),
            CacheConfig {
                capacity: workload.cache_capacity(),
                ..CacheConfig::default()
            },
        );
        let mut ledger = Ledger::default();
        for req in &reqs {
            let got = replayer.replay(req, &mut ledger).expect("replay");
            assert_eq!(got, reference.annotate_table(&req.table), "{}", req.name);
        }
        assert_eq!(ledger.tables, reqs.len() as u64);
        assert!(!ledger.queries.is_empty() && !ledger.rank_ns.is_empty());
        assert!(ledger.stage_sum() <= ledger.total);
        assert!(
            ledger.residual_share() < MAX_RESIDUAL_SHARE,
            "{}: residual {}",
            workload.name(),
            ledger.residual_share()
        );
    }
}

/// Runs `run all` at Quick scale with a one-second window and returns
/// the summary line of every workload's run.
fn run_all(trace: &str) -> Vec<Json> {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_teda-ledger"))
        .args([
            "run", "all", "--window", "1", "--scale", "quick", "--trace", trace,
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run the benchmark binary");
    assert!(
        output.status.success(),
        "run all --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("summary line is JSON"))
        .collect()
}

#[test]
fn every_workload_runs_and_reports_every_metric() {
    for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let lines = run_all(trace);
        assert_eq!(lines.len(), Workload::ALL.len(), "one summary per workload");
        for line in &lines {
            let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics: Vec<&str> = line
                .get("metrics")
                .expect("metrics")
                .entries()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(metrics, want);
        }
    }
}
