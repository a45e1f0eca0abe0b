//! Sets of runs: loading result files, `compare`, and `record` (the
//! committed history under `history/`).

use std::fmt::Write;
use std::path::Path;

use crate::catalogue::{Better, MetricDef, Workload, END_TO_END, FIXTURE_SEED, PER_LAYER};
use crate::json::Json;
use crate::stats::Summary;

/// Loads the run records of a set: a directory of result files, or a
/// history file (its `runs` array).
pub fn load_set(path: &Path) -> Result<Vec<Json>, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {}: {e}", p.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", p.display())))
    };
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("list {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files.iter().map(|p| read(p)).collect()
    } else {
        let doc = read(path)?;
        match doc.get("runs") {
            Some(runs) => Ok(runs.as_array().to_vec()),
            None => Ok(vec![doc]),
        }
    }
}

/// Values of one metric over the set's runs of one workload (traced
/// runs carry the per-layer metrics, untraced runs the end-to-end ones).
fn values(runs: &[Json], workload: Workload, def: &MetricDef) -> Vec<f64> {
    let traced = def.bound.is_none();
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload.name()))
        .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(traced))
        .filter_map(|r| r.at(&["metrics", def.name, "value"]).and_then(Json::as_f64))
        .collect()
}

/// How set B's median compares with set A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// A spread wider than the bound: the sets cannot tell a change of
    /// that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for a metric with regression bound `bound`.
/// Where either spread exceeds the bound the result is unresolved, unless
/// every run of B reads better than every run of A.
pub fn verdict(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let better = |x: f64, y: f64| match def.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if sa.median == 0.0 || sa.spread() > bound || sb.spread() > bound {
        return if all_b_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let change = (sb.median - sa.median) / sa.median;
    let worse = match def.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The `compare` table for every workload and end-to-end metric, and
/// whether any metric regressed.
pub fn compare(a: &[Json], b: &[Json]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<15} {:>30} {:>30} {:>8} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for workload in Workload::ALL {
        for def in END_TO_END {
            let (va, vb) = (values(a, workload, def), values(b, workload, def));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let v = verdict(def, bound, &va, &vb);
            regressed |= v == Verdict::Regressed;
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            let change = if sa.median == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:+.1}%", (sb.median - sa.median) / sa.median * 100.0)
            };
            let _ = writeln!(
                out,
                "{:<14} {:<15} {:>30} {:>30} {:>8} {:>6.0}%  {} (n={}/{}, spread {:.1}%/{:.1}%)",
                workload.name(),
                def.name,
                cell(&sa),
                cell(&sb),
                change,
                bound * 100.0,
                v.as_str(),
                sa.n,
                sb.n,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
            );
        }
    }
    (out, regressed)
}

/// Days since 1970-01-01 to a civil `(year, month, day)` (proleptic
/// Gregorian; Howard Hinnant's algorithm).
pub fn civil_date(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + i64::from(month <= 2), month, day)
}

fn summaries(runs: &[Json], defs: &'static [MetricDef]) -> Json {
    let mut by_workload = Json::obj();
    for workload in Workload::ALL {
        let mut metrics = Json::obj();
        for def in defs {
            let vals = values(runs, workload, def);
            if vals.is_empty() {
                continue;
            }
            let s = Summary::of(&vals);
            metrics = metrics.with(
                def.name,
                Json::obj()
                    .with("median", s.median)
                    .with("q1", s.q1)
                    .with("q3", s.q3)
                    .with("spread", s.spread())
                    .with("n", s.n)
                    .with("unit", def.unit),
            );
        }
        if !metrics.entries().is_empty() {
            by_workload = by_workload.with(workload.name(), metrics);
        }
    }
    by_workload
}

/// Renders a history record with one line per top-level entry: per
/// workload for the summaries, per run for the runs, so two records of
/// the trajectory diff line by line.
pub fn render_history(doc: &Json) -> String {
    let mut out = String::from("{\n");
    let fields = doc.entries();
    for (i, (key, value)) in fields.iter().enumerate() {
        let lines: Vec<String> = match value {
            Json::Obj(entries) => entries
                .iter()
                .map(|(k, v)| format!("{}:{v}", Json::from(k.as_str())))
                .collect(),
            Json::Arr(items) => items.iter().map(Json::to_string).collect(),
            other => {
                let _ = writeln!(out, "{}:{other},", Json::from(key.as_str()));
                continue;
            }
        };
        let (open, close) = if matches!(value, Json::Obj(_)) {
            ('{', '}')
        } else {
            ('[', ']')
        };
        let _ = writeln!(out, "{}:{open}", Json::from(key.as_str()));
        out.push_str(&lines.join(",\n"));
        let comma = if i + 1 < fields.len() { "," } else { "" };
        let _ = writeln!(out, "\n{close}{comma}");
    }
    out.push_str("}\n");
    out
}

/// A history record of a set: provenance, per-metric summaries and the
/// runs themselves (so a later `compare` can recompute anything).
pub fn record(runs: &[Json], rev: &str, date: &str) -> Json {
    let num = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64);
    let mut seeds: Vec<u64> = runs
        .iter()
        .filter_map(|r| num(r, "seed"))
        .map(|s| s as u64)
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    let reps = Workload::ALL
        .iter()
        .map(|w| {
            runs.iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w.name()))
                .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(false))
                .count()
        })
        .min()
        .unwrap_or(0);
    let first = |key: &str| {
        runs.first()
            .and_then(|r| r.get(key))
            .cloned()
            .unwrap_or(Json::Null)
    };
    let n_docs = Json::Obj(
        Workload::ALL
            .iter()
            .filter_map(|w| {
                runs.iter()
                    .find(|r| r.get("workload").and_then(Json::as_str) == Some(w.name()))
                    .and_then(|r| r.get("n_docs").cloned())
                    .map(|n| (w.name().to_string(), n))
            })
            .collect(),
    );
    let provenance = Json::obj()
        .with("rev", rev)
        .with("date", date)
        .with("nproc", first("nproc"))
        .with("scale", first("scale"))
        .with("fixture_seed", FIXTURE_SEED)
        .with(
            "seeds",
            seeds.into_iter().map(Json::from).collect::<Vec<_>>(),
        )
        .with("window_s", first("seconds"))
        .with("reps", reps)
        .with("n_docs", n_docs)
        .with("cache_capacity", crate::catalogue::SMALL_CACHE);
    Json::obj()
        .with("provenance", provenance)
        .with("end_to_end", summaries(runs, END_TO_END))
        .with("per_layer", summaries(runs, PER_LAYER))
        .with("runs", runs.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = def(Better::Lower);
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&lower, 0.1, &a, &[10.2, 10.1, 10.3, 10.2, 10.25]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&lower, 0.1, &a, &[12.0, 12.1, 11.9, 12.0, 12.2]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&lower, 0.1, &a, &[8.0, 8.1, 7.9, 8.0, 8.05]),
            Verdict::Improved
        );
        // A wide spread is unresolved, never "unchanged".
        let wide = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(&lower, 0.1, &a, &wide), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(
            verdict(&lower, 0.1, &wide, &[1.0, 1.5, 2.0, 3.0, 4.0]),
            Verdict::Improved
        );
        let higher = def(Better::Higher);
        assert_eq!(
            verdict(&higher, 0.1, &a, &[8.0, 8.1, 7.9, 8.0, 8.05]),
            Verdict::Regressed
        );
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), (1970, 1, 1));
        assert_eq!(civil_date(11_016), (2000, 2, 29));
        assert_eq!(civil_date(20_742), (2026, 10, 16));
    }

    #[test]
    fn history_renders_one_entry_per_line_and_parses_back() {
        let run = Json::obj()
            .with("workload", "serve_warm")
            .with("seed", 1u64);
        let doc = record(&[run.clone(), run], "abc1234", "2026-10-16");
        let text = render_history(&doc);
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.lines().filter(|l| l.contains("\"seed\":1")).count() >= 2);
    }
}
