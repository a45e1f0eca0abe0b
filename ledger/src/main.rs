//! Command line of the serving benchmark.
//!
//! ```text
//! teda-ledger run <workload|all> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--reps N] [--scale standard|quick] [--out DIR]
//! teda-ledger compare <setA> <setB>
//! teda-ledger record <set> [--rev REV]
//! ```
//!
//! `--workload <name>` may replace the positional workload, `--window`
//! is an alias of `--seconds`, and `--traced` of `--trace 1`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use teda_ledger::catalogue::Workload;
use teda_ledger::fixture::Scale;
use teda_ledger::report::{civil_date, compare, load_set, record, render_history};
use teda_ledger::run::{default_out, log, run, summary_line, write_result, RunOptions};

const USAGE: &str = "usage:
  teda-ledger run <serve_warm|serve_large|serve_cluster|ingest_live|all>
                  [--seed N] [--seconds S] [--trace 0|1] [--reps N]
                  [--scale standard|quick] [--out DIR]
  teda-ledger compare <setA> <setB>
  teda-ledger record <set> [--rev REV]";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("traced") => args.flags.push(("trace".into(), "1".into())),
                Some(flag) => {
                    let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                    let flag = if flag == "window" { "seconds" } else { flag };
                    args.flags.push((flag.to_string(), value.clone()));
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("--{flag}: bad value {v:?}"))
        })
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("run") => Args::parse(&raw[1..]).and_then(|a| cmd_run(&a)),
        Some("compare") => Args::parse(&raw[1..]).and_then(|a| cmd_compare(&a)),
        Some("record") => Args::parse(&raw[1..]).and_then(|a| cmd_record(&a)),
        _ => Err("missing or unknown command".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("teda-ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let target = args
        .get("workload")
        .or(args.positional.first().map(String::as_str))
        .ok_or("run needs a workload")?;
    let seed: u64 = args.num("seed", 1)?;
    let seconds: f64 = args.num("seconds", 15.0)?;
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let scale = args
        .get("scale")
        .map_or(Some(Scale::Standard), Scale::parse);
    let scale = scale.ok_or("--scale: expected standard or quick")?;
    let out = args.get("out").map_or_else(default_out, PathBuf::from);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if target == "all" {
        return run_all(args.num("reps", 1)?, seed, seconds, traced, scale, &out);
    }
    let workload = Workload::parse(target).ok_or(format!("unknown workload {target:?}"))?;
    let opts = RunOptions {
        workload,
        seed,
        seconds,
        traced,
        scale,
        out,
    };
    let result = match run(&opts) {
        Ok(result) => result,
        Err(e) => {
            log(&format!("{} failed during set-up: {e}", workload.name()));
            return Ok(ExitCode::FAILURE);
        }
    };
    for (def, value) in &result.metrics {
        println!("{:<28} {:>16.4} {}", def.name, value, def.unit);
    }
    for check in &result.checks {
        log(&format!("check failed: {check}"));
    }
    match write_result(&opts, &result) {
        Ok(path) => log(&format!("result written to {}", path.display())),
        Err(e) => log(&e),
    }
    println!("{}", summary_line(&result));
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload in a fresh child process, `reps` times with
/// consecutive seeds, workloads interleaved within each repetition.
fn run_all(
    reps: u64,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    out: &Path,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut failed = Vec::new();
    for rep in 0..reps {
        for workload in Workload::ALL {
            let run_seed = seed + rep;
            let status = Command::new(&exe)
                .arg("run")
                .arg(workload.name())
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--scale", scale.name()])
                .arg("--out")
                .arg(out)
                .status()
                .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
            if !status.success() {
                failed.push(format!("{} (seed {run_seed})", workload.name()));
            }
        }
    }
    if failed.is_empty() {
        log(&format!("all runs passed; results in {}", out.display()));
        Ok(ExitCode::SUCCESS)
    } else {
        log(&format!("failed runs: {}", failed.join(", ")));
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two sets".into());
    };
    let (a, b) = (load_set(Path::new(a))?, load_set(Path::new(b))?);
    let (table, regressed) = compare(&a, &b);
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The current commit's short hash, when run inside a git checkout.
fn git_rev() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cmd_record(args: &Args) -> Result<ExitCode, String> {
    let [set] = args.positional.as_slice() else {
        return Err("record needs one set".into());
    };
    let runs = load_set(Path::new(set))?;
    if runs.is_empty() {
        return Err(format!("{set} holds no runs"));
    }
    let rev = args
        .get("rev")
        .map(str::to_string)
        .or_else(git_rev)
        .unwrap_or_else(|| "unknown".into());
    let days = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_err(|e| e.to_string())?
        .as_secs()
        / 86_400;
    let (y, m, d) = civil_date(days as i64);
    let date = format!("{y:04}-{m:02}-{d:02}");
    let history = record(&runs, &rev, &date);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("history");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{date}-{rev}.json"));
    std::fs::write(&path, render_history(&history))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    log(&format!(
        "recorded {} runs in {}",
        runs.len(),
        path.display()
    ));
    Ok(ExitCode::SUCCESS)
}
