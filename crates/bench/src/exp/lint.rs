//! Static-analysis experiment: runs `teda-lint` over the live workspace,
//! times the full pass, and reports coverage (files scanned, findings
//! per lint, baseline size, lock-graph shape). The numbers make analyzer
//! drift visible in `BENCH_lint.json` diffs — a finding count that moves
//! without a baseline change means the gate and the code disagree.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use teda_lint::{baseline, lockorder, run_all_lints, Finding, LINT_NAMES};

use crate::harness::Claim;
use crate::report::BenchJson;

/// One analyzer pass over the workspace.
#[derive(Debug, Clone)]
pub struct LintResult {
    /// Workspace root the pass ran over.
    pub root: PathBuf,
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings per lint, in [`LINT_NAMES`] order.
    pub per_lint: Vec<(&'static str, usize)>,
    /// Total findings (sum of `per_lint`).
    pub total_findings: usize,
    /// Entries in the checked-in baseline.
    pub baseline_entries: usize,
    /// Findings not covered by the baseline (gate-failing).
    pub new_findings: usize,
    /// Baseline entries matching no finding (gate-failing).
    pub stale_entries: usize,
    /// Mutexes discovered by the lock-order analysis.
    pub lock_mutexes: usize,
    /// Acquisition-order edges.
    pub lock_edges: usize,
    /// Acquisition-order cycles (must be zero).
    pub lock_cycles: usize,
    /// Wall-clock for the full pass (read + lex + all lints + lock graph
    /// + baseline diff).
    pub elapsed: Duration,
}

/// Walks up from the current directory to the workspace root (the
/// `Cargo.toml` declaring `[workspace]`).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Runs the analyzer over the enclosing workspace.
pub fn run() -> LintResult {
    let root = find_workspace_root().expect("run from inside the workspace");
    let t0 = Instant::now();
    let files = teda_lint::load_workspace(&root).expect("workspace readable");
    let findings: Vec<Finding> = run_all_lints(&files);
    let lock = lockorder::analyze(&files);
    let baseline_text = std::fs::read_to_string(root.join("lint-baseline.txt")).unwrap_or_default();
    let entries = baseline::parse(&baseline_text).expect("baseline parses");
    let diff = baseline::diff(&findings, &entries);
    let elapsed = t0.elapsed();

    let per_lint: Vec<(&'static str, usize)> = LINT_NAMES
        .iter()
        .map(|&name| (name, findings.iter().filter(|f| f.lint == name).count()))
        .collect();
    LintResult {
        root,
        files_scanned: files.len(),
        total_findings: findings.len(),
        per_lint,
        baseline_entries: entries.len(),
        new_findings: diff.new.len(),
        stale_entries: diff.stale.len(),
        lock_mutexes: lock.mutexes.len(),
        lock_edges: lock.edges.len(),
        lock_cycles: lock.cycles.len(),
        elapsed,
    }
}

/// Human-readable table.
pub fn render(r: &LintResult) -> String {
    let mut out = String::new();
    out.push_str("== Static analysis (teda-lint over the live workspace) ==\n");
    out.push_str(&format!("root: {}\n", r.root.display()));
    out.push_str(&format!(
        "{} file(s) scanned in {:.1} ms\n",
        r.files_scanned,
        r.elapsed.as_secs_f64() * 1e3
    ));
    for (name, count) in &r.per_lint {
        out.push_str(&format!("  {name:<28} {count}\n"));
    }
    out.push_str(&format!(
        "baseline: {} entr(ies), {} new finding(s), {} stale\n",
        r.baseline_entries, r.new_findings, r.stale_entries
    ));
    out.push_str(&format!(
        "lock graph: {} mutex(es), {} edge(s), {} cycle(s)\n",
        r.lock_mutexes, r.lock_edges, r.lock_cycles
    ));
    out
}

/// The `BENCH_lint.json` payload.
pub fn to_json(r: &LintResult) -> BenchJson {
    let mut json = BenchJson::new("lint");
    json.metric("files_scanned", r.files_scanned as f64, "files")
        .metric("scan_wall", r.elapsed.as_secs_f64() * 1e3, "ms")
        .metric("findings_total", r.total_findings as f64, "findings");
    for (name, count) in &r.per_lint {
        json.metric(&format!("findings_{name}"), *count as f64, "findings");
    }
    json.metric("baseline_entries", r.baseline_entries as f64, "entries")
        .metric("new_findings", r.new_findings as f64, "findings")
        .metric("stale_entries", r.stale_entries as f64, "entries")
        .metric("lock_mutexes", r.lock_mutexes as f64, "mutexes")
        .metric("lock_edges", r.lock_edges as f64, "edges")
        .metric("lock_cycles", r.lock_cycles as f64, "cycles");
    json
}

/// The analyzer gate: no unbaselined findings, no stale baseline
/// entries, zero lock-order cycles.
pub fn claims(r: &LintResult) -> Vec<Claim> {
    vec![
        Claim::exact(
            "files_scanned > 100",
            r.files_scanned > 100,
            format!(
                "suspiciously few files scanned ({}) — wrong root?",
                r.files_scanned
            ),
        ),
        Claim::exact(
            "new_findings == 0",
            r.new_findings == 0,
            format!(
                "{} unbaselined lint findings — run `cargo run -p teda-lint -- --check`",
                r.new_findings
            ),
        ),
        Claim::exact(
            "stale_entries == 0",
            r.stale_entries == 0,
            format!(
                "{} stale baseline entries — the baseline is shrink-only, prune them",
                r.stale_entries
            ),
        ),
        Claim::exact(
            "lock_cycles == 0",
            r.lock_cycles == 0,
            format!(
                "{} mutex acquisition cycles detected in the workspace",
                r.lock_cycles
            ),
        ),
    ]
}
