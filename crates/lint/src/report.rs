//! Report rendering: machine-readable JSON and the human diff-vs-baseline.
//!
//! JSON strings go through `teda-obs`'s shared writer (dependency-free,
//! like the analyzer); the layout is this module's own and mirrors the
//! flat-and-greppable style of `BENCH_*.json`:
//!
//! ```json
//! {
//!   "files_scanned": 123,
//!   "findings": [ {"lint": "...", "file": "...", "line": 7, ...} ],
//!   "counts": {"float_ord_panic": 0, ...},
//!   "baseline": {"entries": 2, "matched": 2, "stale": 0},
//!   "lock_graph": {"mutexes": [...], "edges": [...], "cycles": []}
//! }
//! ```

use teda_obs::json;

use crate::baseline::Diff;
use crate::lockorder::LockReport;
use crate::{Finding, LINT_NAMES};

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"excerpt\": {}}}",
        json::string(f.lint),
        json::string(&f.file),
        f.line,
        json::string(&f.message),
        json::string(&f.excerpt),
    )
}

/// Renders the full machine-readable report.
pub fn render_json(
    files_scanned: usize,
    findings: &[Finding],
    diff: &Diff,
    baseline_len: usize,
    lock: &LockReport,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));

    s.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i + 1 == findings.len() { "" } else { "," };
        s.push_str(&format!("    {}{sep}\n", finding_json(f)));
    }
    s.push_str("  ],\n");

    s.push_str("  \"counts\": {");
    for (i, lint) in LINT_NAMES.iter().enumerate() {
        let n = findings.iter().filter(|f| f.lint == *lint).count();
        let sep = if i + 1 == LINT_NAMES.len() { "" } else { ", " };
        s.push_str(&format!("\"{lint}\": {n}{sep}"));
    }
    s.push_str("},\n");

    s.push_str(&format!(
        "  \"baseline\": {{\"entries\": {}, \"matched\": {}, \"new\": {}, \"stale\": {}}},\n",
        baseline_len,
        diff.matched,
        diff.new.len(),
        diff.stale.len(),
    ));

    s.push_str("  \"lock_graph\": {\n    \"mutexes\": [");
    for (i, m) in lock.mutexes.iter().enumerate() {
        let sep = if i + 1 == lock.mutexes.len() {
            ""
        } else {
            ", "
        };
        s.push_str(&format!("{}{sep}", json::string(m)));
    }
    s.push_str("],\n    \"edges\": [\n");
    for (i, e) in lock.edges.iter().enumerate() {
        let sep = if i + 1 == lock.edges.len() { "" } else { "," };
        s.push_str(&format!(
            "      {{\"from\": {}, \"to\": {}, \"in_fn\": {}, \"file\": {}, \"line\": {}, \
             \"via\": {}}}{sep}\n",
            json::string(&e.from),
            json::string(&e.to),
            json::string(&e.in_fn),
            json::string(&e.file),
            e.line,
            json::string(&e.via),
        ));
    }
    s.push_str("    ],\n    \"cycles\": [");
    for (i, c) in lock.cycles.iter().enumerate() {
        let sep = if i + 1 == lock.cycles.len() { "" } else { ", " };
        let names: Vec<String> = c.iter().map(|n| json::string(n)).collect();
        s.push_str(&format!("[{}]{sep}", names.join(", ")));
    }
    s.push_str("]\n  }\n}\n");
    s
}

/// Renders the human diff: new findings, stale baseline entries, and a
/// one-line verdict. Returns the text and whether the check passed.
pub fn render_human(
    files_scanned: usize,
    findings: &[Finding],
    diff: &Diff,
    lock: &LockReport,
) -> (String, bool) {
    let mut s = String::new();
    for f in &diff.new {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            f.file, f.line, f.lint, f.message, f.excerpt
        ));
    }
    for b in &diff.stale {
        s.push_str(&format!(
            "baseline: stale entry `{} | {} | {}` — the finding it covered is gone; \
             delete the line (shrink-only baseline)\n",
            b.lint, b.file, b.occurrence
        ));
    }
    let pass = diff.is_clean();
    s.push_str(&format!(
        "teda-lint: {} file(s), {} finding(s) ({} baselined, {} new), {} stale baseline \
         entr{}, {} lock edge(s), {} lock cycle(s): {}\n",
        files_scanned,
        findings.len(),
        diff.matched,
        diff.new.len(),
        diff.stale.len(),
        if diff.stale.len() == 1 { "y" } else { "ies" },
        lock.edges.len(),
        lock.cycles.len(),
        if pass { "PASS" } else { "FAIL" },
    ));
    (s, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        let f = Finding {
            file: "a\\b.rs".into(),
            line: 1,
            lint: "float_ord_panic",
            message: "m\u{1}".into(),
            excerpt: "a\"b\nd".into(),
        };
        assert_eq!(
            finding_json(&f),
            "{\"lint\": \"float_ord_panic\", \"file\": \"a\\\\b.rs\", \"line\": 1, \
             \"message\": \"m\\u0001\", \"excerpt\": \"a\\\"b\\nd\"}"
        );
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let f = Finding {
            file: "a.rs".into(),
            line: 3,
            lint: "float_ord_panic",
            message: "m".into(),
            excerpt: "x \"quoted\"".into(),
        };
        let d = Diff {
            new: vec![f.clone()],
            stale: vec![],
            matched: 0,
        };
        let s = render_json(1, &[f], &d, 0, &LockReport::default());
        assert!(s.contains("\"files_scanned\": 1"));
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.contains("\"float_ord_panic\": 1"));
        // Balanced braces/brackets (cheap well-formedness proxy — string
        // contents are escaped so raw braces only come from structure).
        let opens = s.matches('{').count() + s.matches('[').count();
        let closes = s.matches('}').count() + s.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn human_verdict() {
        let d = Diff::default();
        let (text, pass) = render_human(10, &[], &d, &LockReport::default());
        assert!(pass);
        assert!(text.contains("PASS"));
    }
}
