//! `teda-lint` — the workspace invariant analyzer.
//!
//! An offline static-analysis pass, free of outside crates, that walks
//! every workspace `.rs` file and enforces the ROADMAP's hard invariants
//! as named lints (see `src/README.md` for the catalogue):
//!
//! * [`float_ord_panic`](lints::float_ord_panic) — NaN-panicking float
//!   comparisons; require `total_cmp`.
//! * [`nondeterministic_iteration`](lints::nondeterministic_iteration) —
//!   unordered `HashMap`/`HashSet` iteration in result-producing crates.
//! * [`panic_on_untrusted`](lints::panic_on_untrusted) — panic paths in
//!   decode/parse modules fed by untrusted bytes.
//! * [`wallclock_in_scoring`](lints::wallclock_in_scoring) — wall-clock
//!   reads inside scoring/merge/partition modules.
//! * [`compat_containment`](lints::compat_containment) — imports outside
//!   the offline-build stand-in surface.
//! * [`lock_order_cycle`](lockorder) — cycles in the static mutex
//!   acquisition graph.
//!
//! Suppression is explicit and auditable: a source comment
//! `// teda-lint: allow(<lint>) -- <reason>` (reason mandatory) silences
//! a finding on the same or the next line, and a checked-in baseline file
//! ([`baseline`]) carries triaged pre-existing findings. Stale baseline
//! entries fail the check, so the baseline can only shrink.

pub mod baseline;
pub mod lexer;
pub mod lints;
pub mod lockorder;
pub mod report;

use std::path::{Path, PathBuf};

use lexer::{lex, Tok, TokKind};

/// Every lint this analyzer can emit, in report order.
pub const LINT_NAMES: &[&str] = &[
    "float_ord_panic",
    "nondeterministic_iteration",
    "panic_on_untrusted",
    "wallclock_in_scoring",
    "compat_containment",
    "lock_order_cycle",
    "malformed_allow",
    "unused_allow",
];

/// Decode/parse modules reachable from untrusted bytes (wire frames,
/// store files, CSV documents, corpus directories). `panic_on_untrusted`
/// applies here.
pub const UNTRUSTED_MODULES: &[&str] = &[
    "crates/wire/src/protocol.rs",
    "crates/store/src/format.rs",
    "crates/tabular/src/csv.rs",
    "crates/corpus/src/wiki.rs",
    "crates/corpus/src/gft.rs",
    "crates/corpus/src/gold.rs",
    "crates/corpus/src/stream.rs",
];

/// Crates whose output is a result bit the determinism invariant covers.
/// `nondeterministic_iteration` applies to their `src/` trees.
pub const RESULT_PRODUCING_CRATES: &[&str] = &["websim", "core", "cluster", "kb", "geo"];

/// Scoring / merge / partition modules: every value they produce feeds a
/// ranked result, so wall-clock reads are banned outright.
pub const SCORING_MODULES: &[&str] = &[
    "crates/websim/src/scoring.rs",
    "crates/websim/src/index.rs",
    "crates/websim/src/segment.rs",
    "crates/websim/src/engine.rs",
    "crates/cluster/src/partition.rs",
    "crates/cluster/src/router.rs",
    "crates/core/src/postprocess.rs",
    // Scoring-adjacent by position (its guard types are held open
    // across scoring calls) but carved out below — see
    // WALLCLOCK_EXEMPT for the proof.
    "crates/obs/src/clock.rs",
];

/// Path prefixes exempt from `wallclock_in_scoring`, each carrying a
/// written proof of why clock reads there cannot perturb a result.
/// An exemption without a proof is rejected by this crate's own tests;
/// the fixture suite pins that non-exempt scoring modules still trip.
pub const WALLCLOCK_EXEMPT: &[(&str, &str)] = &[(
    "crates/obs/",
    "observation-only: teda-obs reads clocks to time stages after their \
     results are computed; durations flow into histograms and trace spans \
     only, never into a score, rank, or merge decision — exp_obs asserts \
     bit-identical annotations with telemetry on and off",
)];

/// The proof string for an exempt path, or `None` when the wall-clock
/// ban applies in full.
pub fn wallclock_exemption(rel: &str) -> Option<&'static str> {
    WALLCLOCK_EXEMPT
        .iter()
        .find(|(prefix, _)| rel.starts_with(prefix))
        .map(|(_, proof)| *proof)
}

/// Import roots the offline-build constraint admits: the standard
/// library, workspace crates, and the crates.io stand-ins vendored under
/// `crates/compat/` (which swap for the real crates untouched if network
/// ever appears).
pub const ALLOWED_IMPORT_ROOTS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "crate",
    "self",
    "super",
    "rand",
    "rayon",
    "criterion",
    "proptest",
    "memmap2",
];

/// Which lints apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Roles {
    /// Listed in [`UNTRUSTED_MODULES`].
    pub untrusted: bool,
    /// Under a [`RESULT_PRODUCING_CRATES`] `src/` tree.
    pub result_producing: bool,
    /// Listed in [`SCORING_MODULES`].
    pub scoring: bool,
    /// Integration test / example / bench file: panic- and float-lints
    /// do not apply (tests are allowed to panic), `compat_containment`
    /// still does.
    pub test_only: bool,
}

impl Roles {
    /// Role assignment policy for a workspace-relative path (always
    /// `/`-separated).
    pub fn for_path(rel: &str) -> Roles {
        let test_only = rel.starts_with("tests/")
            || rel.starts_with("examples/")
            || rel.starts_with("benches/")
            || rel.contains("/tests/")
            || rel.contains("/examples/")
            || rel.contains("/benches/");
        let result_producing = RESULT_PRODUCING_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
        Roles {
            untrusted: UNTRUSTED_MODULES.contains(&rel),
            result_producing,
            scoring: SCORING_MODULES.contains(&rel) && wallclock_exemption(rel).is_none(),
            test_only,
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Lint name (one of [`LINT_NAMES`]).
    pub lint: &'static str,
    /// Human explanation of this occurrence.
    pub message: String,
    /// The trimmed source line, used for baseline fingerprints.
    pub excerpt: String,
}

/// A parsed `teda-lint: allow(...)` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    pub lint: String,
    /// Line the comment starts on; suppresses that line and the next.
    pub line: u32,
    /// The mandatory `-- <reason>` trailer was present and non-empty.
    pub has_reason: bool,
}

/// A lexed, classified source file ready for the lint passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative, `/`-separated path.
    pub rel_path: String,
    pub roles: Roles,
    /// Code tokens (comments stripped).
    pub code: Vec<Tok>,
    /// Parallel to `code`: true inside `#[cfg(test)]` / `#[test]` items.
    pub in_test: Vec<bool>,
    /// Allow annotations found in comments.
    pub allows: Vec<Allow>,
    /// Source lines (for excerpts).
    pub lines: Vec<String>,
}

impl SourceFile {
    /// Lexes and classifies `src` under the given workspace-relative
    /// path, with roles derived by [`Roles::for_path`].
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        Self::parse_with_roles(rel_path, src, Roles::for_path(rel_path))
    }

    /// Lexes `src` with explicitly assigned roles (fixture tests use
    /// this to exercise role-gated lints on arbitrary paths).
    pub fn parse_with_roles(rel_path: &str, src: &str, roles: Roles) -> SourceFile {
        let toks = lex(src);
        let mut allows = Vec::new();
        // Annotations live in plain `//` / `/* */` comments only. Doc
        // comments (`///`, `//!`, `/**`, `/*!`) are prose — they may
        // *describe* the annotation syntax without being annotations.
        let is_doc = |t: &Tok| {
            t.text.starts_with("///")
                || t.text.starts_with("//!")
                || t.text.starts_with("/**")
                || t.text.starts_with("/*!")
        };
        for t in toks.iter().filter(|t| t.is_comment() && !is_doc(t)) {
            parse_allows(&t.text, t.line, &mut allows);
        }
        let code: Vec<Tok> = toks.into_iter().filter(|t| !t.is_comment()).collect();
        let in_test = test_mask(&code);
        SourceFile {
            rel_path: rel_path.to_string(),
            roles,
            code,
            in_test,
            allows,
            lines: src.lines().map(str::to_string).collect(),
        }
    }

    /// The trimmed source text of a 1-based line.
    pub fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Builds a finding at `line`.
    pub fn finding(&self, lint: &'static str, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            file: self.rel_path.clone(),
            line,
            lint,
            message: message.into(),
            excerpt: self.excerpt(line),
        }
    }
}

/// Extracts `teda-lint: allow(a, b) -- reason` annotations from one
/// comment's text. Multiple lints may share one annotation; the reason
/// trailer is required for the annotation to be well-formed (enforced by
/// the `malformed_allow` pseudo-lint, which is itself unsuppressable).
fn parse_allows(comment: &str, line: u32, out: &mut Vec<Allow>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("teda-lint:") {
        rest = &rest[pos + "teda-lint:".len()..];
        let body = rest.trim_start();
        let Some(body) = body.strip_prefix("allow") else {
            // An annotation marker without `allow` — record as a
            // malformed allow so typos fail loudly instead of silently
            // not suppressing.
            out.push(Allow {
                lint: String::new(),
                line,
                has_reason: false,
            });
            continue;
        };
        let body = body.trim_start();
        let Some(body) = body.strip_prefix('(') else {
            out.push(Allow {
                lint: String::new(),
                line,
                has_reason: false,
            });
            continue;
        };
        let Some(close) = body.find(')') else {
            out.push(Allow {
                lint: String::new(),
                line,
                has_reason: false,
            });
            continue;
        };
        let names = &body[..close];
        let after = &body[close + 1..];
        let has_reason = after
            .trim_start()
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        for name in names.split(',') {
            let name = name.trim();
            if !name.is_empty() {
                out.push(Allow {
                    lint: name.to_string(),
                    line,
                    has_reason,
                });
            }
        }
        rest = after;
    }
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]`-attributed items.
/// The panic/float/iteration lints skip test code: a test is allowed to
/// panic, and its iteration order never reaches a served result.
fn test_mask(code: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Parse the attribute group [ ... ] (brackets nest).
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut is_test_attr = false;
        let mut saw_cfg = false;
        let mut first_ident: Option<&str> = None;
        while j < code.len() && depth > 0 {
            match &code[j].kind {
                TokKind::Punct if code[j].is_punct('[') => depth += 1,
                TokKind::Punct if code[j].is_punct(']') => depth -= 1,
                TokKind::Ident => {
                    if first_ident.is_none() {
                        first_ident = Some(code[j].text.as_str());
                    }
                    if code[j].text == "cfg" {
                        saw_cfg = true;
                    }
                    if code[j].text == "test" && (saw_cfg || first_ident == Some("test")) {
                        is_test_attr = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then swallow the attributed item:
        // through the matching `}` of its body, or through `;` for a
        // body-less item.
        let mut k = j;
        while k < code.len()
            && code[k].is_punct('#')
            && code.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut d = 1usize;
            k += 2;
            while k < code.len() && d > 0 {
                if code[k].is_punct('[') {
                    d += 1;
                } else if code[k].is_punct(']') {
                    d -= 1;
                }
                k += 1;
            }
        }
        let mut brace = 0usize;
        let mut entered = false;
        while k < code.len() {
            if code[k].is_punct('{') {
                brace += 1;
                entered = true;
            } else if code[k].is_punct('}') {
                brace = brace.saturating_sub(1);
                if entered && brace == 0 {
                    k += 1;
                    break;
                }
            } else if code[k].is_punct(';') && !entered {
                k += 1;
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(k.min(code.len())).skip(attr_start) {
            *m = true;
        }
        i = k;
    }
    mask
}

/// Recursively discovers workspace `.rs` files under `root`, skipping
/// `target/`, VCS metadata, and the lint fixture corpus (fixtures are
/// deliberately bad code). Returned paths are sorted for deterministic
/// reports.
pub fn discover_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads and classifies every workspace source file under `root`.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for path in discover_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        files.push(SourceFile::parse(&rel, &src));
    }
    Ok(files)
}

/// Runs every lint over `files` and applies allow-annotation
/// suppression. Returned findings are sorted by (file, line, lint);
/// baseline matching is the caller's concern (see [`baseline`]).
pub fn run_all_lints(files: &[SourceFile]) -> Vec<Finding> {
    let mut raw: Vec<Finding> = Vec::new();
    for f in files {
        raw.extend(lints::float_ord_panic(f));
        raw.extend(lints::nondeterministic_iteration(f));
        raw.extend(lints::panic_on_untrusted(f));
        raw.extend(lints::wallclock_in_scoring(f));
        raw.extend(lints::compat_containment(f));
    }
    let lock = lockorder::analyze(files);
    raw.extend(lock.findings());

    // Apply allow annotations: an allow of lint L on line A suppresses
    // findings of L on lines A and A+1. Lock-order cycles span
    // functions and are baseline-only.
    let mut findings = Vec::new();
    let mut used: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.allows.len()]).collect();
    for finding in raw {
        let fi = files.iter().position(|f| f.rel_path == finding.file);
        let mut suppressed = false;
        if finding.lint != "lock_order_cycle" {
            if let Some(fi) = fi {
                for (ai, allow) in files[fi].allows.iter().enumerate() {
                    if allow.lint == finding.lint
                        && allow.has_reason
                        && (allow.line == finding.line || allow.line + 1 == finding.line)
                    {
                        used[fi][ai] = true;
                        suppressed = true;
                    }
                }
            }
        }
        if !suppressed {
            findings.push(finding);
        }
    }
    // Allow hygiene: malformed annotations (missing reason, unknown
    // lint) and unused allows are findings themselves — suppressions
    // must stay auditable and minimal.
    for (fi, f) in files.iter().enumerate() {
        for (ai, allow) in f.allows.iter().enumerate() {
            if allow.lint.is_empty() || !allow.has_reason {
                findings.push(f.finding(
                    "malformed_allow",
                    allow.line,
                    "allow annotation needs the form `teda-lint: allow(<lint>) -- <reason>` \
                     with a non-empty reason",
                ));
            } else if !LINT_NAMES.contains(&allow.lint.as_str()) {
                findings.push(f.finding(
                    "malformed_allow",
                    allow.line,
                    format!("unknown lint {:?} in allow annotation", allow.lint),
                ));
            } else if !used[fi][ai] {
                findings.push(f.finding(
                    "unused_allow",
                    allow.line,
                    format!(
                        "allow({}) suppresses nothing — remove it so suppressions stay minimal",
                        allow.lint
                    ),
                ));
            }
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_policy() {
        assert!(Roles::for_path("crates/wire/src/protocol.rs").untrusted);
        assert!(Roles::for_path("crates/websim/src/index.rs").result_producing);
        assert!(Roles::for_path("crates/websim/src/scoring.rs").scoring);
        assert!(Roles::for_path("tests/store.rs").test_only);
        assert!(Roles::for_path("crates/geo/tests/props.rs").test_only);
        assert!(!Roles::for_path("crates/service/src/lib.rs").result_producing);
        // The obs clock facade is listed scoring-adjacent but exempt
        // from the wall-clock ban; every other scoring module stays
        // covered.
        assert!(!Roles::for_path("crates/obs/src/clock.rs").scoring);
        assert!(wallclock_exemption("crates/obs/src/clock.rs").is_some());
        assert!(Roles::for_path("crates/cluster/src/router.rs").scoring);
        assert!(wallclock_exemption("crates/cluster/src/router.rs").is_none());
    }

    #[test]
    fn every_wallclock_exemption_carries_a_real_proof() {
        for (prefix, proof) in WALLCLOCK_EXEMPT {
            assert!(
                prefix.starts_with("crates/") && prefix.ends_with('/'),
                "exemption prefix {prefix:?} must name a crate subtree"
            );
            assert!(
                proof.len() >= 40,
                "exemption for {prefix:?} needs a written proof, got {proof:?}"
            );
        }
    }

    #[test]
    fn allow_parsing_requires_reason() {
        let f = SourceFile::parse(
            "x.rs",
            "// teda-lint: allow(float_ord_panic) -- NaN filtered above\n\
             // teda-lint: allow(unused_allow)\n",
        );
        assert_eq!(f.allows.len(), 2);
        assert!(f.allows[0].has_reason);
        assert!(!f.allows[1].has_reason);
    }

    #[test]
    fn allow_list_splits() {
        let f = SourceFile::parse(
            "x.rs",
            "// teda-lint: allow(float_ord_panic, panic_on_untrusted) -- shared reason\n",
        );
        assert_eq!(f.allows.len(), 2);
        assert!(f.allows.iter().all(|a| a.has_reason));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let f = SourceFile::parse(
            "x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n",
        );
        let unwrap_idx = f.code.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test[unwrap_idx]);
        let after_idx = f.code.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(!f.in_test[after_idx]);
    }

    #[test]
    fn test_attr_fn_is_masked() {
        let f = SourceFile::parse(
            "x.rs",
            "#[test]\nfn t() { x.unwrap(); }\nfn live() { y.touch(); }\n",
        );
        let unwrap_idx = f.code.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test[unwrap_idx]);
        let touch_idx = f.code.iter().position(|t| t.is_ident("touch")).unwrap();
        assert!(!f.in_test[touch_idx]);
    }
}
