//! The token-pattern lints.
//!
//! Each pass walks a [`SourceFile`]'s comment-stripped token stream and
//! emits [`Finding`]s. The patterns are deliberately syntactic — no type
//! inference — so every heuristic boundary is documented on the lint and
//! recoverable through an allow annotation with a reason.

use crate::lexer::{Tok, TokKind};
use crate::{Finding, SourceFile, ALLOWED_IMPORT_ROOTS};

/// Comparator sinks whose closure argument must totally order floats.
const SORTER_METHODS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

/// Methods that iterate a hash container in arbitrary order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Tokens that impose a deterministic order downstream of an unordered
/// iteration (any `sort*` call in the same or the immediately following
/// statement).
const SORT_TOKENS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sort_by_cached_key",
];

/// Order-insensitive chain terminals: reductions whose value cannot
/// depend on visit order (float `sum`/`fold` are deliberately absent —
/// float addition does not commute bitwise).
const ORDER_FREE_SINKS: &[&str] = &["count", "any", "all", "is_empty"];

/// Keywords that can directly precede `[` without it being an index
/// expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "in", "return", "break", "mut", "ref", "as", "else", "match", "if", "while", "loop", "move",
    "dyn", "impl", "for", "let", "const", "static", "use", "pub", "crate", "where", "await",
];

/// `float_ord_panic`: a `partial_cmp` whose `Ordering` is extracted with
/// `unwrap`/`expect`, or a `partial_cmp` inside a `sort_by`-family
/// comparator. Both panic on NaN; `f64::total_cmp` gives the same order
/// on every non-NaN input and degrades (NaN sorts to an end) instead of
/// tearing the process down. Skips test code — a test may panic.
pub fn float_ord_panic(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if f.roles.test_only {
        return out;
    }
    let code = &f.code;
    for i in 0..code.len() {
        if f.in_test[i] || !code[i].is_ident("partial_cmp") {
            continue;
        }
        // `fn partial_cmp` — a PartialOrd impl, not a call site.
        if i > 0 && code[i - 1].is_ident("fn") {
            continue;
        }
        let line = code[i].line;
        if let Some(sorter) = enclosing_sorter(code, i) {
            out.push(f.finding(
                "float_ord_panic",
                line,
                format!(
                    "partial_cmp inside {sorter} comparator panics on NaN — use f64::total_cmp"
                ),
            ));
            continue;
        }
        if unwrapped_ahead(code, i) {
            out.push(f.finding(
                "float_ord_panic",
                line,
                "partial_cmp(..).unwrap()/expect() panics on NaN — use f64::total_cmp",
            ));
        }
    }
    out
}

/// Scans backward from token `i` for an enclosing call to one of
/// [`SORTER_METHODS`]: the nearest unmatched `(` whose head identifier
/// is a sorter. Unmatched `{` (closure bodies) are stepped through.
fn enclosing_sorter(code: &[Tok], i: usize) -> Option<&'static str> {
    let mut parens: i32 = 0;
    let mut braces: i32 = 0;
    let mut j = i;
    let mut steps = 0;
    while j > 0 && steps < 250 {
        j -= 1;
        steps += 1;
        let t = &code[j];
        if t.is_punct(')') {
            parens += 1;
        } else if t.is_punct('(') {
            parens -= 1;
            if parens < 0 {
                // Found an enclosing call's opening paren; check its head.
                if j > 0 && code[j - 1].kind == TokKind::Ident {
                    if let Some(s) = SORTER_METHODS.iter().find(|s| code[j - 1].text == **s) {
                        return Some(s);
                    }
                }
                parens = 0; // keep looking for an outer enclosing call
            }
        } else if t.is_punct('}') {
            braces += 1;
        } else if t.is_punct('{') {
            braces -= 1;
        } else if t.is_punct(';') && parens == 0 && braces >= 0 {
            return None; // statement boundary
        }
    }
    None
}

/// Looks ahead from a `partial_cmp` call for `.unwrap()` / `.expect(`
/// applied within the same statement.
fn unwrapped_ahead(code: &[Tok], i: usize) -> bool {
    let mut depth: i32 = 0;
    for j in i + 1..code.len().min(i + 80) {
        let t = &code[j];
        if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') {
            depth -= 1;
            if depth < -1 {
                return false; // left the enclosing expression
            }
        } else if t.is_punct(';') && depth <= 0 {
            return false;
        } else if (t.is_ident("unwrap") || t.is_ident("expect"))
            && j > 0
            && code[j - 1].is_punct('.')
            && code.get(j + 1).is_some_and(|n| n.is_punct('('))
        {
            return true;
        }
    }
    false
}

/// `nondeterministic_iteration`: iterating a `HashMap`/`HashSet` in a
/// result-producing crate without a sort in the same (or immediately
/// following) statement. Hash iteration order varies per process
/// (SipHash keys are random), so any result bit derived from it breaks
/// the parallel==sequential==cross-process determinism invariant.
///
/// Containers are recognized file-locally: `name: HashMap<..>` in
/// struct/fn/let positions and `let name = HashMap::new()`-style
/// initializers. Order-insensitive reductions (`ORDER_FREE_SINKS`)
/// are admitted; anything else needs a sort or an allow with a reason.
pub fn nondeterministic_iteration(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !f.roles.result_producing || f.roles.test_only {
        return out;
    }
    let code = &f.code;
    let names = hash_container_names(code);
    if names.is_empty() {
        return out;
    }

    for i in 0..code.len() {
        if f.in_test[i] {
            continue;
        }
        let t = &code[i];
        // Pattern A: `for <pat> in [&][mut] <chain> {`.
        if t.is_ident("in") && i > 0 {
            if let Some((name, end)) = dotted_chain(code, i + 1) {
                if names.contains(&name)
                    && code.get(end).is_some_and(|n| n.is_punct('{'))
                    && is_for_loop(code, i)
                {
                    out.push(f.finding(
                        "nondeterministic_iteration",
                        t.line,
                        format!(
                            "`for .. in {name}` iterates a hash container in arbitrary order — \
                             collect and sort, or allow with a reason"
                        ),
                    ));
                }
            }
        }
        // Pattern B: `<chain>.iter()` / `.keys()` / … on a known container.
        if t.kind == TokKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code[i - 2].kind == TokKind::Ident
            && names.contains(&code[i - 2].text)
            && !ordered_downstream(code, i)
        {
            out.push(f.finding(
                "nondeterministic_iteration",
                t.line,
                format!(
                    "{}.{}() iterates a hash container in arbitrary order with no subsequent \
                     sort — collect and sort, or allow with a reason",
                    code[i - 2].text,
                    t.text
                ),
            ));
        }
    }
    out
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: typed
/// positions (`name: [&mut] [std::collections::] HashMap<..>`) and
/// `let [mut] name = HashMap::…(..)` initializers.
fn hash_container_names(code: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..code.len() {
        if !(code[i].is_ident("HashMap") || code[i].is_ident("HashSet")) {
            continue;
        }
        // Typed position: walk left over `: & mut std :: collections ::`.
        let mut j = i;
        while j > 0 {
            let p = &code[j - 1];
            if p.is_punct(':')
                || p.is_punct('&')
                || p.kind == TokKind::Lifetime
                || p.is_ident("mut")
                || p.is_ident("std")
                || p.is_ident("collections")
            {
                j -= 1;
            } else {
                break;
            }
        }
        if j < i && j > 0 && code[j - 1].kind == TokKind::Ident && code[j].is_punct(':') {
            names.push(code[j - 1].text.clone());
            continue;
        }
        // Initializer: `let [mut] name = … HashMap :: new (…)`.
        if code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut k = i;
            let mut steps = 0;
            while k > 0 && steps < 40 {
                k -= 1;
                steps += 1;
                if code[k].is_punct(';') || code[k].is_punct('{') || code[k].is_punct('}') {
                    k += 1;
                    break;
                }
            }
            if code.get(k).is_some_and(|t| t.is_ident("let")) {
                let mut n = k + 1;
                if code.get(n).is_some_and(|t| t.is_ident("mut")) {
                    n += 1;
                }
                if code.get(n).map(|t| t.kind) == Some(TokKind::Ident)
                    && code.get(n + 1).is_some_and(|t| t.is_punct('='))
                {
                    names.push(code[n].text.clone());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// From `start`, consumes `[&][mut] (self.)? ident (.ident)*`; returns
/// the last identifier of the chain and the index just past it.
fn dotted_chain(code: &[Tok], mut start: usize) -> Option<(String, usize)> {
    while code
        .get(start)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        start += 1;
    }
    let mut last: Option<String> = None;
    let mut i = start;
    loop {
        match code.get(i) {
            Some(t) if t.kind == TokKind::Ident => {
                last = Some(t.text.clone());
                i += 1;
                if code.get(i).is_some_and(|t| t.is_punct('.'))
                    && code.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident)
                {
                    i += 1;
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    last.map(|l| (l, i))
}

/// True when the `in` at `i` belongs to a `for` loop (scan back for the
/// `for` before any statement boundary).
fn is_for_loop(code: &[Tok], i: usize) -> bool {
    let mut j = i;
    let mut steps = 0;
    while j > 0 && steps < 30 {
        j -= 1;
        steps += 1;
        if code[j].is_ident("for") {
            return true;
        }
        if code[j].is_punct(';') || code[j].is_punct('{') || code[j].is_punct('}') {
            return false;
        }
    }
    false
}

/// True when the iteration starting at token `i` is made deterministic
/// downstream: a `sort*` call in the same or the next statement, or an
/// order-insensitive terminal in the same chain.
fn ordered_downstream(code: &[Tok], i: usize) -> bool {
    let mut depth: i32 = 0;
    let mut semis = 0;
    for j in i + 1..code.len().min(i + 250) {
        let t = &code[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') || t.is_punct('}') {
            // Entering/leaving a block: stop at the enclosing block edge.
            if t.is_punct('}') && depth <= 0 {
                return false;
            }
        } else if t.is_punct(';') && depth <= 0 {
            semis += 1;
            if semis >= 2 {
                return false;
            }
        } else if t.kind == TokKind::Ident {
            if SORT_TOKENS.contains(&t.text.as_str())
                && code.get(j + 1).is_some_and(|n| n.is_punct('('))
            {
                return true;
            }
            if semis == 0
                && ORDER_FREE_SINKS.contains(&t.text.as_str())
                && j > 0
                && code[j - 1].is_punct('.')
            {
                return true;
            }
        }
    }
    false
}

/// `panic_on_untrusted`: `unwrap` / `expect` / `panic!` /
/// `unreachable!` / `todo!` / `unimplemented!` and `expr[..]` indexing in
/// the decode/parse modules fed by untrusted bytes
/// ([`crate::UNTRUSTED_MODULES`]). Every reachable panic there is a
/// remote crash; provably-internal ones carry an allow with the proof
/// sketch as the reason.
pub fn panic_on_untrusted(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !f.roles.untrusted || f.roles.test_only {
        return out;
    }
    let code = &f.code;
    for i in 0..code.len() {
        if f.in_test[i] {
            continue;
        }
        let t = &code[i];
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(f.finding(
                "panic_on_untrusted",
                t.line,
                format!(
                    ".{}() in an untrusted-input module — return a typed error",
                    t.text
                ),
            ));
        }
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && code.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(f.finding(
                "panic_on_untrusted",
                t.line,
                format!(
                    "{}! in an untrusted-input module — return a typed error",
                    t.text
                ),
            ));
        }
        if t.is_punct('[') && i > 0 {
            let p = &code[i - 1];
            let indexable = match p.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct => p.is_punct(')') || p.is_punct(']'),
                _ => false,
            };
            if indexable {
                out.push(f.finding(
                    "panic_on_untrusted",
                    t.line,
                    "slice/array indexing panics out of bounds — use get()/get_mut() or prove \
                     the bound and allow with the proof as reason",
                ));
            }
        }
    }
    out
}

/// `wallclock_in_scoring`: any `Instant` / `SystemTime` mention inside a
/// scoring/merge/partition module ([`crate::SCORING_MODULES`]). A result
/// bit must be a pure function of `(query, k)` — time-dependent scoring
/// breaks replica bit-identity and deterministic replay.
pub fn wallclock_in_scoring(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !f.roles.scoring || f.roles.test_only {
        return out;
    }
    for (i, t) in f.code.iter().enumerate() {
        if f.in_test[i] {
            continue;
        }
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(f.finding(
                "wallclock_in_scoring",
                t.line,
                format!(
                    "{} in a scoring/merge/partition module — results must be pure in (query, k)",
                    t.text
                ),
            ));
        }
    }
    out
}

/// `compat_containment`: `use` / `extern crate` of a root outside the
/// allowed surface (std + workspace crates + the `crates/compat/`
/// stand-ins). Guards the offline-build constraint: a new crates.io
/// dependency cannot slip in through one import.
///
/// Roots that are modules declared in the same file (`mod x;` /
/// `mod x {`) are local re-export paths, not dependencies; roots with an
/// uppercase initial are type paths (`use EntityType::Variant`) — both
/// admitted (crates.io crate names are lowercase by convention, so
/// neither loophole can smuggle a dependency in).
pub fn compat_containment(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let code = &f.code;
    let local_mods: Vec<&str> = code
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            t.is_ident("mod")
                && code.get(i + 1).map(|n| n.kind) == Some(TokKind::Ident)
                && code
                    .get(i + 2)
                    .is_some_and(|n| n.is_punct(';') || n.is_punct('{'))
        })
        .filter_map(|(i, _)| code.get(i + 1).map(|n| n.text.as_str()))
        .collect();
    for i in 0..code.len() {
        let root = if code[i].is_ident("use") {
            // `use ::root::…` or `use root::…` — the segment must be
            // followed by `::`, `;`, ` as `, or `::{`; a bare `use x;`
            // re-export is still an import of root `x`.
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_punct(':'))
                && code.get(j + 1).is_some_and(|t| t.is_punct(':'))
            {
                j += 2;
            }
            code.get(j).filter(|t| t.kind == TokKind::Ident)
        } else if code[i].is_ident("extern") && code.get(i + 1).is_some_and(|t| t.is_ident("crate"))
        {
            code.get(i + 2).filter(|t| t.kind == TokKind::Ident)
        } else {
            None
        };
        let Some(root) = root else { continue };
        let name = root.text.as_str();
        let allowed = ALLOWED_IMPORT_ROOTS.contains(&name)
            || name.starts_with("teda")
            || local_mods.contains(&name)
            || name.chars().next().is_some_and(char::is_uppercase);
        if !allowed {
            out.push(f.finding(
                "compat_containment",
                root.line,
                format!(
                    "import root `{name}` is outside the offline-build surface — extend \
                     crates/compat/ or stay inside the workspace"
                ),
            ));
        }
    }
    out
}
