//! Serving off the mmap'd snapshot under measurement: the three claims
//! of the mapped read path, each asserted in-run.
//!
//! * **cold start-to-first-query** — mapping the snapshot and answering
//!   one query ([`CorpusStore::open_mapped`] + [`ViewBackend`]) must be
//!   at least 5× faster than the eager path (read + full decode +
//!   query): the mapped open verifies only the index sections and
//!   never materializes a page string.
//! * **steady state** — once warm, mapped query latency (p50 and p99)
//!   must stay within a fixed factor of the heap-resident index: the
//!   postings walk runs over the mapped bytes in place.
//! * **bit identity** — the mapped backend's top-k equals the eager
//!   `WebCorpus` at every probed (query, k), including with journal
//!   overlays (live adds and removes) stacked on top and again after
//!   compaction folded the journal into a fresh snapshot.
//!
//! Peak-RSS claims (mapped strictly below eager, sublinear in corpus
//! size) need process isolation — `VmHWM` is monotone per process — so
//! [`measure_rss`] re-executes the running experiment binary as one-shot
//! probe children (see [`rss_probe`] / `probe_peak_rss`); [`run`]
//! leaves [`MmapReport::rss`] empty.

use std::sync::Arc;
use std::time::{Duration, Instant};

use teda_simkit::stats::percentile_sorted;
use teda_simkit::tablefmt::{Align, TextTable};
use teda_store::corpus_snapshot::decode_corpus;
use teda_store::{CorpusStore, ViewBackend};
use teda_websim::{SearchBackend, WebCorpus, WebPage};

use crate::harness::{best_of, bits, probes, Claim, Scale};
use crate::report::log;

/// Timing repetitions (minimum of): damps scheduler noise.
const REPS: usize = 5;
/// Steady-state rounds over the probe set per backend.
const STEADY_ROUNDS: usize = 30;

/// Shared vocabulary: common words every page carries (high-df terms)
/// — the page bodies repeat them so the pages section dominates the
/// snapshot, which is exactly the regime the mapped path targets.
const VOCAB: [&str; 12] = [
    "restaurant",
    "museum",
    "hotel",
    "river",
    "city",
    "review",
    "listing",
    "menu",
    "opening",
    "gallery",
    "bridge",
    "market",
];

/// The mmap-serving experiment report.
#[derive(Debug, Clone)]
pub struct MmapReport {
    /// Pages in the snapshot.
    pub pages: usize,
    /// Snapshot file size.
    pub snapshot_bytes: u64,
    /// Cold start-to-first-query, mapped: open + index verify + search.
    pub mapped_first_query: Duration,
    /// Cold start-to-first-query, eager: read + decode + search.
    pub eager_first_query: Duration,
    /// `eager_first_query / mapped_first_query` — the ≥ 5× claim.
    pub open_speedup: f64,
    /// Steady-state per-query p50, mapped backend.
    pub mapped_p50: Duration,
    /// Steady-state per-query p99, mapped backend.
    pub mapped_p99: Duration,
    /// Steady-state per-query p50, heap-resident index.
    pub heap_p50: Duration,
    /// Steady-state per-query p99, heap-resident index.
    pub heap_p99: Duration,
    /// `mapped_p50 / heap_p50`.
    pub steady_ratio_p50: f64,
    /// `mapped_p99 / heap_p99`.
    pub steady_ratio_p99: f64,
    /// Page-text hydrations after the `search_results` pass (one per
    /// displayed hit — never the whole corpus).
    pub hydrations: u64,
    /// `resident side tables / snapshot_bytes` after all passes.
    pub resident_fraction: f64,
    /// Whether a real kernel mapping backed the run (`false` under the
    /// `TEDA_MMAP_FALLBACK` heap-fallback gate).
    pub kernel_mapped: bool,
    /// (query, k) pairs probed across all identity checks.
    pub queries_probed: usize,
    /// Mapped backend == eager corpus on every plain probe.
    pub mapped_identical: bool,
    /// Segmented-over-mapped == segmented-over-heap == rebuild on every
    /// probe, with live deltas applied, and again after compaction.
    pub overlay_identical: bool,
    /// Peak-RSS comparisons, smallest corpus first (see [`measure_rss`]).
    pub rss: Vec<Rss>,
}

/// One mapped-vs-eager peak-RSS comparison over a fresh store.
#[derive(Debug, Clone, Copy)]
pub struct Rss {
    pub pages: usize,
    pub mapped_kb: u64,
    pub eager_kb: u64,
}

/// Synthetic pages with long bodies: ~240 words each, so page text
/// dwarfs the index and "decode everything" visibly loses to "map and
/// touch what the query needs". Each page also carries a sparse tag
/// term (`tag17` …) so probes can hit small posting lists.
pub fn synthetic_pages(n: usize) -> Vec<WebPage> {
    (0..n)
        .map(|i| {
            let mut body = String::with_capacity(2048);
            for j in 0..240 {
                body.push_str(VOCAB[(i * 7 + j * 13) % VOCAB.len()]);
                body.push(' ');
            }
            body.push_str(&format!("tag{}", i % 97));
            WebPage {
                url: format!("http://mapped/{i}"),
                title: format!("Mapped corpus page {i}"),
                body,
            }
        })
        .collect()
}

/// Probe queries: high-df vocabulary, sparse tags, and a guaranteed
/// miss, crossed with [`PROBE_KS`].
const PROBE_QUERIES: [&str; 6] = [
    "restaurant city review",
    "museum gallery",
    "tag17",
    "tag3 bridge market",
    "menu listing opening",
    "zzz-no-such-term",
];
const PROBE_KS: [usize; 3] = [1, 3, 10];

/// Corpus size per scale. Standard is big enough that the eager decode
/// is visibly O(file); quick keeps the CI smoke under a second.
fn n_pages(scale: Scale) -> usize {
    match scale {
        Scale::Standard => 6_000,
        Scale::Quick => 1_500,
    }
}

/// Runs the experiment in a scratch directory (wiped before and after).
pub fn run(scale: Scale) -> MmapReport {
    let dir = std::env::temp_dir().join(format!("teda_exp_mmap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let pages = synthetic_pages(n_pages(scale));
    let corpus = WebCorpus::from_pages(pages.clone());
    let store = CorpusStore::open(&dir).expect("open store");
    store.save(&corpus).expect("save snapshot");
    let snapshot_bytes = std::fs::metadata(store.snapshot_path())
        .expect("snapshot exists")
        .len();

    // Claim 1: cold start-to-first-query, mapped vs eager. `best_of`
    // keeps the file in page cache for both sides, so the comparison
    // isolates the work each path *does* (verify index sections vs
    // decode the whole corpus), not disk speed.
    let first_probe = ("restaurant city review", 10usize);
    let (mapped_first_query, _) = best_of(REPS, || {
        let snap = store.open_mapped().expect("map snapshot");
        let backend = ViewBackend::new(snap).expect("verify index half");
        std::hint::black_box(backend.search(first_probe.0, first_probe.1));
    });
    let (eager_first_query, _) = best_of(REPS, || {
        let bytes = std::fs::read(store.snapshot_path()).expect("read snapshot");
        let eager = decode_corpus(&bytes).expect("eager decode");
        std::hint::black_box(eager.index().search(first_probe.0, first_probe.1));
    });
    let open_speedup = eager_first_query.as_secs_f64() / mapped_first_query.as_secs_f64().max(1e-9);

    // Claim 3a: plain bit identity, every probe.
    let snap = store.open_mapped().expect("map snapshot");
    let backend = ViewBackend::new(Arc::clone(&snap)).expect("verify index half");
    let kernel_mapped = snap.is_kernel_mapped();
    let mut queries_probed = 0usize;
    let mut mapped_identical = true;
    for (query, k) in probes(&PROBE_QUERIES, &PROBE_KS) {
        queries_probed += 1;
        mapped_identical &=
            bits(&backend.search(&query, k)) == bits(&corpus.index().search(&query, k));
    }

    // Claim 2: steady-state per-query latency, mapped vs heap index.
    let probe_set = probes(&PROBE_QUERIES, &PROBE_KS);
    let steady = |f: &mut dyn FnMut(&str, usize)| -> (Duration, Duration) {
        let mut samples = Vec::with_capacity(STEADY_ROUNDS * probe_set.len());
        for _ in 0..STEADY_ROUNDS {
            for (query, k) in &probe_set {
                let t0 = Instant::now();
                f(query, *k);
                samples.push(t0.elapsed().as_secs_f64());
            }
        }
        samples.sort_by(f64::total_cmp);
        let at = |q| Duration::from_secs_f64(percentile_sorted(&samples, q));
        (at(0.50), at(0.99))
    };
    let (mapped_p50, mapped_p99) = steady(&mut |q, k| {
        std::hint::black_box(backend.search(q, k));
    });
    let (heap_p50, heap_p99) = steady(&mut |q, k| {
        std::hint::black_box(corpus.index().search(q, k));
    });
    let steady_ratio_p50 = mapped_p50.as_secs_f64() / heap_p50.as_secs_f64().max(1e-9);
    let steady_ratio_p99 = mapped_p99.as_secs_f64() / heap_p99.as_secs_f64().max(1e-9);

    // Lazy hydration: displaying hits materializes exactly those hits'
    // text; the side tables stay a small fraction of the file.
    let shown = backend.search_results("restaurant city review", 10);
    assert!(!shown.is_empty(), "probe query must hit");
    let hydrations = snap.hydrations();
    let resident_fraction = snap.resident_bytes() as f64 / snapshot_bytes as f64;

    // Claim 3b: overlays on the mapping — live adds and removes — stay
    // bit-identical to the heap path and to a full rebuild, before and
    // after compaction folds the journal.
    let added: Vec<WebPage> = (0..40)
        .map(|i| WebPage {
            url: format!("http://overlay/{i}"),
            title: format!("Overlay page {i}"),
            body: format!("overlay update {i} restaurant museum tag{} river", i % 7),
        })
        .collect();
    store.add_pages(&added).expect("journal adds");
    let removed: Vec<String> = pages.iter().take(25).map(|p| p.url.clone()).collect();
    store.remove_pages(&removed).expect("journal removals");

    let mut overlay_identical = true;
    let mut check_overlays = |store: &CorpusStore| {
        let over_mapped = store.load_segmented_mapped().expect("mapped open").corpus;
        let over_heap = store.load_segmented().expect("heap open").corpus;
        let oracle = WebCorpus::from_pages(over_heap.to_pages());
        for (query, k) in probes(&PROBE_QUERIES, &PROBE_KS) {
            queries_probed += 1;
            let want = bits(&oracle.index().search(&query, k));
            overlay_identical &= bits(&over_mapped.search(&query, k)) == want;
            overlay_identical &= bits(&over_heap.search(&query, k)) == want;
        }
        overlay_identical &= over_mapped.to_pages() == over_heap.to_pages();
    };
    check_overlays(&store);
    store.compact_in_place().expect("compact");
    check_overlays(&store);

    let _ = std::fs::remove_dir_all(&dir);
    MmapReport {
        pages: pages.len(),
        snapshot_bytes,
        mapped_first_query,
        eager_first_query,
        open_speedup,
        mapped_p50,
        mapped_p99,
        heap_p50,
        heap_p99,
        steady_ratio_p50,
        steady_ratio_p99,
        hydrations,
        resident_fraction,
        kernel_mapped,
        queries_probed,
        mapped_identical,
        overlay_identical,
        rss: Vec::new(),
    }
}

/// Renders the report.
pub fn render(r: &MmapReport) -> String {
    let ms = |d: Duration| format!("{:.2} ms", d.as_secs_f64() * 1e3);
    let us = |d: Duration| format!("{:.1} us", d.as_secs_f64() * 1e6);
    let mut out =
        String::from("Mmap'd serving: cold start-to-first-query, steady state, bit identity.\n");
    let mut tbl = TextTable::new(vec!["Metric", "Value"]);
    tbl.align(1, Align::Right);
    tbl.row(vec![
        "corpus".into(),
        format!(
            "{} pages, {:.1} MiB snapshot",
            r.pages,
            r.snapshot_bytes as f64 / (1024.0 * 1024.0)
        ),
    ]);
    tbl.row(vec!["first query, mapped".into(), ms(r.mapped_first_query)]);
    tbl.row(vec!["first query, eager".into(), ms(r.eager_first_query)]);
    tbl.row(vec![
        "open speedup".into(),
        format!("{:.1}x", r.open_speedup),
    ]);
    tbl.row(vec![
        "steady p50 mapped / heap".into(),
        format!(
            "{} / {} ({:.2}x)",
            us(r.mapped_p50),
            us(r.heap_p50),
            r.steady_ratio_p50
        ),
    ]);
    tbl.row(vec![
        "steady p99 mapped / heap".into(),
        format!(
            "{} / {} ({:.2}x)",
            us(r.mapped_p99),
            us(r.heap_p99),
            r.steady_ratio_p99
        ),
    ]);
    tbl.row(vec![
        "page hydrations".into(),
        format!("{} (displayed hits only)", r.hydrations),
    ]);
    tbl.row(vec![
        "resident side tables".into(),
        format!("{:.1}% of the file", r.resident_fraction * 100.0),
    ]);
    tbl.row(vec!["kernel mapping".into(), r.kernel_mapped.to_string()]);
    tbl.row(vec![
        "mapped == eager".into(),
        r.mapped_identical.to_string(),
    ]);
    tbl.row(vec![
        "overlays == rebuild".into(),
        format!(
            "{} ({} probes, incl. deltas + post-compaction)",
            r.overlay_identical, r.queries_probed
        ),
    ]);
    out.push_str(&tbl.render());
    for rss in &r.rss {
        out.push_str(&format!(
            "peak RSS over {} pages: mapped {} KiB, eager {} KiB\n",
            rss.pages, rss.mapped_kb, rss.eager_kb
        ));
    }
    out.push_str(
        "(the mapped open verifies only the index sections — page text is CRC'd \
         on first display access and hydrated per hit, so start-up and RSS track \
         what queries touch, not corpus size)\n",
    );
    out
}

/// The machine-readable record (satellite of the human table).
pub fn to_json(r: &MmapReport) -> crate::report::BenchJson {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let mut json = crate::report::BenchJson::new("mmap");
    json.metric("pages", r.pages as f64, "pages")
        .metric("snapshot_bytes", r.snapshot_bytes as f64, "bytes")
        .metric("mapped_first_query", ms(r.mapped_first_query), "ms")
        .metric("eager_first_query", ms(r.eager_first_query), "ms")
        .metric("open_speedup", r.open_speedup, "x")
        .metric("mapped_p50", ms(r.mapped_p50), "ms")
        .metric("mapped_p99", ms(r.mapped_p99), "ms")
        .metric("heap_p50", ms(r.heap_p50), "ms")
        .metric("heap_p99", ms(r.heap_p99), "ms")
        .metric("steady_ratio_p50", r.steady_ratio_p50, "x")
        .metric("steady_ratio_p99", r.steady_ratio_p99, "x")
        .metric("hydrations", r.hydrations as f64, "pages")
        .metric("resident_fraction", r.resident_fraction, "fraction")
        .metric("kernel_mapped", flag(r.kernel_mapped), "bool")
        .metric("queries_probed", r.queries_probed as f64, "queries")
        .metric("mapped_identical", flag(r.mapped_identical), "bool")
        .metric("overlay_identical", flag(r.overlay_identical), "bool");
    for (rss, suffix) in r.rss.iter().zip(["", "_large"]) {
        json.metric(
            &format!("rss_mapped{suffix}_kb"),
            rss.mapped_kb as f64,
            "KiB",
        )
        .metric(&format!("rss_eager{suffix}_kb"), rss.eager_kb as f64, "KiB");
    }
    json
}

/// The mmap-serving claims. The peak-RSS claims are there only when
/// [`measure_rss`] could probe: at the small size mapped must already
/// beat eager; between the sizes the mapped peak must grow by less than
/// half the eager growth (sublinear — the mapping only faults in what
/// queries touch).
pub fn claims(r: &MmapReport) -> Vec<Claim> {
    let mut claims = vec![
        Claim::exact(
            "mapped_identical",
            r.mapped_identical,
            "mapped top-k diverged from the eager corpus",
        ),
        Claim::exact(
            "overlay_identical",
            r.overlay_identical,
            "overlaid mapped reads diverged from the rebuild",
        ),
        Claim::exact(
            "hydrations > 0",
            r.hydrations > 0,
            "displayed hits must hydrate",
        ),
        Claim::exact(
            "hydrations < pages",
            (r.hydrations as usize) < r.pages,
            format!(
                "hydration must stay per-hit, not corpus-wide: {} of {} pages",
                r.hydrations, r.pages
            ),
        ),
        Claim::exact(
            "resident_fraction < 0.5",
            r.resident_fraction < 0.5,
            format!(
                "resident side tables must stay well below the file size, got {:.2}",
                r.resident_fraction
            ),
        ),
        Claim::timed(
            "open_speedup >= 5",
            r.open_speedup >= 5.0,
            format!(
                "mapped start-to-first-query must be >= 5x eager decode, got {:.1}x",
                r.open_speedup
            ),
        ),
        Claim::timed(
            "steady_ratio_p50 <= 8",
            r.steady_ratio_p50 <= 8.0,
            format!(
                "steady-state p50 must stay within 8x of the heap index, got {:.2}x",
                r.steady_ratio_p50
            ),
        ),
        Claim::timed(
            "steady_ratio_p99 <= 10",
            r.steady_ratio_p99 <= 10.0,
            format!(
                "steady-state p99 must stay within 10x of the heap index, got {:.2}x",
                r.steady_ratio_p99
            ),
        ),
    ];
    for rss in &r.rss {
        claims.push(Claim::timed(
            "rss mapped < eager",
            rss.mapped_kb < rss.eager_kb,
            format!(
                "mapped peak RSS ({} KiB) must be strictly below eager ({} KiB) over {} pages",
                rss.mapped_kb, rss.eager_kb, rss.pages
            ),
        ));
    }
    if let [small, large] = r.rss[..] {
        let mapped_delta = large.mapped_kb.saturating_sub(small.mapped_kb) as f64;
        let eager_delta = large.eager_kb.saturating_sub(small.eager_kb) as f64;
        claims.push(Claim::timed(
            "rss growth sublinear",
            mapped_delta < 0.5 * eager_delta,
            format!(
                "mapped RSS growth ({mapped_delta} KiB) must be sublinear vs eager ({eager_delta} KiB)"
            ),
        ));
    }
    claims
}

/// One mapped-vs-eager comparison over a fresh store of `n` pages, or
/// `None` where procfs or re-execution is unavailable.
fn rss_comparison(dir: &std::path::Path, n: usize) -> Option<Rss> {
    let _ = std::fs::remove_dir_all(dir);
    let store = CorpusStore::open(dir).expect("open store");
    store
        .save(&WebCorpus::from_pages(synthetic_pages(n)))
        .expect("save snapshot");
    Some(Rss {
        pages: n,
        mapped_kb: probe_peak_rss("mapped", dir)?,
        eager_kb: probe_peak_rss("eager", dir)?,
    })
}

/// The peak-RSS comparisons, in child processes of the running binary
/// (which must answer `--rss-probe`, as every experiment binary does).
/// Sizes are chosen so the corpus dwarfs the ~few-MiB process baseline;
/// the quick run compares one size, the full run adds a larger corpus
/// for the sublinear-growth claim. Empty where the probes are
/// unavailable: the claims are then skipped, not faked.
pub fn measure_rss(scale: Scale) -> Vec<Rss> {
    let dir = std::env::temp_dir().join(format!("teda_exp_mmap_rss_{}", std::process::id()));
    let sizes: &[usize] = match scale {
        Scale::Quick => &[4_000],
        Scale::Standard => &[6_000, 18_000],
    };
    let mut rss = Vec::new();
    for &n in sizes {
        match rss_comparison(&dir, n) {
            Some(comparison) => rss.push(comparison),
            None if rss.is_empty() => {
                log(
                    "exp_mmap",
                    "peak-RSS probes unavailable here; skipping the RSS claims",
                );
                break;
            }
            None => panic!("peak-RSS probes worked at {} pages, not at {n}", sizes[0]),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    rss
}

/// This process's peak resident set (`VmHWM`) in KiB, from
/// `/proc/self/status`. `None` where procfs is unavailable — RSS
/// assertions are skipped there, never faked.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The probe-child workload: open the store at `dir` in the given mode
/// (`"mapped"` or `"eager"`), answer the full probe set, and print
/// `peak_rss_kb=<n>`. Runs inside a fresh process because `VmHWM` is
/// monotone — a parent that ran the eager path even once can never
/// observe a lower mapped peak.
///
/// The workload is the ranking path (`search`), which is where the
/// sublinear-RSS claim lives: a mapped ranker faults in only the index
/// sections, while the eager load materializes the whole file. Display
/// hydration is deliberately excluded — the first `search_results`
/// CRC-verifies the pages section, a one-time sweep over the bulk of
/// the mapping (per-section checksum granularity), after which RSS is
/// bounded by the file rather than staying index-sized. That cost is
/// page-cache pressure, not heap, but `VmHWM` cannot tell the two
/// apart.
pub fn rss_probe(mode: &str, dir: &std::path::Path) {
    let store = CorpusStore::open(dir).expect("open store");
    match mode {
        "mapped" => {
            let snap = store.open_mapped().expect("map snapshot");
            let backend = ViewBackend::new(snap).expect("verify index half");
            for (query, k) in probes(&PROBE_QUERIES, &PROBE_KS) {
                std::hint::black_box(backend.search(&query, k));
            }
        }
        "eager" => {
            let corpus = store.load().expect("eager load").corpus;
            for (query, k) in probes(&PROBE_QUERIES, &PROBE_KS) {
                std::hint::black_box(corpus.index().search(&query, k));
            }
        }
        other => panic!("unknown rss probe mode {other:?}"),
    }
    match peak_rss_kb() {
        Some(kb) => println!("peak_rss_kb={kb}"),
        None => println!("peak_rss_kb=unavailable"),
    }
}

/// Spawns this binary as an RSS probe child over `dir` and parses its
/// peak. `None` when procfs (or re-execution) is unavailable.
fn probe_peak_rss(mode: &str, dir: &std::path::Path) -> Option<u64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg("--rss-probe")
        .arg(mode)
        .arg(dir)
        .output()
        .ok()?;
    assert!(
        out.status.success(),
        "rss probe child ({mode}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_kb="))?;
    value.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::assert_exact;

    #[test]
    fn mmap_experiment_asserts_its_own_invariants() {
        let r = run(Scale::Quick);
        assert_exact(&claims(&r));
        assert!(render(&r).contains("open speedup"));
        assert!(to_json(&r).render().contains("\"open_speedup\""));
    }
}
