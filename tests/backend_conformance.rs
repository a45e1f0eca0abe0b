//! The shared [`SearchBackend`] conformance suite.
//!
//! Every backend in the system promises the same observable behaviour:
//! identical logical corpora produce bit-identical rankings (BM25 score
//! bits, ties by ascending page id) and identical assembled results.
//! This harness states that promise *once* — [`assert_conforms`] — and
//! runs every implementation through it against a single oracle, the
//! from-scratch [`WebCorpus`] rebuild of the logical page list, ranked
//! by its full-sort reference (a fresh score buffer per query, so the
//! oracle shares no scratch with the backends it checks):
//!
//! * [`WebCorpus`] itself (eager heap index), fresh and store-loaded;
//! * [`SegmentedCorpus`] layering journal segments over a heap base;
//! * `ViewBackend` serving straight from the mmap'd snapshot; and
//! * [`SegmentedCorpus`] layering the same segments over the mapped
//!   view — the beyond-RAM serving configuration; and
//! * `ShardBackend` shards of the oracle, heap-resident and mmap'd,
//!   their per-shard rankings merged with `merge_topk`.
//!
//! Every backend's batch path, `search_many`, must also answer a batch
//! exactly as the per-query `search_results` loop does
//! ([`assert_batch_conforms`]), for `SwappableBackend` and the cluster
//! router too. Every flavour that can fetch pages by id (`WebCorpus` and
//! the shards) must hydrate a ranking's ids into exactly the fields
//! `search_results` assembles ([`assert_fetch_conforms`]); the others
//! refuse every id.
//!
//! A property test drives all of them through the same random
//! `(base, ops, query, k)` space, before and after tier compaction, so
//! a ranking divergence in any backend fails here with the offending
//! backend named, rather than surfacing as a flaky end-to-end diff.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use teda::store::{CorpusStore, DeltaOp, TierPolicy, ViewBackend};
use teda::websim::{
    merge_topk, PageId, SearchBackend, SearchResult, SwappableBackend, WebCorpus, WebPage,
};

/// Small closed vocabulary: queries hit often, scores collide often —
/// the regime where tie-breaking bugs actually show up.
const VOCAB: [&str; 12] = [
    "harbor", "museum", "jazz", "espresso", "quartet", "granite", "lantern", "orchard", "velvet",
    "cinnamon", "atlas", "meridian",
];

fn synth_words(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| *VOCAB.choose(rng).expect("vocab is non-empty"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn synth_page(rng: &mut StdRng, url: &str) -> WebPage {
    let n_title = rng.gen_range(1..=3);
    let n_body = rng.gen_range(4..=12);
    WebPage {
        url: url.into(),
        title: synth_words(rng, n_title),
        body: synth_words(rng, n_body),
    }
}

/// Single terms, multi-term queries, an unknown term, the empty query.
fn probes() -> Vec<String> {
    let mut probes: Vec<String> = VOCAB.iter().take(6).map(|w| (*w).to_string()).collect();
    probes.push("harbor museum jazz".into());
    probes.push("espresso quartet granite".into());
    probes.push("zanzibar xylophone".into());
    probes.push(String::new());
    probes
}

const KS: [usize; 4] = [1, 3, 10, 100];

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("teda_conform_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A ranked list as exact `(id, score bits)` pairs.
fn to_bits(hits: &[(PageId, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

/// The oracle's ranking of `(q, k)`, checked against the full-sort
/// reference first. The reference accumulates into a fresh buffer, so a
/// backend compared with it is not checked against the per-thread
/// scratch the backend itself ranks through.
fn oracle_ranking(oracle: &WebCorpus, q: &str, k: usize) -> Vec<(PageId, f64)> {
    let want = oracle.index().search_full_sort(q, k);
    assert_eq!(
        to_bits(&oracle.index().search(q, k)),
        to_bits(&want),
        "oracle: scratch ranking diverged from the full-sort reference on {q:?} k {k}"
    );
    want
}

/// The conformance oracle: `backend` must agree with the from-scratch
/// rebuild on every probe at every depth — ranked `(id, score)` pairs
/// compared as exact bit patterns against the full-sort reference,
/// assembled results compared field by field — and on the document
/// count.
fn assert_conforms(oracle: &WebCorpus, backend: &dyn SearchBackend, label: &str) {
    assert_eq!(
        backend.n_docs(),
        oracle.pages().len(),
        "{label}: document count diverged from the oracle"
    );
    for q in probes() {
        for k in KS {
            let want = oracle_ranking(oracle, &q, k);
            let got = backend.search(&q, k);
            assert_eq!(
                to_bits(&got),
                to_bits(&want),
                "{label}: ranking diverged on {q:?} k {k}"
            );
            assert_eq!(
                backend.search_results(&q, k),
                oracle.search_results(&q, k),
                "{label}: assembled results diverged on {q:?} k {k}"
            );
        }
    }
}

/// `backend.search_many(batch)`, each answer placed at its position;
/// every position must be answered exactly once.
fn answers_of(backend: &dyn SearchBackend, batch: &[(&str, usize)]) -> Vec<Vec<SearchResult>> {
    let mut answers = vec![None; batch.len()];
    backend.search_many(batch, &mut |i, results| {
        assert!(
            answers[i].replace(results).is_none(),
            "query {i} answered twice"
        );
    });
    answers
        .into_iter()
        .enumerate()
        .map(|(i, answer)| answer.unwrap_or_else(|| panic!("query {i} never answered")))
        .collect()
}

/// The batch oracle: one `search_many` over every probe at every depth,
/// with a repeated query, the empty query and `k = 0` among them,
/// answers exactly what the per-query `search_results` loop answers;
/// an empty batch answers nothing. Returns whether `backend` fetches
/// pages by id ([`assert_fetch_conforms`]).
fn assert_batch_conforms(backend: &dyn SearchBackend, label: &str) -> bool {
    let probes = probes();
    let mut batch: Vec<(&str, usize)> = probes
        .iter()
        .flat_map(|q| KS.iter().map(move |&k| (q.as_str(), k)))
        .collect();
    batch.extend([(probes[0].as_str(), 10), ("", 3), (probes[1].as_str(), 0)]);
    let want: Vec<Vec<SearchResult>> = batch
        .iter()
        .map(|&(q, k)| backend.search_results(q, k))
        .collect();
    assert_eq!(
        answers_of(backend, &batch),
        want,
        "{label}: search_many diverged from the per-query loop"
    );
    backend.search_many(&[], &mut |i, _| panic!("{label}: empty batch answered {i}"));
    assert_fetch_conforms(backend, label)
}

/// The fetch oracle: a flavour that fetches (it accepts the empty id
/// list) hydrates every probe's ranked ids, in rank order and ascending,
/// into exactly the fields `search_results` assembles for that probe,
/// and refuses an id past its pages; a flavour that does not refuses
/// every id. Returns whether `backend` fetches.
fn assert_fetch_conforms(backend: &dyn SearchBackend, label: &str) -> bool {
    let fetches = backend.fetch(&[]).is_ok();
    for q in probes() {
        for k in KS {
            let ids: Vec<PageId> = backend
                .search(&q, k)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            if !fetches {
                assert!(backend.fetch(&ids).is_err(), "{label}: fetched {q:?} k {k}");
                continue;
            }
            let results = backend.search_results(&q, k);
            assert_eq!(
                backend
                    .fetch(&ids)
                    .expect("a fetching flavour holds its own ids"),
                results,
                "{label}: fetched fields diverged from search_results on {q:?} k {k}"
            );
            let mut ascending: Vec<(PageId, SearchResult)> = ids.into_iter().zip(results).collect();
            ascending.sort_by_key(|&(id, _)| id);
            let (ids, results): (Vec<PageId>, Vec<SearchResult>) = ascending.into_iter().unzip();
            assert_eq!(
                backend.fetch(&ids).expect("ascending ids"),
                results,
                "{label}: ascending fetch diverged on {q:?} k {k}"
            );
        }
    }
    assert!(
        backend.fetch(&[PageId(u32::MAX)]).is_err(),
        "{label}: fetched a page past the corpus"
    );
    fetches
}

/// Partitions the oracle into `n_shards` shard images under `root` and
/// checks the scatter-gather ranking without the wire: every shard
/// opened heap-resident and mmap'd, the per-shard `search` lists merged
/// with `merge_topk`, score bits compared with the oracle at every
/// probe and depth.
fn assert_shards_conform(oracle: &WebCorpus, n_shards: u32, root: &std::path::Path) {
    use teda::cluster::{partition_corpus, ShardBackend};

    let dirs = partition_corpus(oracle, n_shards, root).expect("partition");
    for mapped in [false, true] {
        let shards: Vec<ShardBackend> = dirs
            .iter()
            .map(|d| {
                if mapped {
                    ShardBackend::open_mapped(d)
                } else {
                    ShardBackend::open(d)
                }
                .expect("open shard")
            })
            .collect();
        for (i, shard) in shards.iter().enumerate() {
            let label = format!("shard {i}/{n_shards}, mapped {mapped}");
            assert!(
                assert_batch_conforms(shard, &label),
                "{label}: a shard fetches"
            );
        }
        for q in probes() {
            for k in KS {
                let want = oracle_ranking(oracle, &q, k);
                let got = merge_topk(shards.iter().map(|s| s.search(&q, k)), k);
                assert_eq!(
                    to_bits(&got),
                    to_bits(&want),
                    "{n_shards} shard(s), mapped {mapped}: merged ranking diverged on {q:?} k {k}"
                );
            }
        }
    }
}

/// Opens every backend configuration the store can serve and runs each
/// through the oracle.
fn assert_all_backends_conform(store: &CorpusStore, oracle: &WebCorpus, when: &str) {
    let eager = store.load().expect("eager load");
    assert_conforms(oracle, &eager.corpus, &format!("{when}: eager WebCorpus"));
    assert!(
        assert_batch_conforms(&eager.corpus, &format!("{when}: eager WebCorpus")),
        "{when}: a WebCorpus fetches"
    );
    let swappable = SwappableBackend::new(std::sync::Arc::new(eager.corpus));
    assert!(
        !assert_batch_conforms(&swappable, &format!("{when}: SwappableBackend")),
        "{when}: a SwappableBackend refuses to fetch"
    );

    let seg = store.load_segmented().expect("segmented load");
    assert_conforms(
        oracle,
        &seg.corpus,
        &format!("{when}: SegmentedCorpus over heap base"),
    );
    assert_batch_conforms(
        &seg.corpus,
        &format!("{when}: SegmentedCorpus over heap base"),
    );

    let mapped = store.load_segmented_mapped().expect("mapped load");
    assert_conforms(
        oracle,
        &mapped.segmented.corpus,
        &format!("{when}: SegmentedCorpus over mapped view"),
    );
    assert_batch_conforms(
        &mapped.segmented.corpus,
        &format!("{when}: SegmentedCorpus over mapped view"),
    );

    // The raw view backend sees only the base snapshot, so it conforms
    // to the *base* oracle — the journal-free part of the store.
    let base = mapped
        .snapshot
        .materialize()
        .expect("snapshot materializes");
    let view = ViewBackend::new(mapped.snapshot).expect("view over verified snapshot");
    assert_conforms(
        &base,
        &view,
        &format!("{when}: ViewBackend over base snapshot"),
    );
    assert_batch_conforms(&view, &format!("{when}: ViewBackend over base snapshot"));
}

/// The fixed-seed smoke: one interesting journal (adds and removes),
/// every backend, before and after both compaction flavours.
#[test]
fn every_backend_conforms_through_a_mixed_journal_and_compaction() {
    let mut rng = StdRng::seed_from_u64(7);
    let base_pages: Vec<WebPage> = (0..8)
        .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
        .collect();
    let dir = temp_store("smoke");
    let store = CorpusStore::open(&dir).expect("open");
    store
        .save(&WebCorpus::from_pages(base_pages.clone()))
        .expect("save");

    let mut logical = base_pages;
    let segments: Vec<Vec<DeltaOp>> = vec![
        vec![DeltaOp::AddPages(
            (0..3)
                .map(|i| synth_page(&mut rng, &format!("http://delta/a/{i}")))
                .collect(),
        )],
        vec![DeltaOp::RemovePages(vec![
            logical[1].url.clone(),
            logical[5].url.clone(),
        ])],
        vec![DeltaOp::AddPages(
            (0..2)
                .map(|i| synth_page(&mut rng, &format!("http://delta/b/{i}")))
                .collect(),
        )],
    ];
    for ops in &segments {
        for op in ops {
            op.apply(&mut logical);
        }
        store.append_segment(ops).expect("append");
    }
    let oracle = WebCorpus::from_pages(logical);

    assert_all_backends_conform(&store, &oracle, "pre-compaction");

    store
        .maybe_compact(TierPolicy {
            max_segments: 2,
            fanout: 2,
            max_removed: 0,
        })
        .expect("tiered compaction");
    assert_all_backends_conform(&store, &oracle, "post-tier-compaction");

    store.compact_in_place().expect("full fold");
    assert!(store.delta_segments().expect("list").is_empty());
    assert_all_backends_conform(&store, &oracle, "post-full-compaction");
    // With the journal folded away, the raw mapped view *is* the whole
    // logical corpus.
    let snapshot = store.open_mapped().expect("open mapped");
    let view = ViewBackend::new(snapshot).expect("view");
    assert_conforms(&oracle, &view, "post-full-compaction: bare ViewBackend");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scatter-gather router is a [`SearchBackend`] like any other —
/// so it faces the same oracle, probe for probe, depth for depth, at
/// several shard counts, over real TCP. This is the issue's headline
/// invariant: the cluster is bit-identical to the single node.
#[test]
fn the_cluster_router_conforms_like_any_single_node_backend() {
    use teda::cluster::{partition_corpus, ClusterRouter, RouterConfig, ShardServer};

    let mut rng = StdRng::seed_from_u64(13);
    let pages: Vec<WebPage> = (0..17)
        .map(|i| synth_page(&mut rng, &format!("http://cluster/{i}")))
        .collect();
    let oracle = WebCorpus::from_pages(pages);

    for n_shards in [1u32, 2, 3] {
        let root = temp_store(&format!("router_{n_shards}"));
        let dirs = partition_corpus(&oracle, n_shards, &root).expect("partition");
        let servers: Vec<ShardServer> = dirs
            .iter()
            .enumerate()
            .map(|(i, d)| ShardServer::start(d, i % 2 == 0, "127.0.0.1:0").expect("serve"))
            .collect();
        let topology: Vec<Vec<std::net::SocketAddr>> =
            servers.iter().map(|s| vec![s.local_addr()]).collect();
        let router =
            ClusterRouter::connect(&topology, RouterConfig::default()).expect("connect router");
        assert_conforms(
            &oracle,
            &router,
            &format!("ClusterRouter over {n_shards} shard(s)"),
        );
        assert_batch_conforms(&router, &format!("ClusterRouter over {n_shards} shard(s)"));
        for s in servers {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

proptest::proptest! {
    /// Random `(base, ops)` histories: every backend configuration the
    /// store serves conforms to the rebuild oracle at every probe and
    /// depth, before and after a random tight compaction.
    #[test]
    fn random_histories_conform_across_every_backend(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_base = rng.gen_range(3..=10usize);
        let base_pages: Vec<WebPage> = (0..n_base)
            .map(|i| synth_page(&mut rng, &format!("http://base/{i}")))
            .collect();
        let dir = temp_store(&format!("prop_{seed}"));
        let store = CorpusStore::open(&dir).expect("open");
        store
            .save(&WebCorpus::from_pages(base_pages.clone()))
            .expect("save");

        let mut logical = base_pages;
        for s in 0..rng.gen_range(1..=4usize) {
            let mut ops = Vec::new();
            for o in 0..rng.gen_range(1..=3usize) {
                if logical.is_empty() || rng.gen_bool(0.65) {
                    let pages: Vec<WebPage> = (0..rng.gen_range(1..=3usize))
                        .map(|i| synth_page(&mut rng, &format!("http://delta/{s}/{o}/{i}")))
                        .collect();
                    ops.push(DeltaOp::AddPages(pages));
                } else {
                    let mut urls: Vec<String> = (0..rng.gen_range(1..=2usize))
                        .filter_map(|_| logical.choose(&mut rng).map(|p| p.url.clone()))
                        .collect();
                    if rng.gen_bool(0.25) {
                        urls.push("http://nowhere/".into());
                    }
                    ops.push(DeltaOp::RemovePages(urls));
                }
            }
            for op in &ops {
                op.apply(&mut logical);
            }
            store.append_segment(&ops).expect("append");
        }
        let oracle = WebCorpus::from_pages(logical);

        assert_all_backends_conform(&store, &oracle, "pre-compaction");
        let shard_root = temp_store(&format!("prop_shards_{seed}"));
        // Drawn from the seed, not `rng`, so the history stream stays put.
        assert_shards_conform(&oracle, (seed % 3) as u32 + 1, &shard_root);
        let _ = std::fs::remove_dir_all(&shard_root);

        let policy = TierPolicy {
            max_segments: rng.gen_range(1..=3usize),
            fanout: rng.gen_range(2..=4usize),
            max_removed: if rng.gen_bool(0.5) { 0 } else { 1 << 20 },
        };
        store.maybe_compact(policy).expect("maybe_compact");
        assert_all_backends_conform(&store, &oracle, "post-compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
