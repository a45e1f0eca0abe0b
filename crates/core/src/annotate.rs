//! The annotation step (§5.2): search, classify, majority-vote.
//!
//! For each candidate cell the algorithm retrieves the top-k snippets,
//! classifies each one, and "the type t_max such that s_t_max > s_t, for
//! all t ∈ Γ, is selected as the type of the entity in T(i,j) provided
//! that s_t_max > k/2". The annotation score is Eq. 1: `S_ij = s_t / k`.
//!
//! Cells are independent of each other: the per-cell computation is pure
//! given the engine's response, and inference is `&self` over a frozen
//! vocabulary, so one classifier serves every table the batch engine
//! annotates concurrently. The cell enters only at the very end: the
//! [`Verdict`] over a result list names no cell, which is what lets the
//! batch engine keep it beside the memoized `(query, k)` results.
//!
//! A snippet's class is a pure function of its text and the classifier,
//! and a table corpus returns the same snippets for many queries, so the
//! batch engine also remembers the class of every snippet it has judged
//! ([`SnippetClassMemo`], used through [`memoized_verdict`]): a query
//! cache miss classifies only the snippets it has never seen.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use teda_kb::EntityType;
use teda_memo::{fnv1a, CacheStats, Shards};
use teda_obs::Counter;
use teda_tabular::{CellId, Table};
use teda_websim::{SearchEngine, SearchResult};

use crate::config::AnnotatorConfig;
use crate::model::SnippetClassifier;
use crate::query::SpatialContext;

/// One cell annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellAnnotation {
    /// The annotated cell.
    pub cell: CellId,
    /// The assigned type `t_max`.
    pub etype: EntityType,
    /// Eq. 1 score: `s_t / k`.
    pub score: f64,
    /// Raw snippet votes `s_t`.
    pub votes: usize,
}

/// The §5.2.1 verdict over one top-k result list: everything a
/// [`CellAnnotation`] carries except the cell.
///
/// A pure function of the result list, the classifier and the config,
/// so every cell whose query returns the same list gets the same
/// verdict; the query cache stores it beside the `(query, k)` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The assigned type `t_max`.
    pub etype: EntityType,
    /// Eq. 1 score: `s_t / k`.
    pub score: f64,
    /// Raw snippet votes `s_t`.
    pub votes: usize,
}

impl Verdict {
    /// The annotation of `cell` under this verdict.
    pub fn at(self, cell: CellId) -> CellAnnotation {
        CellAnnotation {
            cell,
            etype: self.etype,
            score: self.score,
            votes: self.votes,
        }
    }
}

/// Builds the search query for one cell: the raw content, suffixed with
/// the row's disambiguated city when spatial context is available
/// (§5.2.2).
pub fn build_cell_query(table: &Table, cell: CellId, spatial: Option<&SpatialContext>) -> String {
    match spatial {
        Some(ctx) => ctx.build_query(table, cell),
        None => table.cell_at(cell).to_owned(),
    }
}

/// Annotates one candidate cell: query → top-k snippets → vote.
pub fn annotate_cell<E: SearchEngine + ?Sized>(
    table: &Table,
    cell: CellId,
    engine: &E,
    classifier: &SnippetClassifier,
    spatial: Option<&SpatialContext>,
    config: &AnnotatorConfig,
) -> Option<CellAnnotation> {
    let query = build_cell_query(table, cell, spatial);
    if query.trim().is_empty() {
        return None;
    }
    let results = engine.search(&query, config.top_k);
    annotate_from_results(&results, cell, classifier, config)
}

/// Runs the voting rule over an already-retrieved result list and
/// attaches `cell`: [`verdict`] plus [`Verdict::at`].
pub fn annotate_from_results(
    results: &[SearchResult],
    cell: CellId,
    classifier: &SnippetClassifier,
    config: &AnnotatorConfig,
) -> Option<CellAnnotation> {
    verdict(results, classifier, config).map(|v| v.at(cell))
}

/// Runs the voting rule over an already-retrieved result list: `None`
/// when the list is empty or no type clears the threshold.
pub fn verdict(
    results: &[SearchResult],
    classifier: &SnippetClassifier,
    config: &AnnotatorConfig,
) -> Option<Verdict> {
    judge(results, classifier, config, |snippet| {
        classifier.classify(snippet)
    })
}

/// [`verdict`], with plain voting taking each snippet's class from
/// `memo` (which classifies a snippet only on its first sight). Equal to
/// [`verdict`] whenever every call on `memo` passes the same classifier.
/// Clustered voting needs each snippet's feature vector as well as its
/// class, so it classifies afresh.
pub fn memoized_verdict(
    results: &[SearchResult],
    classifier: &SnippetClassifier,
    config: &AnnotatorConfig,
    memo: &SnippetClassMemo,
) -> Option<Verdict> {
    judge(results, classifier, config, |snippet| {
        memo.class_of(classifier, snippet)
    })
}

/// The one voting body behind [`verdict`] and [`memoized_verdict`]:
/// `class_of` is the plain vote's per-snippet class.
fn judge(
    results: &[SearchResult],
    classifier: &SnippetClassifier,
    config: &AnnotatorConfig,
    class_of: impl FnMut(&str) -> Option<EntityType>,
) -> Option<Verdict> {
    if results.is_empty() {
        return None;
    }
    if config.use_clustering {
        vote_clustered(results, classifier, config)
    } else {
        vote_plain(results, class_of, config)
    }
}

/// Snippets a [`SnippetClassMemo`] remembers, at most.
pub const SNIPPET_MEMO_CAPACITY: usize = 16_384;

/// Text bytes a [`SnippetClassMemo`] budgets per snippet of its
/// capacity (a 20-word snippet of the synthetic Web averages 106).
const SNIPPET_MEMO_BYTES_PER_ENTRY: usize = 128;

/// Lock shards of a [`SnippetClassMemo`]; the capacity is split evenly
/// across them.
const SNIPPET_MEMO_SHARDS: usize = 16;

/// One shard of a [`SnippetClassMemo`]: the memoized snippets' text
/// back to back in one buffer, and an index from each snippet's
/// [`fnv1a`] hash to its bytes and class.
///
/// The index is keyed by the hash the shard was routed by, so a lookup
/// hashes the text once, and the buffer spares each snippet an
/// allocation of its own. The stored text settles a hash collision: the
/// later snippet replaces the entry, which costs a reclassification,
/// never a wrong class.
#[derive(Debug, Default)]
struct ClassShard {
    index: HashMap<u64, Entry, BuildHasherDefault<Prehashed>>,
    text: Vec<u8>,
}

/// A memoized snippet: where its text sits in the shard's buffer, and
/// its class.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: u32,
    len: u16,
    class: Option<EntityType>,
}

impl ClassShard {
    /// The class memoized for `snippet`, whose hash is `hash`.
    fn get(&self, hash: u64, snippet: &str) -> Option<Option<EntityType>> {
        let entry = self.index.get(&hash)?;
        let start = entry.start as usize;
        let text = self.text.get(start..start + usize::from(entry.len))?;
        (text == snippet.as_bytes()).then_some(entry.class)
    }
}

/// The hasher of a [`ClassShard`]'s index: its keys are already
/// hashes. The shard was chosen by the hash's low bits, so the index
/// takes its high half instead.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(bytes).rotate_left(32);
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash.rotate_left(32);
    }
}

/// A bounded, sharded memo of `snippet text → class`, for one
/// classifier.
///
/// Keyed by the text, not by the page it came from: a corpus publish
/// can change which snippets a query returns, never the class of a
/// text, so nothing but a new classifier makes an entry stale (and the
/// batch annotator that owns a memo owns its classifier too).
///
/// It holds at most [`SNIPPET_MEMO_CAPACITY`] snippets and 128 bytes of
/// text per snippet of that capacity (2 MiB); a shard that reaches its
/// share of either bound is flushed whole, which costs only
/// reclassifications. A snippet longer than 64 KiB is classified every
/// time. Two threads that miss on the same snippet both classify it and
/// store the same class.
#[derive(Debug)]
pub struct SnippetClassMemo {
    shards: Shards<ClassShard>,
    /// Entries a shard holds before it is flushed.
    per_shard_capacity: usize,
    /// Text bytes a shard holds before it is flushed (at least one
    /// snippet of the longest memoized length, at most `u32::MAX`).
    per_shard_bytes: usize,
    /// Snippets whose class came from the memo.
    hits: Arc<Counter>,
    /// Snippets classified.
    misses: Arc<Counter>,
    /// Entries dropped by shard flushes.
    evictions: Arc<Counter>,
}

impl Default for SnippetClassMemo {
    fn default() -> Self {
        SnippetClassMemo::new()
    }
}

impl SnippetClassMemo {
    /// An empty memo bounded to [`SNIPPET_MEMO_CAPACITY`] snippets.
    pub fn new() -> Self {
        SnippetClassMemo::with_capacity(Some(SNIPPET_MEMO_CAPACITY))
    }

    /// An empty memo bounded to `capacity` snippets (`None`: no entry
    /// bound, and no byte bound below 4 GiB per shard). For tests that
    /// drive the flush path or take the bound away; the batch annotator
    /// always uses [`new`](Self::new).
    #[doc(hidden)]
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        let (shards, per_shard_capacity) = match capacity {
            Some(cap) => {
                let n = SNIPPET_MEMO_SHARDS.clamp(1, cap.max(1));
                (n, cap.div_ceil(n).max(1))
            }
            None => (SNIPPET_MEMO_SHARDS, usize::MAX),
        };
        let per_shard_bytes = per_shard_capacity
            .saturating_mul(SNIPPET_MEMO_BYTES_PER_ENTRY)
            .clamp(usize::from(u16::MAX), u32::MAX as usize);
        SnippetClassMemo {
            shards: Shards::new(shards),
            per_shard_capacity,
            per_shard_bytes,
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
        }
    }

    /// Registers the memo's counters on a serving node's observability
    /// registry as `classify.hits`, `classify.misses` and
    /// `classify.evictions`.
    pub fn attach_obs(&self, obs: &teda_obs::Registry) {
        obs.register_counter("classify.hits", &self.hits);
        obs.register_counter("classify.misses", &self.misses);
        obs.register_counter("classify.evictions", &self.evictions);
    }

    /// The class of `snippet` under `classifier`, classifying it only if
    /// the memo does not hold it. Every call must pass the same
    /// classifier.
    pub fn class_of(&self, classifier: &SnippetClassifier, snippet: &str) -> Option<EntityType> {
        let hash = fnv1a(snippet.as_bytes());
        if let Some(class) = self.shards.lock_hashed(hash).get(hash, snippet) {
            self.hits.inc();
            return class;
        }
        self.misses.inc();
        let class = classifier.classify(snippet);
        let Ok(len) = u16::try_from(snippet.len()) else {
            return class;
        };
        let mut shard = self.shards.lock_hashed(hash);
        let full = shard.index.len() >= self.per_shard_capacity && !shard.index.contains_key(&hash);
        if full || shard.text.len() + snippet.len() > self.per_shard_bytes {
            self.evictions.add(shard.index.len() as u64);
            shard.index.clear();
            shard.text.clear();
        }
        if shard.text.capacity() == 0 {
            // The shard's whole byte budget in one allocation, so the
            // buffer never reallocates and never outgrows the bound;
            // pages not yet written stay unbacked. A budget above 1 MiB
            // (the test-only unbounded memo) grows past it as usual.
            shard.text.reserve_exact(self.per_shard_bytes.min(1 << 20));
        }
        let start = shard.text.len() as u32;
        shard.text.extend_from_slice(snippet.as_bytes());
        shard.index.insert(hash, Entry { start, len, class });
        class
    }

    /// Hits, misses and evictions so far (`expired` stays 0: no TTL).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            expired: 0,
        }
    }

    /// Number of snippets memoized.
    pub fn len(&self) -> usize {
        let mut total = 0;
        self.shards.for_each(|shard| total += shard.index.len());
        total
    }

    /// Whether nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Annotates the candidate cells of `table`.
///
/// `spatial` augments queries with row cities when provided (§5.2.2).
/// Returns one annotation per cell that clears the majority threshold.
pub fn annotate_cells<E: SearchEngine + ?Sized>(
    table: &Table,
    candidates: &[CellId],
    engine: &E,
    classifier: &SnippetClassifier,
    spatial: Option<&SpatialContext>,
    config: &AnnotatorConfig,
) -> Vec<CellAnnotation> {
    candidates
        .iter()
        .filter_map(|&cell| annotate_cell(table, cell, engine, classifier, spatial, config))
        .collect()
}

/// The §5.2.1 majority rule: `t_max` wins when `s_t_max > k/2`.
///
/// Votes are counted into a fixed array indexed by the type's
/// declaration order, so the count allocates nothing. The argmax scans
/// that array in ascending type order and keeps the first strict
/// maximum: the highest vote count wins, and the earliest type wins a
/// tie.
fn vote_plain(
    results: &[SearchResult],
    mut class_of: impl FnMut(&str) -> Option<EntityType>,
    config: &AnnotatorConfig,
) -> Option<Verdict> {
    let mut votes = [0usize; EntityType::ALL.len()];
    for r in results {
        if let Some(t) = class_of(&r.snippet) {
            if config.targets.contains(&t) {
                votes[t as usize] += 1;
            }
        }
    }
    let mut best: Option<(usize, usize)> = None;
    for (i, &s) in votes.iter().enumerate() {
        if s > best.map_or(0, |(_, s_max)| s_max) {
            best = Some((i, s));
        }
    }
    let (i_max, s_max) = best?;
    (s_max > config.majority_threshold()).then(|| Verdict {
        etype: EntityType::ALL[i_max],
        score: s_max as f64 / config.top_k as f64,
        votes: s_max,
    })
}

/// The clustered rule (the paper's §5.2 future work): cluster the
/// snippets, classify each, and annotate from the best single-sense
/// cluster — a relaxed threshold applies because an ambiguous name's
/// senses split the result list.
///
/// Each snippet is featurized exactly once: the vector feeds both the
/// clustering distance computation and the classifier's decision rule.
fn vote_clustered(
    results: &[SearchResult],
    classifier: &SnippetClassifier,
    config: &AnnotatorConfig,
) -> Option<Verdict> {
    let vectors: Vec<teda_text::SparseVector> = results
        .iter()
        .map(|r| classifier.vectorize(&r.snippet))
        .collect();
    let types: Vec<Option<EntityType>> = vectors
        .iter()
        .map(|x| {
            classifier
                .classify_vector(x)
                .filter(|t| config.targets.contains(t))
        })
        .collect();
    let clusters = crate::cluster::cluster_snippets(&vectors, config.cluster);
    let (etype, votes) = crate::cluster::best_cluster_vote(&clusters, &types)?;
    let min_votes = (config.top_k as f64 * config.cluster.min_votes_frac).ceil() as usize;
    (votes >= min_votes.max(2)).then(|| Verdict {
        etype,
        score: votes as f64 / config.top_k as f64,
        votes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teda_classifier::naive_bayes::NaiveBayesConfig;
    use teda_classifier::{Dataset, NaiveBayes};
    use teda_text::FeatureExtractor;
    use teda_websim::SearchResult;

    use crate::model::{AnyModel, TypeLabels};

    /// A scripted engine: returns canned snippets per query substring.
    struct Scripted {
        rules: Vec<(&'static str, Vec<&'static str>)>,
    }

    impl SearchEngine for Scripted {
        fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
            for (needle, snippets) in &self.rules {
                if query.to_lowercase().contains(&needle.to_lowercase()) {
                    return snippets
                        .iter()
                        .take(k)
                        .enumerate()
                        .map(|(i, s)| SearchResult {
                            url: format!("http://scripted/{i}"),
                            title: format!("r{i}"),
                            snippet: (*s).to_owned(),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
    }

    /// Classifier: "menu/cuisine" → Restaurant, "exhibition/gallery" →
    /// Museum, everything else → Other.
    fn classifier() -> SnippetClassifier {
        let mut fx = FeatureExtractor::new();
        let rest = fx.fit_transform("menu cuisine dining chef");
        let musm = fx.fit_transform("exhibition gallery collection paintings");
        let other = fx.fit_transform("random generic words website");
        let mut data = Dataset::new(3, fx.dim());
        for _ in 0..8 {
            data.push(rest.clone(), 0);
            data.push(musm.clone(), 1);
            data.push(other.clone(), 2);
        }
        let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
        SnippetClassifier::new(
            fx,
            AnyModel::Bayes(nb),
            TypeLabels::with_other(vec![EntityType::Restaurant, EntityType::Museum]),
        )
    }

    fn config() -> AnnotatorConfig {
        AnnotatorConfig {
            targets: vec![EntityType::Restaurant, EntityType::Museum],
            top_k: 10,
            ..AnnotatorConfig::default()
        }
    }

    fn table() -> Table {
        Table::builder(1)
            .row(vec!["Melisse"])
            .unwrap()
            .row(vec!["Louvre Gallery"])
            .unwrap()
            .row(vec!["Unknown Thing"])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn majority_vote_annotates() {
        let engine = Scripted {
            rules: vec![
                (
                    "melisse",
                    vec![
                        "menu cuisine tonight",
                        "cuisine dining menu",
                        "menu chef dining",
                        "dining menu cuisine",
                        "chef menu cuisine",
                        "menu dining chef",
                        "cuisine chef menu",
                        "random generic words",
                        "random website",
                        "generic website words",
                    ],
                ),
                (
                    "louvre",
                    vec![
                        "exhibition gallery paintings",
                        "gallery collection exhibition",
                        "paintings exhibition gallery",
                        "collection gallery paintings",
                        "exhibition collection gallery",
                        "gallery paintings exhibition",
                        "exhibition gallery collection",
                        "random words",
                        "generic website",
                        "random generic",
                    ],
                ),
            ],
        };
        let clf = classifier();
        let t = table();
        let candidates: Vec<CellId> = t.cell_ids().collect();
        let anns = annotate_cells(&t, &candidates, &engine, &clf, None, &config());
        assert_eq!(anns.len(), 2);
        assert_eq!(anns[0].etype, EntityType::Restaurant);
        assert_eq!(anns[0].votes, 7);
        assert!((anns[0].score - 0.7).abs() < 1e-12, "Eq. 1: 7/10");
        assert_eq!(anns[1].etype, EntityType::Museum);
    }

    #[test]
    fn below_majority_abstains() {
        // Only 5 of 10 restaurant votes — "provided that s_tmax > k/2"
        // requires at least 6.
        let engine = Scripted {
            rules: vec![(
                "melisse",
                vec![
                    "menu cuisine",
                    "menu dining",
                    "cuisine chef",
                    "menu chef",
                    "dining cuisine",
                    "random words",
                    "generic website",
                    "random generic",
                    "website words",
                    "generic random",
                ],
            )],
        };
        let clf = classifier();
        let t = table();
        let anns = annotate_cells(&t, &[CellId::new(0, 0)], &engine, &clf, None, &config());
        assert!(anns.is_empty(), "5/10 must not annotate: {anns:?}");
    }

    #[test]
    fn clustering_recovers_a_split_sense() {
        // "Melisse" returns 5 restaurant-sense and 5 junk/label-sense
        // snippets: the plain rule sees 5/10 and abstains; the clustered
        // rule finds the pure restaurant cluster and annotates.
        let engine = Scripted {
            rules: vec![(
                "melisse",
                vec![
                    "menu cuisine tonight",
                    "cuisine dining menu",
                    "menu chef dining",
                    "dining menu cuisine",
                    "chef menu cuisine",
                    "random generic words",
                    "random website generic",
                    "generic website words",
                    "words random website",
                    "website generic random",
                ],
            )],
        };
        let t = table();
        let plain_cfg = config();
        let clf = classifier();
        let plain = annotate_cells(&t, &[CellId::new(0, 0)], &engine, &clf, None, &plain_cfg);
        assert!(plain.is_empty(), "plain rule must abstain on 5/10");

        let cluster_cfg = AnnotatorConfig {
            use_clustering: true,
            ..config()
        };
        let clf = classifier();
        let clustered = annotate_cells(&t, &[CellId::new(0, 0)], &engine, &clf, None, &cluster_cfg);
        assert_eq!(clustered.len(), 1, "clustered rule recovers the sense");
        assert_eq!(clustered[0].etype, EntityType::Restaurant);
        assert_eq!(clustered[0].votes, 5);
    }

    #[test]
    fn no_results_abstains() {
        let engine = Scripted { rules: vec![] };
        let clf = classifier();
        let t = table();
        let anns = annotate_cells(&t, &[CellId::new(2, 0)], &engine, &clf, None, &config());
        assert!(anns.is_empty());
    }

    #[test]
    fn vote_slots_follow_the_type_order() {
        // `vote_plain` counts into `votes[t as usize]` and reads the
        // winner back as `EntityType::ALL[i]`, scanning in ascending type
        // order for the earliest-type tie rule.
        for (i, &t) in EntityType::ALL.iter().enumerate() {
            assert_eq!(t as usize, i, "{t:?}");
        }
        assert!(EntityType::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tied_votes_go_to_the_earlier_type() {
        // 3 restaurant and 3 museum snippets at k = 6 (threshold 3):
        // neither clears it; at k = 5 (threshold 2) both do, and the
        // earlier type wins the tie whatever order Γ lists them in.
        let engine = Scripted {
            rules: vec![(
                "melisse",
                vec![
                    "exhibition gallery paintings",
                    "menu cuisine dining",
                    "gallery collection exhibition",
                    "menu chef dining",
                    "paintings exhibition gallery",
                    "cuisine chef menu",
                ],
            )],
        };
        let clf = classifier();
        let t = table();
        for targets in [
            vec![EntityType::Museum, EntityType::Restaurant],
            vec![EntityType::Restaurant, EntityType::Museum],
        ] {
            let cfg = AnnotatorConfig {
                targets,
                top_k: 6,
                ..config()
            };
            let anns = annotate_cells(&t, &[CellId::new(0, 0)], &engine, &clf, None, &cfg);
            assert!(anns.is_empty(), "3/6 is not a majority: {anns:?}");
            let results = engine.search("melisse", 6);
            let cfg = AnnotatorConfig { top_k: 5, ..cfg };
            let v = verdict(&results, &clf, &cfg).expect("3 > 5/2");
            assert_eq!((v.etype, v.votes), (EntityType::Restaurant, 3));
        }
    }

    #[test]
    fn the_snippet_memo_classifies_each_text_once() {
        let clf = classifier();
        let memo = SnippetClassMemo::new();
        let snippets = [
            "menu cuisine dining",
            "gallery exhibition",
            "random words",
            "",
        ];
        for _ in 0..3 {
            for snippet in snippets {
                assert_eq!(memo.class_of(&clf, snippet), clf.classify(snippet));
            }
        }
        assert_eq!(memo.len(), snippets.len());
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 8,
                misses: 4,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn memoized_verdicts_equal_fresh_ones() {
        let engine = Scripted {
            rules: vec![(
                "melisse",
                vec![
                    "menu cuisine tonight",
                    "cuisine dining menu",
                    "menu cuisine tonight",
                    "exhibition gallery paintings",
                    "menu chef dining",
                    "random words",
                ],
            )],
        };
        let clf = classifier();
        let results = engine.search("melisse", 10);
        let memo = SnippetClassMemo::with_capacity(Some(1));
        for top_k in [3, 6, 10] {
            let cfg = AnnotatorConfig { top_k, ..config() };
            let want = verdict(&results, &clf, &cfg);
            assert_eq!(memoized_verdict(&results, &clf, &cfg, &memo), want);
            let clustered = AnnotatorConfig {
                use_clustering: true,
                ..cfg
            };
            assert_eq!(
                memoized_verdict(&results, &clf, &clustered, &memo),
                verdict(&results, &clf, &clustered)
            );
        }
        let stats = memo.stats();
        assert_eq!(
            stats.hits + stats.misses,
            18,
            "only plain votes ask the memo"
        );
        assert!(stats.evictions > 0, "a one-snippet memo must flush");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn a_hash_match_with_other_text_is_a_miss() {
        let mut shard = ClassShard::default();
        let hash = fnv1a(b"menu cuisine");
        shard.text.extend_from_slice(b"gallery");
        shard.index.insert(
            hash,
            Entry {
                start: 0,
                len: 7,
                class: Some(EntityType::Museum),
            },
        );
        assert_eq!(shard.get(hash, "menu cuisine"), None);
        assert_eq!(shard.get(hash, "gallery"), Some(Some(EntityType::Museum)));
        assert_eq!(shard.get(hash ^ 1, "gallery"), None);
    }

    #[test]
    fn the_text_bound_flushes_and_long_snippets_pass_through() {
        let clf = classifier();
        // 16 shards of 64 snippets and 64 KiB each: forty 30 KB snippets
        // overflow some shard's bytes long before its entry bound.
        let memo = SnippetClassMemo::with_capacity(Some(1024));
        let long: Vec<String> = (0..40)
            .map(|i| format!("menu{i} {}", "cuisine ".repeat(3_750)))
            .collect();
        for snippet in long.iter().chain(&long) {
            assert_eq!(memo.class_of(&clf, snippet), clf.classify(snippet));
        }
        assert!(memo.stats().evictions > 0, "the byte bound must flush");
        assert!(memo.len() < 40);
        memo.shards.for_each(|shard| {
            assert!(shard.text.len() <= memo.per_shard_bytes);
            assert!(shard.text.capacity() <= memo.per_shard_bytes);
        });

        let huge = "gallery ".repeat(10_000);
        let misses = memo.stats().misses;
        let len = memo.len();
        for _ in 0..2 {
            assert_eq!(memo.class_of(&clf, &huge), clf.classify(&huge));
        }
        assert_eq!(memo.stats().misses, misses + 2, "too long to memoize");
        assert_eq!(memo.len(), len);
    }

    #[test]
    fn non_target_votes_dont_count() {
        // Classifier knows Museum, but config targets only Restaurant.
        let engine = Scripted {
            rules: vec![(
                "louvre",
                vec![
                    "exhibition gallery paintings",
                    "gallery collection exhibition",
                    "paintings exhibition gallery",
                    "collection gallery paintings",
                    "exhibition collection gallery",
                    "gallery paintings exhibition",
                    "exhibition gallery collection",
                    "gallery exhibition paintings",
                    "paintings gallery exhibition",
                    "collection exhibition gallery",
                ],
            )],
        };
        let clf = classifier();
        let t = table();
        let cfg = AnnotatorConfig {
            targets: vec![EntityType::Restaurant],
            ..config()
        };
        let anns = annotate_cells(&t, &[CellId::new(1, 0)], &engine, &clf, None, &cfg);
        assert!(anns.is_empty(), "museum votes are outside Γ");
    }
}
