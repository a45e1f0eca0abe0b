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
//! annotates concurrently.

use std::collections::HashMap;

use teda_kb::EntityType;
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

/// Runs the voting rule over an already-retrieved result list (the batch
/// engine calls this directly with memoized results, skipping the search).
pub fn annotate_from_results(
    results: &[SearchResult],
    cell: CellId,
    classifier: &SnippetClassifier,
    config: &AnnotatorConfig,
) -> Option<CellAnnotation> {
    if results.is_empty() {
        return None;
    }
    if config.use_clustering {
        vote_clustered(results, cell, classifier, config)
    } else {
        vote_plain(results, cell, classifier, config)
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
fn vote_plain(
    results: &[SearchResult],
    cell: CellId,
    classifier: &SnippetClassifier,
    config: &AnnotatorConfig,
) -> Option<CellAnnotation> {
    let mut votes: HashMap<EntityType, usize> = HashMap::new();
    for r in results {
        if let Some(t) = classifier.classify(&r.snippet) {
            if config.targets.contains(&t) {
                *votes.entry(t).or_insert(0) += 1;
            }
        }
    }
    // Deterministic argmax: highest vote count, earliest type on ties.
    let (t_max, s_max) = votes
        // teda-lint: allow(nondeterministic_iteration) -- argmax key (votes, Reverse(type)) is unique per entry, so the max is order-independent
        .iter()
        .map(|(&t, &s)| (t, s))
        .max_by_key(|&(t, s)| (s, std::cmp::Reverse(t)))?;
    (s_max > config.majority_threshold()).then(|| CellAnnotation {
        cell,
        etype: t_max,
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
    cell: CellId,
    classifier: &SnippetClassifier,
    config: &AnnotatorConfig,
) -> Option<CellAnnotation> {
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
    (votes >= min_votes.max(2)).then(|| CellAnnotation {
        cell,
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
