//! Classification identity: the allocation-free argmax and the
//! fixed-array plain vote against the recipes they replaced, compared
//! bit for bit for every model family.
//!
//! * `AnyModel::best_class` and `SnippetClassifier::classify_vector`
//!   against the score-vector recipe: `scores(x)` collected into a
//!   `Vec<f64>`, then `max_by(total_cmp)`. Models are trained on random
//!   small datasets, and some have two classes with identical decision
//!   functions, so exact ties happen. Inputs mix finite weights, zeros,
//!   infinities, both signs of NaN and features beyond the vocabulary.
//! * `annotate::verdict` with plain voting against the `HashMap` vote
//!   with the `(votes, Reverse(type))` argmax, over random snippets,
//!   target lists (shuffled, partial, duplicated) and thresholds low
//!   enough that vote ties reach the argmax.

use std::cmp::Reverse;
use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use teda_classifier::naive_bayes::NaiveBayesConfig;
use teda_classifier::svm::pegasos::{PegasosConfig, PegasosSvm};
use teda_classifier::svm::smo::{SmoConfig, SmoSvm};
use teda_classifier::{Classifier, Dataset, Kernel, NaiveBayes, OneVsRest};
use teda_core::annotate::{verdict, Verdict};
use teda_core::config::AnnotatorConfig;
use teda_core::model::{AnyModel, SnippetClassifier, TypeLabels};
use teda_kb::EntityType;
use teda_text::{FeatureExtractor, SparseVector};
use teda_websim::SearchResult;

/// The recipes the fast paths replaced, kept verbatim as the oracle.
mod reference {
    use super::*;

    /// The argmax over the allocated score vector.
    pub fn best_class(model: &AnyModel, x: &SparseVector) -> Option<(usize, f64)> {
        model
            .scores(x)
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// `SnippetClassifier::classify_vector` as it was.
    pub fn classify_vector(clf: &SnippetClassifier, x: &SparseVector) -> Option<EntityType> {
        if x.is_empty() {
            return None;
        }
        let (best, best_score) = best_class(clf.model(), x)?;
        let margin_based = matches!(clf.model(), AnyModel::SvmLinear(_) | AnyModel::SvmRbf(_));
        if margin_based && best_score < 0.0 {
            return None;
        }
        clf.labels().type_of(best)
    }

    /// The plain §5.2.1 vote as it was: a per-cell `HashMap`, then the
    /// `(votes, Reverse(type))` argmax.
    pub fn vote_plain(
        results: &[SearchResult],
        clf: &SnippetClassifier,
        config: &AnnotatorConfig,
    ) -> Option<Verdict> {
        if results.is_empty() {
            return None;
        }
        let mut votes: HashMap<EntityType, usize> = HashMap::new();
        for r in results {
            if let Some(t) = clf.classify(&r.snippet) {
                if config.targets.contains(&t) {
                    *votes.entry(t).or_insert(0) += 1;
                }
            }
        }
        let (t_max, s_max) = votes
            .iter()
            .map(|(&t, &s)| (t, s))
            .max_by_key(|&(t, s)| (s, Reverse(t)))?;
        (s_max > config.majority_threshold()).then(|| Verdict {
            etype: t_max,
            score: s_max as f64 / config.top_k as f64,
            votes: s_max,
        })
    }
}

/// Random vectors checked per model.
const VECTORS_PER_MODEL: usize = 48;

/// Result lists voted per classifier.
const LISTS_PER_CLASSIFIER: usize = 24;

/// One word family per class; snippets mix them.
const WORDS: [&[&str]; 4] = [
    &["menu", "cuisine", "dining", "chef"],
    &["gallery", "exhibition", "paintings", "curator"],
    &["suite", "lobby", "booking", "rooms"],
    &["director", "premiere", "cast", "screenplay"],
];

const TYPES: [EntityType; 4] = [
    EntityType::Restaurant,
    EntityType::Museum,
    EntityType::Hotel,
    EntityType::Film,
];

fn random_weight(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..12) {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 0.0,
        5 => -rng.gen_range(0.0f64..1.0),
        _ => rng.gen_range(0.0..1.0),
    }
}

/// A random vector over `dim` features (and a few beyond it), NaN and
/// infinite weights included.
fn random_vector(rng: &mut StdRng, dim: usize) -> SparseVector {
    let nnz = rng.gen_range(1..6);
    SparseVector::from_pairs(
        (0..nnz)
            .map(|_| (rng.gen_range(0..dim as u32 + 2), random_weight(rng)))
            .collect(),
    )
}

/// A random training set: `n_classes` classes over `dim` features, each
/// class leaning on its own feature band. With `twin`, the last class is
/// an exact copy of class 0, so both get identical decision functions.
fn random_dataset(rng: &mut StdRng, n_classes: usize, dim: usize, twin: bool) -> Dataset {
    let per_class = rng.gen_range(3..7);
    let mut samples: Vec<Vec<(SparseVector, usize)>> = vec![Vec::new(); n_classes];
    for (c, class_samples) in samples.iter_mut().enumerate() {
        for _ in 0..per_class {
            let home = (c * dim / n_classes) as u32;
            let pairs: Vec<(u32, f64)> = (0..rng.gen_range(1..4))
                .map(|i| {
                    let f = if i == 0 {
                        home
                    } else {
                        rng.gen_range(0..dim as u32)
                    };
                    (f, rng.gen_range(0.1..1.0))
                })
                .collect();
            class_samples.push((SparseVector::from_pairs(pairs), c));
        }
    }
    if twin && n_classes > 1 {
        let copy: Vec<(SparseVector, usize)> = samples[0]
            .iter()
            .map(|(x, _)| (x.clone(), n_classes - 1))
            .collect();
        samples[n_classes - 1] = copy;
    }
    let mut data = Dataset::new(n_classes, dim);
    // Interleave the classes so the trainers' sample order is mixed.
    for i in 0..per_class {
        for class_samples in &samples {
            let (x, y) = &class_samples[i];
            data.push(x.clone(), *y);
        }
    }
    data
}

/// One trained model of each family over `data`.
fn models(data: &Dataset, seed: u64) -> Vec<AnyModel> {
    let dim = data.dim();
    let pegasos = OneVsRest::train(data, |class, xs, ys| {
        PegasosSvm::train(
            xs,
            ys,
            dim,
            PegasosConfig {
                epochs: 5,
                seed: seed ^ class as u64,
                ..PegasosConfig::default()
            },
        )
    });
    let smo = OneVsRest::train(data, |class, xs, ys| {
        SmoSvm::train(
            xs,
            ys,
            SmoConfig {
                kernel: Kernel::Rbf { gamma: 2.0 },
                seed: seed ^ class as u64,
                ..SmoConfig::default()
            },
        )
    });
    let bayes = NaiveBayes::train(
        data,
        NaiveBayesConfig {
            prior_count: 1.0,
            evidence_scale: [1.0, 16.0][seed as usize % 2],
        },
    );
    vec![
        AnyModel::SvmLinear(pegasos),
        AnyModel::SvmRbf(smo),
        AnyModel::Bayes(bayes),
    ]
}

/// The same ensembles with class 0's model repeated as the last class:
/// every input ties between those two classes.
fn twinned(model: &AnyModel) -> Option<AnyModel> {
    match model {
        AnyModel::SvmLinear(m) => {
            let mut v = m.models().to_vec();
            v.push(v[0].clone());
            Some(AnyModel::SvmLinear(OneVsRest::from_models(v)))
        }
        AnyModel::SvmRbf(m) => {
            let mut v = m.models().to_vec();
            v.push(v[0].clone());
            Some(AnyModel::SvmRbf(OneVsRest::from_models(v)))
        }
        AnyModel::Bayes(_) => None,
    }
}

fn family(model: &AnyModel) -> &'static str {
    match model {
        AnyModel::SvmLinear(_) => "linear",
        AnyModel::SvmRbf(_) => "rbf",
        AnyModel::Bayes(_) => "bayes",
    }
}

fn bits(best: Option<(usize, f64)>) -> Option<(usize, u64)> {
    best.map(|(i, s)| (i, s.to_bits()))
}

proptest! {
    #[test]
    fn best_class_and_classify_vector_match_the_score_vector_recipe(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_classes = rng.gen_range(2..5);
        let dim = rng.gen_range(3..9);
        let twin = rng.gen_bool(0.5);
        let data = random_dataset(&mut rng, n_classes, dim, twin);
        let mut all = models(&data, seed);
        let extra: Vec<AnyModel> = all.iter().filter_map(twinned).collect();
        all.extend(extra);
        // Class n_classes - 1 is Other; a twinned ensemble's extra class
        // maps to no type either.
        let labels = TypeLabels::with_other(TYPES[..n_classes - 1].to_vec());
        for model in all {
            let clf = SnippetClassifier::new(FeatureExtractor::new(), model, labels.clone());
            let mut inputs: Vec<SparseVector> =
                (0..VECTORS_PER_MODEL).map(|_| random_vector(&mut rng, dim)).collect();
            inputs.push(SparseVector::from_pairs(vec![(0, f64::NAN)]));
            inputs.push(SparseVector::from_pairs(vec![(0, -f64::NAN)]));
            inputs.push(SparseVector::from_pairs(Vec::new()));
            for x in &inputs {
                prop_assert_eq!(
                    bits(clf.model().best_class(x)),
                    bits(reference::best_class(clf.model(), x)),
                    "{} best_class on {:?}",
                    family(clf.model()),
                    x
                );
                prop_assert_eq!(
                    clf.classify_vector(x),
                    reference::classify_vector(&clf, x),
                    "{} classify_vector on {:?}",
                    family(clf.model()),
                    x
                );
            }
        }
    }

    #[test]
    fn plain_verdict_matches_the_hashmap_vote(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A snippet classifier over the four word families, trained on
        // one snippet per class.
        let mut fx = FeatureExtractor::new();
        let mut data_xs = Vec::new();
        for words in WORDS {
            data_xs.push(fx.fit_transform(&words.join(" ")));
        }
        let mut data = Dataset::new(WORDS.len(), fx.dim());
        for _ in 0..4 {
            for (c, x) in data_xs.iter().enumerate() {
                data.push(x.clone(), c);
            }
        }
        for model in models(&data, seed) {
            let labels = if rng.gen_bool(0.5) {
                TypeLabels::new(TYPES.to_vec())
            } else {
                TypeLabels::with_other(TYPES[..3].to_vec())
            };
            let clf = SnippetClassifier::new(fx.clone(), model, labels);
            for _ in 0..LISTS_PER_CLASSIFIER {
                let len = rng.gen_range(0..12);
                let results: Vec<SearchResult> = (0..len)
                    .map(|i| {
                        let n_words = rng.gen_range(0..4);
                        let snippet: Vec<&str> = (0..n_words)
                            .map(|_| {
                                let family = WORDS[rng.gen_range(0..WORDS.len())];
                                family[rng.gen_range(0..family.len())]
                            })
                            .collect();
                        SearchResult {
                            url: format!("http://oracle/{i}"),
                            title: String::new(),
                            snippet: snippet.join(" "),
                        }
                    })
                    .collect();
                let mut targets: Vec<EntityType> = TYPES
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.75))
                    .collect();
                if rng.gen_bool(0.3) {
                    targets.push(EntityType::Actor);
                }
                if !targets.is_empty() && rng.gen_bool(0.3) {
                    targets.push(targets[0]);
                }
                let n = targets.len();
                for i in (1..n).rev() {
                    targets.swap(i, rng.gen_range(0..i + 1));
                }
                let config = AnnotatorConfig {
                    targets,
                    top_k: rng.gen_range(0..=len.max(1)),
                    ..AnnotatorConfig::default()
                };
                prop_assert_eq!(
                    verdict(&results, &clf, &config),
                    reference::vote_plain(&results, &clf, &config),
                    "{} vote over {:?} with targets {:?}, k {}",
                    family(clf.model()),
                    results.iter().map(|r| r.snippet.as_str()).collect::<Vec<_>>(),
                    config.targets,
                    config.top_k
                );
            }
        }
    }
}

/// The generators above do reach the cases the oracle exists for: exact
/// score ties, NaN decision values, and vote ties that clear the
/// threshold.
#[test]
fn the_generators_reach_ties_and_nan() {
    let mut rng = StdRng::seed_from_u64(7);
    let data = random_dataset(&mut rng, 3, 6, true);
    let mut score_ties = 0;
    let mut nan_scores = 0;
    for model in models(&data, 7) {
        let tied = twinned(&model).unwrap_or(model);
        for _ in 0..VECTORS_PER_MODEL {
            let scores = tied.scores(&random_vector(&mut rng, 6));
            nan_scores += usize::from(scores.iter().any(|s| s.is_nan()));
            let top = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            score_ties += usize::from(scores.iter().filter(|s| **s == top).count() > 1);
        }
    }
    assert!(score_ties > 0, "no exact score tie was generated");
    assert!(nan_scores > 0, "no NaN decision value was generated");

    // Two restaurant and two museum snippets under k = 2: a 2–2 tie
    // that clears the threshold and goes to the earlier type.
    let mut fx = FeatureExtractor::new();
    let xs: Vec<SparseVector> = WORDS[..2]
        .iter()
        .map(|w| fx.fit_transform(&w.join(" ")))
        .collect();
    let mut data = Dataset::new(2, fx.dim());
    for _ in 0..4 {
        for (c, x) in xs.iter().enumerate() {
            data.push(x.clone(), c);
        }
    }
    let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
    let clf = SnippetClassifier::new(
        fx,
        AnyModel::Bayes(nb),
        TypeLabels::new(TYPES[..2].to_vec()),
    );
    let results: Vec<SearchResult> = ["menu chef", "gallery curator", "dining", "paintings"]
        .iter()
        .map(|s| SearchResult {
            url: String::new(),
            title: String::new(),
            snippet: (*s).to_owned(),
        })
        .collect();
    let config = AnnotatorConfig {
        targets: vec![EntityType::Museum, EntityType::Restaurant],
        top_k: 2,
        ..AnnotatorConfig::default()
    };
    let want = reference::vote_plain(&results, &clf, &config);
    assert_eq!(
        want.map(|v| (v.etype, v.votes)),
        Some((EntityType::Restaurant, 2))
    );
    assert_eq!(verdict(&results, &clf, &config), want);
}
