//! Featurization identity: `FeatureExtractor::{fit_transform, transform}`
//! and `tokenize` against the plain §5.2.1 recipe, compared bit for bit.
//!
//! The reference recipe is tokenize → `is_stopword` → `Stemmer::stem` →
//! vocabulary lookup (or intern) → count / length, with the counts in a
//! `HashMap` (`reference/mod.rs`). Its tokenizer half is the original
//! `char_indices` token iterator, kept verbatim there, so the extractor's
//! byte scanner and its surface lexicon are checked against an
//! implementation that shares none of their code. Weights are compared
//! under `f64::to_bits`.

use proptest::prelude::*;

use teda_text::tokenize::tokenize_vec;
use teda_text::{FeatureExtractor, Vocabulary};

mod reference;

use reference::{bits, reference_fit, reference_transform};

fn words(v: &Vocabulary) -> Vec<String> {
    v.iter().map(|(_, w)| w.to_owned()).collect()
}

/// Inputs chosen for the scanner's edges: non-ASCII case mappings that
/// change length or depend on context, digits and punctuation, single
/// letters, all-stopword text and out-of-vocabulary words.
const EDGE_CASES: &[&str] = &[
    "ΟΔΟΣ ΟΔΟΣ οδος Σ ΣΣ ΑΣ ΣΑ",
    "İstanbul İSTANBUL istanbul İ",
    "Musée du Louvre, MUSÉE musée",
    "STRASSE straße STRAßE ẞ",
    "a b c I x y z é ß",
    "the of and is in to a an it",
    "zanzibar quixotic flummox Zanzibar",
    "Top-10 museums, 2013 edition! www.louvre.fr (ca) O'Brien's",
    "restaurant123hotel 4ever x1y2z3",
    "Ünïcödé—dash√root 東京 tōkyō ☃snow",
    "",
    "   \t\n  ",
];

/// A fixed training text so lookups at inference hit, miss, and stem.
const TRAINING: &[&str] = &[
    "Melisse is a restaurant in Santa Monica with a seasonal tasting menu",
    "The Louvre museum in Paris: the world's most-visited museums",
    "Hotel Adlon Kempinski, BERLIN, luxury hotels and suites",
    "Musée d'Orsay, Straße des 17. Juni, ΟΔΟΣ Ερμού, İstanbul Modern",
];

fn trained() -> FeatureExtractor {
    let mut fx = FeatureExtractor::new();
    for text in TRAINING {
        fx.fit_transform(text);
    }
    fx
}

#[test]
fn tokenize_matches_reference_on_edge_cases() {
    for text in EDGE_CASES.iter().chain(TRAINING) {
        let expected: Vec<String> = reference::tokenize(text).collect();
        assert_eq!(tokenize_vec(text), expected, "{text:?}");
    }
}

#[test]
fn transform_matches_reference_on_edge_cases() {
    let fx = trained();
    for text in EDGE_CASES.iter().chain(TRAINING) {
        assert_eq!(
            bits(&fx.transform(text)),
            reference_transform(&fx, text),
            "{text:?}"
        );
    }
}

#[test]
fn fit_transform_matches_reference_on_edge_cases() {
    let mut fx = FeatureExtractor::new();
    let mut vocab = Vocabulary::new();
    for text in TRAINING.iter().chain(EDGE_CASES) {
        assert_eq!(
            bits(&fx.fit_transform(text)),
            reference_fit(&mut vocab, text),
            "{text:?}"
        );
    }
    assert_eq!(words(fx.vocab()), words(&vocab));
}

#[test]
fn unfitted_extractor_matches_reference() {
    let mut fx = FeatureExtractor::new();
    for text in EDGE_CASES.iter().chain(TRAINING) {
        let v = fx.transform(text);
        assert!(v.is_empty(), "{text:?}");
        assert_eq!(bits(&v), reference_transform(&fx, text));
    }
    // Its first fit still skips stopwords: "the", "of" and "in" are
    // neither interned nor counted in the length.
    let text = "the museum of the city in the museum";
    assert_eq!(
        bits(&fx.fit_transform(text)),
        reference_fit(&mut Vocabulary::new(), text)
    );
    assert_eq!(words(fx.vocab()), ["museum", "citi"]);
}

#[test]
fn interleaved_extractors_on_one_thread_stay_independent() {
    let a = trained();
    let mut b = FeatureExtractor::new();
    b.fit_transform("zanzibar quixotic museum flummox");
    let texts = [
        "museum zanzibar Paris",
        "the quixotic hotel",
        "ΟΔΟΣ museums",
    ];
    for _ in 0..3 {
        for text in texts {
            assert_eq!(bits(&a.transform(text)), reference_transform(&a, text));
            assert_eq!(bits(&b.transform(text)), reference_transform(&b, text));
        }
    }
    // The same stem has a different id in each extractor.
    assert_ne!(a.vocab().get("museum"), b.vocab().get("museum"));
}

#[test]
fn fit_transform_after_transform_extends_consistently() {
    let mut fx = trained();
    let mut vocab = Vocabulary::new();
    for text in TRAINING {
        reference_fit(&mut vocab, text);
    }
    let lexicon = fx.lexicon_len();
    let dim = fx.dim();
    // Inference leaves both tables alone, even on unseen words.
    let unseen = "zanzibar quixotic museums";
    assert_eq!(
        bits(&fx.transform(unseen)),
        reference_transform(&fx, unseen)
    );
    assert_eq!((fx.lexicon_len(), fx.dim()), (lexicon, dim));
    // Training afterwards interns them exactly as the recipe does, and
    // inference then sees them.
    assert_eq!(
        bits(&fx.fit_transform(unseen)),
        reference_fit(&mut vocab, unseen)
    );
    assert_eq!(words(fx.vocab()), words(&vocab));
    assert_eq!(
        bits(&fx.transform(unseen)),
        reference_transform(&fx, unseen)
    );
    assert!(fx.transform(unseen).nnz() == 3);
}

proptest! {
    /// One function defines a token: `tokenize` == the reference iterator.
    #[test]
    fn tokenize_matches_reference(s in "\\PC{0,200}") {
        let expected: Vec<String> = reference::tokenize(&s).collect();
        prop_assert_eq!(tokenize_vec(&s), expected);
    }

    /// The same over an alphabet dense in case-mapping edges.
    #[test]
    fn tokenize_matches_reference_on_case_edges(
        s in "[a-zA-Z0-9 .,'ΣΟΔσςİıIiÉéßẞǅΩ]{0,120}"
    ) {
        let expected: Vec<String> = reference::tokenize(&s).collect();
        prop_assert_eq!(tokenize_vec(&s), expected);
    }

    /// `transform` == the recipe, bit for bit, on random printable text,
    /// against a vocabulary fitted on part of the same distribution (so
    /// tokens hit the lexicon, miss it and stem in-vocabulary, or are
    /// out of vocabulary).
    #[test]
    fn transform_matches_reference(
        train in collection::vec("[a-zA-Z ]{0,60}", 0..8),
        text in "\\PC{0,200}",
        mixed in "[a-zA-Z0-9 ,.'ΣΟΔİéÉß]{0,120}"
    ) {
        let mut fx = trained();
        for t in &train {
            fx.fit_transform(t);
        }
        for t in [&text, &mixed] {
            prop_assert_eq!(bits(&fx.transform(t)), reference_transform(&fx, t));
        }
    }

    /// `fit_transform` == the recipe with interning: same vectors, same
    /// ids, same vocabulary order.
    #[test]
    fn fit_transform_matches_reference(
        texts in collection::vec("[a-zA-Z0-9 ,.'ΣΟΔİéÉß]{0,80}", 1..10)
    ) {
        let mut fx = FeatureExtractor::new();
        let mut vocab = Vocabulary::new();
        for t in &texts {
            prop_assert_eq!(bits(&fx.fit_transform(t)), reference_fit(&mut vocab, t));
        }
        prop_assert_eq!(words(fx.vocab()), words(&vocab));
    }
}
