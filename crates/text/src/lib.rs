//! `teda-text` — the NLP substrate.
//!
//! §5.2.1 of the paper fixes the snippet-processing recipe used by both
//! classifiers:
//!
//! > "the text of the snippet is converted to lower case and tokenized,
//! > each token corresponding to a word in the English dictionary; tokens
//! > that correspond to English stopwords are removed and the remaining are
//! > stemmed with the Porter algorithm. Each token is associated with its
//! > normalized frequency in the snippet, that is obtained by dividing the
//! > number of its occurrences by the length of the snippet."
//!
//! This crate implements that recipe from scratch:
//!
//! * [`mod@tokenize`] — lowercasing word tokenizer: one byte scanner,
//!   [`tokenize::TokenScanner`], defines a token for every caller;
//! * [`stopwords`] — embedded English stopword list;
//! * [`porter`] — the full Porter (1980) stemmer, steps 1a–5b;
//! * [`vocab`] — string interning to dense feature ids;
//! * [`features`] — sparse normalized-TF feature vectors and the
//!   [`features::FeatureExtractor`] train/predict pipeline;
//! * [`similarity`] — cosine/Jaccard/Levenshtein, used by the catalogue
//!   annotator's fuzzy name matching.
//!
//! Classification featurizes every top-k snippet of every candidate cell,
//! so [`FeatureExtractor`] runs the recipe in one pass that allocates only
//! its output. Besides the vocabulary of stems, it keeps a *surface
//! lexicon*: each lowercase token seen in training (and every stopword)
//! mapped to "stopword" or to its feature id. A token found there skips
//! the stopword search, the stemmer and the vocabulary lookup; only a
//! miss pays for them. The lexicon is written only while fitting, so it
//! is bounded by the training text, and each entry is exactly what the
//! recipe computes for its token, so vectors are bit-identical to the
//! step-by-step recipe (`crates/text/tests/featurize.rs` checks this).

pub mod features;
pub mod porter;
pub mod similarity;
pub mod stopwords;
pub mod tokenize;
pub mod vocab;

pub use features::{FeatureExtractor, SparseVector};
pub use porter::Stemmer;
pub use tokenize::tokenize;
pub use vocab::Vocabulary;

/// Tokenize, stop-filter and stem `text` in one call: the §5.2.1 recipe up
/// to (but excluding) feature weighting. Allocates a fresh stemmer; hot
/// paths should hold a [`Stemmer`] and call [`preprocess_with`].
pub fn preprocess(text: &str) -> Vec<String> {
    let mut stemmer = Stemmer::new();
    preprocess_with(&mut stemmer, text)
}

/// [`preprocess`] with a caller-provided (reusable) stemmer.
pub fn preprocess_with(stemmer: &mut Stemmer, text: &str) -> Vec<String> {
    tokenize(text)
        .filter(|t| !stopwords::is_stopword(t))
        .map(|t| stemmer.stem(&t).to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preprocess_applies_full_recipe() {
        // "the" is a stopword; "museums" stems to "museum";
        // "Visiting" lowercases and stems to "visit".
        let toks = preprocess("Visiting the museums");
        assert_eq!(toks, vec!["visit", "museum"]);
    }

    #[test]
    fn preprocess_empty() {
        assert!(preprocess("").is_empty());
        assert!(preprocess("the and of").is_empty());
    }
}
