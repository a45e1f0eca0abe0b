//! The plain §5.2.1 recipe, kept as an oracle for the featurizer:
//! tokenize → `is_stopword` → `Stemmer::stem` → vocabulary lookup (or
//! intern) → count / length, counted in a `HashMap`. The tokenizer is the
//! original `char_indices` iterator, verbatim. Shared by
//! `crates/text/tests/featurize.rs` and the root `tests/featurize_fixture.rs`.

#![allow(dead_code)]

use std::collections::HashMap;

use teda_text::stopwords::is_stopword;
use teda_text::{FeatureExtractor, SparseVector, Stemmer, Vocabulary};

/// The original tokenizer: maximal `char::is_alphabetic` runs of at
/// least two chars, lowercased with `str::to_lowercase`.
pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    TokenIter {
        chars: text.char_indices().peekable(),
        text,
    }
}

struct TokenIter<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl<'a> Iterator for TokenIter<'a> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        loop {
            // skip non-alphabetic
            let start = loop {
                match self.chars.peek() {
                    Some(&(i, c)) if c.is_alphabetic() => break i,
                    Some(_) => {
                        self.chars.next();
                    }
                    None => return None,
                }
            };
            // consume the alphabetic run
            let mut end = start;
            while let Some(&(i, c)) = self.chars.peek() {
                if c.is_alphabetic() {
                    end = i + c.len_utf8();
                    self.chars.next();
                } else {
                    break;
                }
            }
            let raw = &self.text[start..end];
            // single-character tokens are dropped (possessive 's', initials)
            if raw.chars().count() >= 2 {
                return Some(raw.to_lowercase());
            }
            // else continue scanning for the next token
        }
    }
}

/// A vector as `(id, weight bits)` pairs.
pub fn bits(v: &SparseVector) -> Vec<(u32, u64)> {
    v.entries()
        .iter()
        .map(|&(id, w)| (id, w.to_bits()))
        .collect()
}

/// The recipe over `text`, resolving each stem through `id_of`
/// (`None` = skipped but counted toward the length).
pub fn recipe(text: &str, mut id_of: impl FnMut(&str) -> Option<u32>) -> Vec<(u32, u64)> {
    let mut stemmer = Stemmer::new();
    let mut counts: HashMap<u32, u32> = HashMap::new();
    let mut total = 0u32;
    for tok in tokenize(text) {
        if is_stopword(&tok) {
            continue;
        }
        total += 1;
        if let Some(id) = id_of(stemmer.stem(&tok)) {
            *counts.entry(id).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(u32, u64)> = counts
        .into_iter()
        .map(|(id, c)| (id, (f64::from(c) / f64::from(total)).to_bits()))
        .collect();
    out.sort_unstable();
    out
}

/// The reference `transform`: a lookup in the extractor's vocabulary.
pub fn reference_transform(fx: &FeatureExtractor, text: &str) -> Vec<(u32, u64)> {
    recipe(text, |stem| fx.vocab().get(stem))
}

/// The reference `fit_transform`: interning into a vocabulary of its own.
pub fn reference_fit(vocab: &mut Vocabulary, text: &str) -> Vec<(u32, u64)> {
    recipe(text, |stem| Some(vocab.intern(stem)))
}
