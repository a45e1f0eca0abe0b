//! Lowercasing word tokenizer.
//!
//! Tokens are maximal runs of alphabetic characters (`char::is_alphabetic`),
//! lowercased with `str::to_lowercase`. Digits and punctuation are
//! separators; purely numeric runs are dropped, matching the paper's "each
//! token corresponding to a word in the English dictionary". Single-character
//! tokens are dropped as well (they are artifacts of possessives and
//! initials, not dictionary words).
//!
//! [`TokenScanner`] is the one definition of a token. It writes each token
//! into a caller-owned buffer, so a hot loop that reuses the buffer
//! allocates nothing: ASCII runs are scanned and lowercased byte by byte,
//! and only a run containing a non-ASCII byte takes the `char` path.
//! [`tokenize`] wraps the scanner for callers that want owned `String`s.

/// A cursor over the tokens of one text, writing each into a reusable
/// buffer.
///
/// ```
/// use teda_text::tokenize::TokenScanner;
///
/// let mut scanner = TokenScanner::new("Musée du LOUVRE, 1793");
/// let mut token = String::new();
/// let mut seen = Vec::new();
/// while scanner.next_into(&mut token) {
///     seen.push(token.clone());
/// }
/// assert_eq!(seen, ["musée", "du", "louvre"]);
/// ```
#[derive(Debug, Clone)]
pub struct TokenScanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> TokenScanner<'a> {
    /// A scanner positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        TokenScanner { text, pos: 0 }
    }

    /// Replaces the contents of `out` with the next token, lowercased.
    /// Returns `false` (leaving `out` unspecified) once the text is
    /// exhausted.
    pub fn next_into(&mut self, out: &mut String) -> bool {
        let text = self.text;
        let bytes = text.as_bytes();
        let mut pos = self.pos;
        loop {
            // Skip separators up to the first alphabetic char.
            let start = loop {
                let Some(&b) = bytes.get(pos) else {
                    self.pos = pos;
                    return false;
                };
                if b.is_ascii_alphabetic() {
                    break pos;
                }
                if b.is_ascii() {
                    pos += 1;
                    continue;
                }
                let c = char_at(text, pos);
                if c.is_alphabetic() {
                    break pos;
                }
                pos += c.len_utf8();
            };
            // Consume the alphabetic run: byte steps while it is ASCII,
            // char steps over its non-ASCII letters.
            let mut ascii = true;
            loop {
                match bytes.get(pos) {
                    Some(&b) if b.is_ascii_alphabetic() => pos += 1,
                    Some(&b) if !b.is_ascii() => {
                        let c = char_at(text, pos);
                        if !c.is_alphabetic() {
                            break;
                        }
                        ascii = false;
                        pos += c.len_utf8();
                    }
                    _ => break,
                }
            }
            let raw = &text[start..pos];
            // Single-character runs (possessive 's', initials) are skipped.
            let keep = if ascii {
                raw.len() >= 2
            } else {
                raw.chars().nth(1).is_some()
            };
            if keep {
                self.pos = pos;
                out.clear();
                if ascii {
                    out.push_str(raw);
                    out.make_ascii_lowercase();
                } else {
                    lowercase_into(raw, out);
                }
                return true;
            }
        }
    }
}

/// The char starting at byte `pos`, which must be a char boundary.
fn char_at(text: &str, pos: usize) -> char {
    text[pos..]
        .chars()
        .next()
        .expect("scanner position is a char boundary inside the text")
}

/// Appends `raw.to_lowercase()` to `out`. Per-char `char::to_lowercase`
/// is the same mapping `str::to_lowercase` applies to every char but
/// `Σ`, whose lowercase depends on its neighbours (final `ς` vs `σ`); a
/// run containing it delegates to `str::to_lowercase` itself.
fn lowercase_into(raw: &str, out: &mut String) {
    if raw.contains('Σ') {
        out.push_str(&raw.to_lowercase());
    } else {
        out.extend(raw.chars().flat_map(char::to_lowercase));
    }
}

/// Tokenizes `text` into lowercase word tokens, one owned `String` each.
///
/// Lazy: the scanner advances as the iterator is pulled. Hot loops should
/// drive a [`TokenScanner`] with one reused buffer instead.
pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    let mut scanner = TokenScanner::new(text);
    std::iter::from_fn(move || {
        let mut token = String::new();
        scanner.next_into(&mut token).then_some(token)
    })
}

/// Tokenizes into a vector; convenience for tests and one-shot callers.
///
/// ```
/// use teda_text::tokenize::tokenize_vec;
///
/// assert_eq!(
///     tokenize_vec("Melisse, Santa Monica (2013)"),
///     vec!["melisse", "santa", "monica"]
/// );
/// ```
pub fn tokenize_vec(text: &str) -> Vec<String> {
    tokenize(text).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenization() {
        assert_eq!(
            tokenize_vec("Melisse is a restaurant in Santa Monica"),
            vec!["melisse", "is", "restaurant", "in", "santa", "monica"]
        );
    }

    #[test]
    fn punctuation_and_digits_split() {
        assert_eq!(
            tokenize_vec("Top-10 museums, 2013 edition!"),
            vec!["top", "museums", "edition"]
        );
    }

    #[test]
    fn possessives_drop_single_letters() {
        assert_eq!(
            tokenize_vec("Simpson's episodes"),
            vec!["simpson", "episodes"]
        );
    }

    #[test]
    fn unicode_letters_kept() {
        assert_eq!(
            tokenize_vec("Musée du Louvre"),
            vec!["musée", "du", "louvre"]
        );
    }

    #[test]
    fn non_ascii_runs_follow_str_to_lowercase() {
        // Word-final capital sigma lowercases to ς, medial to σ.
        assert_eq!(tokenize_vec("ΟΔΟΣ ΣΟΦΙΑ"), vec!["οδος", "σοφια"]);
        // İ lowercases to two chars (i + combining dot); the run still
        // counts its length in source chars.
        assert_eq!(tokenize_vec("İstanbul"), vec!["i̇stanbul"]);
        assert_eq!(tokenize_vec("STRASSE straße"), vec!["strasse", "straße"]);
        // A lone non-ASCII letter is a single-character run: dropped.
        assert!(tokenize_vec("é ß Σ").is_empty());
    }

    #[test]
    fn empty_and_nonword_input() {
        assert!(tokenize_vec("").is_empty());
        assert!(tokenize_vec("12345 --- !!!").is_empty());
        assert!(tokenize_vec("a b c").is_empty()); // all single letters
    }

    #[test]
    fn lowercasing_applied() {
        assert_eq!(tokenize_vec("LOUVRE Museum"), vec!["louvre", "museum"]);
    }

    #[test]
    fn urls_shatter_into_words() {
        // Tokenizer is intentionally naive about URLs: pre-processing
        // filters URL cells before tokenization ever sees them.
        assert_eq!(tokenize_vec("www.louvre.fr"), vec!["www", "louvre", "fr"]);
    }

    #[test]
    fn scanner_reuses_one_buffer() {
        let mut scanner = TokenScanner::new("Louvre, Paris");
        let mut token = String::from("stale contents");
        assert!(scanner.next_into(&mut token));
        assert_eq!(token, "louvre");
        assert!(scanner.next_into(&mut token));
        assert_eq!(token, "paris");
        assert!(!scanner.next_into(&mut token));
        assert!(!scanner.next_into(&mut token), "exhaustion is sticky");
    }
}
