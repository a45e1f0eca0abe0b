//! Web pages.

/// Index of a page within a [`crate::corpus::WebCorpus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// A synthetic Web page. `body` is plain text; the search engine derives
/// snippets from its leading words.
#[derive(Debug, Clone, PartialEq)]
pub struct WebPage {
    /// The page URL (unique within a corpus).
    pub url: String,
    /// The page title, shown in search results.
    pub title: String,
    /// The page text.
    pub body: String,
}

/// Maximum snippet length in words; the paper notes "most of them are less
/// than 20 words long" (§5.2).
pub const SNIPPET_WORDS: usize = 20;

impl WebPage {
    /// The search-result snippet: the first [`SNIPPET_WORDS`] words of the
    /// body.
    pub fn snippet(&self) -> String {
        snippet_of(&self.body)
    }
}

/// The snippet of a page body: its first [`SNIPPET_WORDS`] words.
/// Shared by [`WebPage`] and the borrowed page views of
/// [`crate::backend::PageFields`].
///
/// One scan of the body collects the words on the stack, and `join`
/// copies them into one string sized to fit them exactly.
pub fn snippet_of(body: &str) -> String {
    let mut words = [""; SNIPPET_WORDS];
    let mut n = 0;
    for (slot, word) in words.iter_mut().zip(body.split_whitespace()) {
        *slot = word;
        n += 1;
    }
    words[..n].join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippet_truncates_to_twenty_words() {
        let body: Vec<String> = (0..50).map(|i| format!("w{i}")).collect();
        let p = WebPage {
            url: "u".into(),
            title: "t".into(),
            body: body.join(" "),
        };
        let s = p.snippet();
        assert_eq!(s.split_whitespace().count(), SNIPPET_WORDS);
        assert!(s.starts_with("w0 w1"));
    }

    #[test]
    fn snippet_matches_the_split_and_join_recipe() {
        let recipe = |body: &str| {
            body.split_whitespace()
                .take(SNIPPET_WORDS)
                .collect::<Vec<_>>()
                .join(" ")
        };
        let twenty_five: Vec<String> = (0..25).map(|i| format!("w{i}")).collect();
        let bodies = [
            String::new(),
            " \t\n ".into(),
            "one".into(),
            "  leading and trailing  ".into(),
            "tabs\tand\nnewlines\r\nmixed \t \n in".into(),
            "ideographic\u{3000}space\u{3000}\u{3000}splits".into(),
            "café naïve 東京 \u{a0}nbsp".into(),
            twenty_five.join(" \t"),
            format!("\n{}\n", twenty_five[..SNIPPET_WORDS].join("\n")),
        ];
        for body in &bodies {
            let snippet = snippet_of(body);
            assert_eq!(snippet, recipe(body), "{body:?}");
            assert_eq!(snippet.capacity(), snippet.len(), "{body:?}");
        }
    }

    #[test]
    fn short_body_snippet_is_whole_body() {
        let p = WebPage {
            url: "u".into(),
            title: "t".into(),
            body: "just a few words".into(),
        };
        assert_eq!(p.snippet(), "just a few words");
    }
}
