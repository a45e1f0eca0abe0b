//! The workspace's one JSON string escaper and number formatter. Every
//! JSON artefact — `STATS JSON`, `BENCH_*.json`, `teda-lint --json` —
//! keeps its own layout and writes its strings and floats through here.

/// `s` as a quoted JSON string: quotes, backslashes and control
/// characters escaped, everything else verbatim.
pub fn string(s: &str) -> String {
    use std::fmt::Write;

    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number in Rust's shortest round-trip form, with a
/// `.0` on integral values so a float field always reads as one. JSON
/// has no NaN or Infinity, so a non-finite value renders as `null`: a
/// damaged metric breaks its consumer loudly instead of the document.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = v.to_string();
    if s.contains('.') || s.contains('e') {
        s
    } else {
        s + ".0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\r\t\u{1}é"), "\"\\r\\t\\u0001é\"");
    }

    #[test]
    fn numbers_round_trip_and_clamp() {
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(0.125), "0.125");
        assert_eq!(number(-0.0), "-0.0");
        assert_eq!(number(1e21), "1000000000000000000000.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
