//! Machine-readable experiment output.
//!
//! Each experiment binary prints a human table *and* drops a
//! `BENCH_<name>.json` beside the working directory: a flat array of
//! `{"metric": ..., "value": ..., "unit": ...}` records, so CI and
//! regression tooling can diff runs without scraping the text render.
//! Hand-rolled serialization — the values are floats and short ASCII
//! names, and the offline-build constraint rules out a serde
//! dependency.

use std::path::PathBuf;

/// One tagged diagnostic line on stderr — the shared logging funnel of
/// the experiment binaries and the fixture builder. Stdout stays
/// reserved for rendered reports and emitted artefact paths, so
/// redirecting it still yields a clean report document.
pub fn log(component: &str, message: &str) {
    eprintln!("[{component}] {message}");
}

/// A named collection of scalar metrics, serializable as JSON.
#[derive(Debug, Clone)]
pub struct BenchJson {
    name: String,
    entries: Vec<Entry>,
}

#[derive(Debug, Clone)]
struct Entry {
    metric: String,
    value: f64,
    unit: String,
}

impl BenchJson {
    /// A new, empty report for `BENCH_<name>.json`.
    pub fn new(name: impl Into<String>) -> Self {
        BenchJson {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// Appends one metric record.
    pub fn metric(&mut self, metric: &str, value: f64, unit: &str) -> &mut Self {
        self.entries.push(Entry {
            metric: metric.to_string(),
            value,
            unit: unit.to_string(),
        });
        self
    }

    /// The serialized JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"metric\": {}, \"value\": {}, \"unit\": {}}}{}\n",
                json_string(&e.metric),
                json_number(e.value),
                json_string(&e.unit),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        out
    }

    /// Writes `BENCH_<name>.json` into the current directory and
    /// returns its path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// [`write`](Self::write) with the outcome reported the way every
    /// experiment binary does it: the artefact path on stdout, a write
    /// failure through [`log`] without aborting the run (the claims are
    /// checked after the JSON drops, so a failed run still leaves it).
    pub fn write_logged(&self) {
        match self.write() {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => log(
                &format!("exp_{}", self.name),
                &format!("could not write BENCH_{}.json: {e}", self.name),
            ),
        }
    }
}

/// JSON string escaping for the restricted names this crate emits
/// (quotes, backslashes and control bytes; everything else verbatim).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN/Infinity literals; clamp them to null so a damaged
/// metric breaks the consumer loudly instead of producing invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trip float formatting (Rust's default `{}` for
        // f64 is round-trip precise).
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_metric_records() {
        let mut r = BenchJson::new("demo");
        r.metric("load_ms", 12.5, "ms")
            .metric("speedup", 8.0, "x")
            .metric("identical", 1.0, "bool");
        let json = r.render();
        assert!(json.starts_with("[\n"));
        assert!(json.contains("{\"metric\": \"load_ms\", \"value\": 12.5, \"unit\": \"ms\"},"));
        assert!(json.contains("{\"metric\": \"identical\", \"value\": 1.0, \"unit\": \"bool\"}\n"));
        assert!(json.ends_with("]\n"));
    }

    #[test]
    fn escapes_and_clamps() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.125), "0.125");
    }
}
