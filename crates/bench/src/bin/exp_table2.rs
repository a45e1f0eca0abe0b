//! Regenerates Table 2 — corpus sizes, classifier test F, grid search.
//! `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("table2")
}
