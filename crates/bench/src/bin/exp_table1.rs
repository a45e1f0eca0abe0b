//! Regenerates Table 1 — P/R/F of SVM / Bayes / TIN / TIS. `--quick`
//! runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("table1")
}
