//! Runs the extension ablations (reject class, clustering, kernel).
//! `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("ablation")
}
