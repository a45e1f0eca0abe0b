//! Regenerates Table 3 — the post-processing / disambiguation ablation.
//! `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("table3")
}
