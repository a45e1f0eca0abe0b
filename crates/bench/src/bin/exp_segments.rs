//! Measures the segmented store: O(delta) reload and in-place open
//! (`teda_bench::exp::segments`). `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("segments")
}
