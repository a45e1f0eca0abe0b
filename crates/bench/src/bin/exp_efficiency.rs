//! Regenerates the §6.4 efficiency analysis (virtual-latency timing).
//! `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("efficiency")
}
