//! Regenerates the §6.3 Wiki Manual comparison. `--quick` runs the
//! reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("comparison")
}
