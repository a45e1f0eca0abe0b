//! Regenerates the §1 catalogue-coverage statistic (22%). `--quick`
//! runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("coverage")
}
