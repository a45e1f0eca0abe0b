//! Audits the §5.1 pre-processing savings over the benchmark. `--quick`
//! runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("preprocess")
}
