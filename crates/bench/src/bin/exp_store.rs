//! Measures persistence: snapshot vs cold build, compaction, warm
//! restart (`teda_bench::exp::store`). `--quick` runs the reduced
//! fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("store")
}
