//! Measures the wire front-end: loopback req/s and per-client fairness
//! (`teda_bench::exp::wire`). `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("wire")
}
