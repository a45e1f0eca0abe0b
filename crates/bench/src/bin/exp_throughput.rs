//! Measures batch throughput, parallel speedup and cache hits
//! (`teda_bench::exp::throughput`). `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("throughput")
}
