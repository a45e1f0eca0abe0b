//! Measures the annotation service: req/s, latency, admission control
//! (`teda_bench::exp::service`). `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("service")
}
