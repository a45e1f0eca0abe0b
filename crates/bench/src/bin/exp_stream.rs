//! Measures the streaming driver: tables/sec, peak window, backpressure
//! (`teda_bench::exp::stream`). `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("stream")
}
