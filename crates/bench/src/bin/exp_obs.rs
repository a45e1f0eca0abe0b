//! Measures telemetry: on/off identity, overhead, cross-node tracing
//! (`teda_bench::exp::obs`). `--quick` runs the reduced fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("obs")
}
