//! Prints the Figure 7 toponym-disambiguation worked example (no
//! fixture).

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("fig7")
}
