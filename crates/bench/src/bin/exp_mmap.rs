//! Measures serving off the mmap'd snapshot, peak RSS included
//! (`teda_bench::exp::mmap`). `--quick` runs the reduced configuration.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("mmap")
}
