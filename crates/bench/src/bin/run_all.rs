//! Runs every experiment in order over one shared fixture, prints the
//! full report and checks every claim. `--quick` runs the reduced
//! fixture.

fn main() -> std::process::ExitCode {
    teda_bench::harness::run_all()
}
