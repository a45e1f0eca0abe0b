//! Runs the `teda-lint` analyzer over the workspace and gates on it
//! (`teda_bench::exp::lint`). `--quick` is accepted; the pass always
//! covers the whole workspace.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("lint")
}
