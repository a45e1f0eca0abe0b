//! Measures the cluster tier: bit identity, scaling, failover
//! (`teda_bench::exp::cluster`). `--quick` runs the reduced
//! configuration.

fn main() -> std::process::ExitCode {
    teda_bench::harness::main("cluster")
}
