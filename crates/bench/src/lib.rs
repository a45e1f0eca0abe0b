//! `teda-bench` — the experiment harness.
//!
//! One binary per paper artefact and per systems experiment (run with
//! `--release`; `--quick` selects the reduced fixture):
//!
//! | binary           | reproduces / measures                               |
//! |------------------|-----------------------------------------------------|
//! | `exp_table1`     | Table 1 — P/R/F of SVM / Bayes / TIN / TIS          |
//! | `exp_table2`     | Table 2 — corpus sizes + classifier test F          |
//! | `exp_table3`     | Table 3 — ablation: postproc / disambiguation       |
//! | `exp_comparison` | §6.3 — Wiki Manual comparison vs catalogue annotator|
//! | `exp_efficiency` | §6.4 — seconds/row, scaling, hybrid speed-up        |
//! | `exp_coverage`   | §1  — 22% catalogue coverage statistic              |
//! | `exp_fig7`       | Figure 7 — toponym disambiguation worked example    |
//! | `exp_preprocess` | §5.1 — queries saved by pre-processing              |
//! | `exp_ablation`   | extensions — reject class, clustering, kernel       |
//! | `exp_throughput` | batch engine — tables/sec, cache hits, par speedup  |
//! | `exp_service`    | annotation service — req/s, p50/p99, shed rate      |
//! | `exp_stream`     | streaming driver — tables/sec, peak window, identity|
//! | `exp_wire`       | wire front-end — loopback req/s, per-client fairness|
//! | `exp_store`      | persistence — snapshot vs cold build, warm restart  |
//! | `exp_segments`   | segmented store — O(delta) reload, in-place open    |
//! | `exp_mmap`       | mmap'd serving — cold open, steady state, peak RSS  |
//! | `exp_cluster`    | cluster tier — bit identity, scaling, failover      |
//! | `exp_lint`       | `teda-lint` gate — coverage, findings, lock graph   |
//! | `exp_obs`        | telemetry — on/off identity, overhead, tracing      |
//! | `run_all`        | everything, in order, over one fixture              |
//!
//! Every binary is one call into [`harness::main`] (or
//! [`harness::run_all`]), which looks the experiment up in the
//! harness's registry. A systems experiment's module also has a
//! `claims(&report)` list: the binary checks every claim and exits
//! non-zero naming each failure, while the module's in-crate test
//! asserts only the exact ones ([`harness::Kind`]).
//!
//! All experiments share one seeded [`harness::Fixture`]: world → Web →
//! gazetteer → benchmark tables → harvested training corpus → trained
//! classifiers. Building the standard fixture takes a few seconds in
//! release mode.

pub mod exp;
pub mod harness;
pub mod report;
