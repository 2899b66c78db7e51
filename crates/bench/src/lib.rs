//! # ae-bench — benchmark and experiment harness
//!
//! Three entry points:
//!
//! * the `experiments` binary regenerates every table and figure of the
//!   paper's evaluation section (`cargo run -p ae-bench --release --bin
//!   experiments -- all`), printing the same rows/series the paper reports;
//! * the criterion benches (`cargo bench -p ae-bench`) measure the
//!   Section 5.6 overheads: parameter-model training, scoring, plan
//!   featurization, simulation, and configuration selection;
//! * the `bench_*` drivers measure the serving, QoS, fault, observability,
//!   fleet, resilience, inference and generalization claims and write the
//!   `BENCH_*.json` reports.
//!
//! [`context::ExperimentContext`] caches the expensive shared inputs
//! (training data, ground-truth runs) so `all` does not recompute them per
//! experiment. The drivers share three modules: [`cli`] parses their two
//! flags (`--smoke`, `--json <path>`), [`fixture`] trains and registers the
//! model the six serving-side drivers score with, and [`report`] writes the
//! JSON skeleton and ends a `--smoke` run.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
pub mod context;
pub mod experiments;
pub mod fixture;
pub mod report;
pub mod table;
