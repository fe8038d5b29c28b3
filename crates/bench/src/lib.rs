//! Experiment harness library: one module per table/figure of the paper.
//!
//! The `experiments` binary dispatches to these modules; each returns its
//! report as a string (also written under `target/experiments/`) so
//! integration tests can assert on the *shape* of every reproduced
//! result — who wins, by roughly what factor, where the crossovers fall.
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod timer;

pub use report::{write_report, ExperimentReport};
