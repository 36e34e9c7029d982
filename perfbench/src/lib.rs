//! # protean-perfbench
//!
//! The repository's benchmark: three workloads (`paper-matrix`,
//! `fuzz-batch`, `fuzz-service`), each run from one process, with its
//! outputs checked and its layers timed from outside by the benchmark's
//! own calls into the public functions of each crate. See `README.md`.

#![forbid(unsafe_code)]

pub mod calib;
pub mod cli;
pub mod fuzz;
pub mod host;
pub mod layers;
pub mod matrix;
pub mod metrics;
pub mod stats;

use cli::{Args, Workload};
use metrics::Outcome;

/// Runs the workload `args` names and returns what it measured.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::PaperMatrix => matrix::run(args),
        Workload::FuzzBatch => fuzz::batch(args),
        Workload::FuzzService => fuzz::service(args),
    }
}
