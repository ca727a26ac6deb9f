//! `bench` — the harness that regenerates every table and figure of the
//! paper's evaluation (§V). See the `repro` binary.
#![deny(unsafe_code)]

pub mod experiments;
pub mod report;
