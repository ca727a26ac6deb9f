//! `ssb` — the Star Schema Benchmark substrate: data generators for the
//! lineorder fact table and four dimensions, plus the thirteen benchmark
//! queries in both handwritten SQL and JSONiq.
#![deny(unsafe_code)]

pub mod generator;
pub mod queries;

pub use generator::{load_ssb, load_ssb_tiny, SsbConfig, LINEORDERS_SF1};
pub use queries::{queries, query, SsbQuery};
