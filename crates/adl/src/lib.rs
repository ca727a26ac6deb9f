//! `adl` — the IRIS HEP ADL benchmark substrate: a seeded synthetic event
//! generator with the CMS-like schema, the eight benchmark queries in both
//! JSONiq and handwritten Snowflake SQL, and histogram utilities.
#![deny(unsafe_code)]

pub mod generator;
pub mod histogram;
pub mod queries;

pub use generator::{generate_events, load_into, AdlConfig, SF1_EVENTS};
pub use histogram::{histogram_fixed, HistogramBin};
