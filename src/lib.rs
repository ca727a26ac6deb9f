//! `snowq` — umbrella crate re-exporting the full JSONiq-on-Snowflake reproduction.
//!
//! See the individual crates for detail:
//! - [`jsoniq_core`]: the paper's contribution — JSONiq → single-SQL translation.
//! - [`snowpark`]: the lazy dataframe client library.
//! - [`snowdb`]: the Snowflake-like columnar engine substrate.
//! - [`adl`] / [`ssb`]: benchmark substrates.
//! - [`baselines`]: RumbleDB-like and AsterixDB-like comparator engines.
#![deny(unsafe_code)]

pub use adl;
pub use baselines;
pub use jsoniq_core;
pub use snowdb;
pub use snowpark;
pub use ssb;
