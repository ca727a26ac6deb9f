//! `snowpark` — a lazy, dataframe-based client library for `snowdb`.
//!
//! This crate mirrors the Snowpark API surface the paper's translation layer
//! uses (§II-D): a [`DataFrame`] logically encapsulates a fully executable SQL
//! query, a [`Col`] represents a partial sub-expression that is meaningless
//! until attached to a dataframe method, and [`functions`] holds the static
//! constructors (`col`, `lit`, `array_agg`, `object_construct`, ...).
//!
//! Every transformation is lazy and composes one SQL query: calling
//! [`DataFrame::collect`] sends exactly one native SQL query to the engine, the
//! property the paper's whole design rests on (no UDFs, no round trips, full
//! optimizer visibility). Like real Snowpark's SQL simplifier, a dataframe
//! keeps its top `SELECT` open and merges each call into it when the clause
//! the call sets comes later in SQL's evaluation order than every clause
//! already there, wrapping it in a subquery otherwise (see [`DataFrame`]). The
//! paper's Fig. 2a pipeline therefore emits one flat
//! `SELECT COUNT(DISTINCT …) FROM "ORDERS" WHERE …` rather than the nested
//! `SELECT`s of Fig. 2b; the engine receives the shape handwritten SQL gives
//! it.
#![deny(unsafe_code)]

mod column;
mod dataframe;
pub mod functions;
mod session;

pub use column::{Col, SortOrder};
pub use dataframe::{DataFrame, GroupedFrame, JoinType};
pub use session::Session;

/// Appends `name` to `out`, quoted as an identifier.
pub(crate) fn push_ident(out: &mut String, name: &str) {
    push_quoted(out, name, '"');
}

/// Appends `value` to `out` as a string literal.
pub(crate) fn push_str_lit(out: &mut String, value: &str) {
    push_quoted(out, value, '\'');
}

/// Appends `text` between `quote`s, doubling each `quote` inside it.
fn push_quoted(out: &mut String, text: &str, quote: char) {
    out.reserve(text.len() + 2);
    out.push(quote);
    for c in text.chars() {
        if c == quote {
            out.push(quote);
        }
        out.push(c);
    }
    out.push(quote);
}
