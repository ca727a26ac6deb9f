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

mod column;
mod dataframe;
pub mod functions;
mod session;

pub use column::{Col, SortOrder};
pub use dataframe::{DataFrame, GroupedFrame, JoinType};
pub use session::Session;

/// Quotes an identifier for SQL emission.
pub(crate) fn quote_ident(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 2);
    push_ident(&mut s, name);
    s
}

/// Appends `name` to `out`, quoted as an identifier.
pub(crate) fn push_ident(out: &mut String, name: &str) {
    out.push('"');
    for c in name.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
}

/// Quotes a string literal for SQL emission.
pub(crate) fn quote_str(value: &str) -> String {
    let mut s = String::with_capacity(value.len() + 2);
    s.push('\'');
    for c in value.chars() {
        if c == '\'' {
            s.push('\'');
        }
        s.push(c);
    }
    s.push('\'');
    s
}
