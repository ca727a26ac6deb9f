//! `jsoniq-core` — the paper's primary contribution: a JSONiq compiler that
//! lowers queries through an AST, an expression tree, and an iterator tree, and
//! then either interprets them locally (the RumbleDB-like baseline) or
//! translates them into a single native SQL query via the `snowpark` API.
#![deny(unsafe_code)]

pub mod ast;
pub mod cache;
pub mod expr;
pub mod interp;
pub mod itertree;
pub mod lexer;
pub mod parser;
pub mod snowflake;
pub mod verify;

pub use ast::*;
pub use parser::parse;
