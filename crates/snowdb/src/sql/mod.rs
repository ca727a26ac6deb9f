//! SQL front-end: lexer, AST, and recursive-descent parser for the Snowflake-like
//! dialect the translation layer targets.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod statement;

pub use ast::*;
pub use parser::parse_query;
pub use statement::{parse_statement, Statement};
