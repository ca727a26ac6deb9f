//! [`DataFrame`]: a lazy, composable SQL query.

use snowdb::error::Result;
use snowdb::QueryResult;

use crate::column::{AliasedCol, Col, SortOrder};
use crate::session::Session;
use crate::quote_ident;

/// Join kinds exposed by the dataframe API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    LeftOuter,
    Cross,
}

/// A logical query plan rendered as SQL text. All transformations are lazy and
/// return a new `DataFrame`; execution happens only on [`DataFrame::collect`]
/// (paper §II-D).
#[derive(Clone, Debug)]
pub struct DataFrame {
    session: Session,
    sql: String,
}

impl DataFrame {
    pub(crate) fn new(session: Session, sql: String) -> DataFrame {
        DataFrame { session, sql }
    }

    /// The single native SQL query this dataframe denotes.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    fn derive(&self, sql: String) -> DataFrame {
        DataFrame { session: self.session.clone(), sql }
    }

    /// Projects the given expressions.
    pub fn select<I, T>(&self, items: I) -> DataFrame
    where
        I: IntoIterator<Item = T>,
        T: Into<AliasedCol>,
    {
        let list: Vec<String> = items.into_iter().map(|c| c.into().render()).collect();
        self.derive(format!("SELECT {} FROM ({})", list.join(", "), self.sql))
    }

    /// Keeps all columns and appends one computed column.
    pub fn with_column(&self, name: &str, expr: &Col) -> DataFrame {
        self.derive(format!(
            "SELECT *, {} AS {} FROM ({})",
            expr.sql(),
            quote_ident(name),
            self.sql
        ))
    }

    /// Drops columns by name (Snowflake `* EXCLUDE`).
    pub fn drop_columns(&self, names: &[&str]) -> DataFrame {
        let list: Vec<String> = names.iter().map(|n| quote_ident(n)).collect();
        self.derive(format!("SELECT * EXCLUDE ({}) FROM ({})", list.join(", "), self.sql))
    }

    /// Filters rows by a boolean expression.
    pub fn filter(&self, cond: &Col) -> DataFrame {
        self.derive(format!("SELECT * FROM ({}) WHERE {}", self.sql, cond.sql()))
    }

    /// Alias for [`DataFrame::filter`], matching Snowpark's `where`.
    pub fn where_(&self, cond: &Col) -> DataFrame {
        self.filter(cond)
    }

    /// `LATERAL FLATTEN` over an expression (paper §IV-A): unboxes an array (or
    /// object), exposing `alias.VALUE`, `alias.INDEX`, `alias.KEY`, `alias.SEQ`,
    /// and `alias.THIS`, and replicating all other columns per produced row.
    pub fn flatten(&self, input: &Col, alias: &str, outer: bool) -> DataFrame {
        let outer_arg = if outer { ", OUTER => TRUE" } else { "" };
        self.derive(format!(
            "SELECT * FROM ({}), LATERAL FLATTEN(INPUT => {}{outer_arg}) AS {}",
            self.sql,
            input.sql(),
            quote_ident(alias),
        ))
    }

    /// Starts a grouped aggregation.
    pub fn group_by(&self, keys: &[Col]) -> GroupedFrame {
        GroupedFrame { df: self.clone(), keys: keys.to_vec() }
    }

    /// Global aggregation (no grouping keys).
    pub fn agg<I, T>(&self, aggs: I) -> DataFrame
    where
        I: IntoIterator<Item = T>,
        T: Into<AliasedCol>,
    {
        self.group_by(&[]).agg(aggs)
    }

    /// Joins two dataframes. Each side receives an explicit relation alias so
    /// the ON condition (and downstream projections) can disambiguate columns
    /// with [`crate::functions::col_of`].
    pub fn join(
        &self,
        other: &DataFrame,
        kind: JoinType,
        self_alias: &str,
        other_alias: &str,
        on: Option<&Col>,
    ) -> DataFrame {
        let kw = match kind {
            JoinType::Inner => "INNER JOIN",
            JoinType::LeftOuter => "LEFT OUTER JOIN",
            JoinType::Cross => "CROSS JOIN",
        };
        let on_sql = match on {
            Some(c) => format!(" ON {}", c.sql()),
            None => String::new(),
        };
        self.derive(format!(
            "SELECT * FROM ({}) AS {} {kw} ({}) AS {}{on_sql}",
            self.sql,
            quote_ident(self_alias),
            other.sql,
            quote_ident(other_alias),
        ))
    }

    /// Cross join without relation aliases: both sides' columns stay
    /// addressable by their own names. Used for JSONiq's successive
    /// `for`-over-collection clauses, whose join predicates arrive later as
    /// `where` conjuncts and are converted to hash-join conditions by the
    /// engine optimizer.
    pub fn cross_join(&self, other: &DataFrame) -> DataFrame {
        self.derive(format!("SELECT * FROM ({}) CROSS JOIN ({})", self.sql, other.sql))
    }

    /// Concatenates two dataframes (`UNION ALL`).
    pub fn union_all(&self, other: &DataFrame) -> DataFrame {
        self.derive(format!("({}) UNION ALL ({})", self.sql, other.sql))
    }

    /// Sorts by the given keys.
    pub fn sort(&self, keys: &[(Col, SortOrder)]) -> DataFrame {
        let list: Vec<String> = keys
            .iter()
            .map(|(c, o)| {
                format!("{} {}", c.sql(), if *o == SortOrder::Desc { "DESC" } else { "ASC" })
            })
            .collect();
        self.derive(format!("SELECT * FROM ({}) ORDER BY {}", self.sql, list.join(", ")))
    }

    /// Keeps at most `n` rows.
    pub fn limit(&self, n: u64) -> DataFrame {
        self.derive(format!("SELECT * FROM ({}) LIMIT {n}", self.sql))
    }

    /// Removes duplicate rows.
    pub fn distinct(&self) -> DataFrame {
        self.derive(format!("SELECT DISTINCT * FROM ({})", self.sql))
    }

    /// Triggers execution: ships the single SQL query to the engine and
    /// materializes the result.
    pub fn collect(&self) -> Result<QueryResult> {
        self.session.query(&self.sql)
    }

    /// Convenience: `COUNT(*)` over this dataframe.
    pub fn count(&self) -> Result<i64> {
        let res = self.session.query(&format!("SELECT COUNT(*) FROM ({})", self.sql))?;
        Ok(res.scalar().and_then(snowdb::Variant::as_i64).unwrap_or(0))
    }
}

/// A dataframe with pending grouping keys; `agg` completes the aggregation.
#[derive(Clone, Debug)]
pub struct GroupedFrame {
    df: DataFrame,
    keys: Vec<Col>,
}

impl GroupedFrame {
    /// Completes the aggregation. Grouping keys appear first in the output,
    /// followed by the aggregate expressions, mirroring Snowpark.
    pub fn agg<I, T>(&self, aggs: I) -> DataFrame
    where
        I: IntoIterator<Item = T>,
        T: Into<AliasedCol>,
    {
        let mut select: Vec<String> = self.keys.iter().map(|k| k.sql().to_string()).collect();
        select.extend(aggs.into_iter().map(|c| c.into().render()));
        let group = if self.keys.is_empty() {
            String::new()
        } else {
            let keys: Vec<&str> = self.keys.iter().map(|k| k.sql()).collect();
            format!(" GROUP BY {}", keys.join(", "))
        };
        self.df.derive(format!(
            "SELECT {} FROM ({}){group}",
            select.join(", "),
            self.df.sql
        ))
    }
}
