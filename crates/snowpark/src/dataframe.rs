//! [`DataFrame`]: a lazy, composable SQL query.
//!
//! A dataframe holds one open top `SELECT` — its DISTINCT flag, select list,
//! FROM items, WHERE, GROUP BY, ORDER BY and LIMIT — and renders it to text
//! once, when [`DataFrame::sql`] or [`DataFrame::collect`] asks. A method
//! merges into that `SELECT` when the clause it sets comes later in SQL's own
//! evaluation order (FROM → WHERE → GROUP BY → select list → DISTINCT →
//! ORDER BY → LIMIT) than every clause already there, and wraps it as a
//! subquery otherwise. Kept in that order, the merged text means what the
//! nested text meant: the same rows reach every clause, so every operand is
//! evaluated on the same rows and `SEQ8()` numbers the same rows. The one
//! place where merging joins two projections into one, `with_column`, also
//! refuses an expression that reads a name the projection defines or hides
//! (it would see the input column, or nothing), a second `SEQ8()` (two calls
//! in one projection share one per-row counter) and an aggregate (it would
//! turn the projection into an aggregation).

use std::sync::{Arc, OnceLock};

use snowdb::error::Result;
use snowdb::QueryResult;

use crate::column::{AliasedCol, Col, SortOrder};
use crate::functions as f;
use crate::push_ident;
use crate::session::Session;

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
    query: Query,
    /// `query` as text, rendered on first demand.
    sql: OnceLock<String>,
}

/// What a dataframe denotes.
#[derive(Clone, Debug)]
enum Query {
    /// Text given to [`Session::sql`]. It is opaque: every method wraps it.
    Text(Arc<str>),
    /// `(left) UNION ALL (right)`: every method wraps it.
    UnionAll(Arc<Query>, Arc<Query>),
    /// The open top `SELECT` methods merge into.
    Select(Select),
}

/// One `SELECT`, clause by clause.
#[derive(Clone, Debug)]
struct Select {
    distinct: bool,
    /// `Some(excluded)` when the select list starts with `*` (`EXCLUDE`d
    /// names listed), `None` when it is `items` alone.
    star: Option<Vec<String>>,
    /// Select items after the `*`, or the whole list.
    items: Items,
    /// Shared between the frames that merged into this `SELECT`: only a
    /// bare one extends it.
    from: Arc<FromClause>,
    filter: Option<Col>,
    group_by: Vec<Col>,
    order_by: Vec<(Col, SortOrder)>,
    limit: Option<u64>,
}

/// A select list, shared between the frames that extend it: appending an
/// item to a frame's list copies none of the items before it.
#[derive(Clone, Debug, Default)]
struct Items(Option<Arc<ItemNode>>);

#[derive(Debug)]
struct ItemNode {
    item: AliasedCol,
    /// The items before this one.
    prev: Items,
    /// Whether this item or one before it calls `SEQ8()`.
    seq8: bool,
}

impl Items {
    fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// This list with `item` appended.
    fn push(&self, item: AliasedCol) -> Items {
        let seq8 = item.col.calls_seq8() || self.calls_seq8();
        Items(Some(Arc::new(ItemNode { item, prev: self.clone(), seq8 })))
    }

    fn calls_seq8(&self) -> bool {
        self.0.as_ref().is_some_and(|n| n.seq8)
    }

    /// The items, last first.
    fn rev(&self) -> impl Iterator<Item = &AliasedCol> + Clone {
        std::iter::successors(self.0.as_deref(), |n| n.prev.0.as_deref()).map(|n| &n.item)
    }

    /// Appends the items in order, separated by commas.
    fn render(&self, out: &mut String) {
        if let Some(n) = &self.0 {
            n.prev.render(out);
            if !n.prev.is_empty() {
                out.push_str(", ");
            }
            n.item.render(out);
        }
    }
}

impl<T: Into<AliasedCol>> FromIterator<T> for Items {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Items {
        iter.into_iter().fold(Items::default(), |list, item| list.push(item.into()))
    }
}

/// A FROM clause: a base relation, then lateral flattens and joins in order.
#[derive(Clone, Debug)]
struct FromClause {
    base: Rel,
    alias: Option<String>,
    steps: Vec<Step>,
}

#[derive(Clone, Debug)]
enum Step {
    Flatten { input: Col, outer: bool, alias: String },
    Join { kind: JoinType, rel: Rel, alias: Option<String>, on: Option<Col> },
}

/// A relation in FROM: a table by name, or a parenthesized query.
#[derive(Clone, Debug)]
enum Rel {
    Table(String),
    Query(Arc<Query>),
}

impl Query {
    /// This query as a FROM relation. `SELECT * FROM x` is `x` itself, so a
    /// bare table is named and never appears as `SELECT * FROM (x)`.
    fn to_rel(&self) -> Rel {
        match self {
            Query::Select(s) if s.is_bare() && s.from.steps.is_empty() && s.from.alias.is_none() => {
                s.from.base.clone()
            }
            q => Rel::Query(Arc::new(q.clone())),
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            Query::Text(sql) => out.push_str(sql),
            Query::UnionAll(l, r) => {
                out.push('(');
                l.render(out);
                out.push_str(") UNION ALL (");
                r.render(out);
                out.push(')');
            }
            Query::Select(s) => s.render(out),
        }
    }
}

impl Select {
    /// `SELECT * FROM rel`.
    fn over(base: Rel) -> Select {
        Select {
            distinct: false,
            star: Some(Vec::new()),
            items: Items::default(),
            from: Arc::new(FromClause { base, alias: None, steps: Vec::new() }),
            filter: None,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// Nothing after the select list: no DISTINCT, ORDER BY or LIMIT.
    fn ends_at_select_list(&self) -> bool {
        !self.distinct && self.order_by.is_empty() && self.limit.is_none()
    }

    /// The select list is a plain `*` and nothing follows it.
    fn selects_star(&self) -> bool {
        self.star.as_ref().is_some_and(Vec::is_empty)
            && self.items.is_empty()
            && self.ends_at_select_list()
    }

    /// `SELECT * FROM ...` with nothing after FROM.
    fn is_bare(&self) -> bool {
        self.selects_star() && self.filter.is_none()
    }

    /// Whether `expr AS name` may join this select list: it is `*` plus
    /// computed columns, and `expr` neither reads a name this list defines or
    /// hides, nor adds a second `SEQ8()`, nor aggregates.
    fn takes_column(&self, expr: &Col) -> bool {
        let Some(excluded) = &self.star else { return false };
        let aliases = self.items.rev().filter_map(|i| i.alias.as_deref());
        let names = excluded.iter().map(String::as_str).chain(aliases);
        let second_seq8 = expr.calls_seq8() && self.items.calls_seq8();
        self.ends_at_select_list()
            && !expr.is_aggregate()
            && !second_seq8
            && !expr.reads_any(&mut |name| names.clone().any(|d| d.eq_ignore_ascii_case(name)))
    }

    fn render(&self, out: &mut String) {
        out.push_str(if self.distinct { "SELECT DISTINCT " } else { "SELECT " });
        if let Some(excluded) = &self.star {
            out.push('*');
            if !excluded.is_empty() {
                out.push_str(" EXCLUDE (");
                push_list(out, excluded, |out, name| push_ident(out, name));
                out.push(')');
            }
            if !self.items.is_empty() {
                out.push_str(", ");
            }
        }
        self.items.render(out);
        out.push_str(" FROM ");
        self.from.render(out);
        if let Some(cond) = &self.filter {
            out.push_str(" WHERE ");
            cond.render(out);
        }
        if !self.group_by.is_empty() {
            out.push_str(" GROUP BY ");
            push_list(out, &self.group_by, |out, key| key.render(out));
        }
        if !self.order_by.is_empty() {
            out.push_str(" ORDER BY ");
            push_list(out, &self.order_by, |out, (key, order)| {
                key.render(out);
                out.push_str(if *order == SortOrder::Desc { " DESC" } else { " ASC" });
            });
        }
        if let Some(n) = self.limit {
            out.push_str(" LIMIT ");
            out.push_str(&n.to_string());
        }
    }
}

/// Appends each item with `push`, separated by commas.
fn push_list<'a, T: 'a>(
    out: &mut String,
    items: impl IntoIterator<Item = &'a T>,
    mut push: impl FnMut(&mut String, &'a T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push(out, item);
    }
}

impl FromClause {
    fn render(&self, out: &mut String) {
        self.base.render(out);
        push_alias(out, self.alias.as_deref());
        for step in &self.steps {
            match step {
                Step::Flatten { input, outer, alias } => {
                    out.push_str(", LATERAL FLATTEN(INPUT => ");
                    input.render(out);
                    if *outer {
                        out.push_str(", OUTER => TRUE");
                    }
                    out.push(')');
                    push_alias(out, Some(alias));
                }
                Step::Join { kind, rel, alias, on } => {
                    out.push_str(match kind {
                        JoinType::Inner => " INNER JOIN ",
                        JoinType::LeftOuter => " LEFT OUTER JOIN ",
                        JoinType::Cross => " CROSS JOIN ",
                    });
                    rel.render(out);
                    push_alias(out, alias.as_deref());
                    if let Some(on) = on {
                        out.push_str(" ON ");
                        on.render(out);
                    }
                }
            }
        }
    }
}

fn push_alias(out: &mut String, alias: Option<&str>) {
    if let Some(a) = alias {
        out.push_str(" AS ");
        push_ident(out, a);
    }
}

impl Rel {
    fn render(&self, out: &mut String) {
        match self {
            Rel::Table(name) => push_ident(out, name),
            Rel::Query(q) => {
                out.push('(');
                q.render(out);
                out.push(')');
            }
        }
    }
}

impl DataFrame {
    /// A dataframe over raw SQL text: it has no open `SELECT`, so every
    /// method wraps it.
    pub(crate) fn text(session: Session, sql: &str) -> DataFrame {
        DataFrame::of(session, Query::Text(Arc::from(sql)))
    }

    /// `SELECT * FROM table`, open.
    pub(crate) fn table(session: Session, name: String) -> DataFrame {
        DataFrame::of(session, Query::Select(Select::over(Rel::Table(name))))
    }

    fn of(session: Session, query: Query) -> DataFrame {
        DataFrame { session, query, sql: OnceLock::new() }
    }

    /// The single native SQL query this dataframe denotes.
    pub fn sql(&self) -> &str {
        self.sql.get_or_init(|| {
            let mut out = String::new();
            self.query.render(&mut out);
            out
        })
    }

    fn derive(&self, select: Select) -> DataFrame {
        DataFrame::of(self.session.clone(), Query::Select(select))
    }

    /// The open `SELECT` when `merges` accepts it, a new `SELECT * FROM (…)`
    /// over this query otherwise.
    fn open(&self, merges: impl FnOnce(&Select) -> bool) -> Select {
        match &self.query {
            Query::Select(s) if merges(s) => s.clone(),
            q => Select::over(q.to_rel()),
        }
    }

    /// Projects the given expressions.
    pub fn select<I, T>(&self, items: I) -> DataFrame
    where
        I: IntoIterator<Item = T>,
        T: Into<AliasedCol>,
    {
        // Replacing the list drops what it computed, and with it any error:
        // only a plain `*` is replaced.
        let mut s = self.open(Select::selects_star);
        s.star = None;
        s.items = items.into_iter().map(Into::into).collect();
        self.derive(s)
    }

    /// Keeps all columns and appends one computed column.
    pub fn with_column(&self, name: &str, expr: &Col) -> DataFrame {
        let mut s = self.open(|s| s.takes_column(expr));
        s.items = s.items.push(expr.alias(name));
        self.derive(s)
    }

    /// Drops columns by name (Snowflake `* EXCLUDE`).
    pub fn drop_columns(&self, names: &[&str]) -> DataFrame {
        let mut s = self.open(Select::selects_star);
        s.star = Some(names.iter().map(|n| n.to_string()).collect());
        self.derive(s)
    }

    /// Filters rows by a boolean expression. It merges only into a `SELECT`
    /// with nothing after FROM — never into an existing WHERE, whose
    /// conjuncts would otherwise meet rows the first one rejects.
    pub fn filter(&self, cond: &Col) -> DataFrame {
        let mut s = self.open(Select::is_bare);
        s.filter = Some(cond.clone());
        self.derive(s)
    }

    /// Alias for [`DataFrame::filter`], matching Snowpark's `where`.
    pub fn where_(&self, cond: &Col) -> DataFrame {
        self.filter(cond)
    }

    /// `LATERAL FLATTEN` over an expression (paper §IV-A): unboxes an array (or
    /// object), exposing `alias.VALUE`, `alias.INDEX`, `alias.KEY`, `alias.SEQ`,
    /// and `alias.THIS`, and replicating all other columns per produced row.
    pub fn flatten(&self, input: &Col, alias: &str, outer: bool) -> DataFrame {
        let mut s = self.open(Select::is_bare);
        let step = Step::Flatten { input: input.clone(), outer, alias: alias.to_string() };
        Arc::make_mut(&mut s.from).steps.push(step);
        self.derive(s)
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
        let mut s = Select::over(self.query.to_rel());
        let from = Arc::make_mut(&mut s.from);
        from.alias = Some(self_alias.to_string());
        from.steps.push(Step::Join {
            kind,
            rel: other.query.to_rel(),
            alias: Some(other_alias.to_string()),
            on: on.cloned(),
        });
        self.derive(s)
    }

    /// Cross join without relation aliases: both sides' columns stay
    /// addressable by their own names. Used for JSONiq's successive
    /// `for`-over-collection clauses, whose join predicates arrive later as
    /// `where` conjuncts and are converted to hash-join conditions by the
    /// engine optimizer.
    pub fn cross_join(&self, other: &DataFrame) -> DataFrame {
        let mut s = self.open(Select::is_bare);
        let step = Step::Join { kind: JoinType::Cross, rel: other.query.to_rel(), alias: None, on: None };
        Arc::make_mut(&mut s.from).steps.push(step);
        self.derive(s)
    }

    /// Concatenates two dataframes (`UNION ALL`).
    pub fn union_all(&self, other: &DataFrame) -> DataFrame {
        let query = Query::UnionAll(Arc::new(self.query.clone()), Arc::new(other.query.clone()));
        DataFrame::of(self.session.clone(), query)
    }

    /// Sorts by the given keys.
    pub fn sort(&self, keys: &[(Col, SortOrder)]) -> DataFrame {
        let mut s = self.open(|s| s.order_by.is_empty() && s.limit.is_none());
        s.order_by = keys.to_vec();
        self.derive(s)
    }

    /// Keeps at most `n` rows.
    pub fn limit(&self, n: u64) -> DataFrame {
        let mut s = self.open(|s| s.limit.is_none());
        s.limit = Some(n);
        self.derive(s)
    }

    /// Removes duplicate rows.
    pub fn distinct(&self) -> DataFrame {
        let mut s = self.open(Select::ends_at_select_list);
        s.distinct = true;
        self.derive(s)
    }

    /// Triggers execution: ships the single SQL query to the engine and
    /// materializes the result.
    pub fn collect(&self) -> Result<QueryResult> {
        self.session.query(self.sql())
    }

    /// Convenience: `COUNT(*)` over this dataframe.
    pub fn count(&self) -> Result<i64> {
        let res = self.agg([f::count_star()]).collect()?;
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
    /// followed by the aggregate expressions, mirroring Snowpark. Like
    /// [`DataFrame::select`], it merges only over a plain `*`; a key computed
    /// by `with_column` is therefore grouped one level up.
    pub fn agg<I, T>(&self, aggs: I) -> DataFrame
    where
        I: IntoIterator<Item = T>,
        T: Into<AliasedCol>,
    {
        let mut s = self.df.open(Select::selects_star);
        s.star = None;
        s.items = self.keys.iter().map(AliasedCol::from).chain(aggs.into_iter().map(Into::into)).collect();
        s.group_by = self.keys.clone();
        self.df.derive(s)
    }
}
