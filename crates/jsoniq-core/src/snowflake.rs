//! The Snowflake translation layer — `process_native_snowflake`.
//!
//! Translates an iterator tree into **one** native SQL query by composing
//! `snowpark` `DataFrame`/`Col` objects, exactly as the paper's §III describes:
//! FLWOR clause iterators manipulate the dataframe, non-FLWOR iterators compose
//! columns, and nested queries are handled by one of two strategies (§IV-C):
//!
//! - [`NestedStrategy::FlagColumn`]: an `OUTER => TRUE` flatten plus a `KEEP`
//!   flag column guarantees every parent object keeps at least one row; the
//!   `return` value is `IFF(KEEP, value, NULL)` and `ARRAY_AGG` skips the
//!   `NULL`s at reaggregation.
//! - [`NestedStrategy::JoinBased`]: the row-id-tagged dataframe is duplicated;
//!   the nested query filters freely, reaggregates per row id, and a left outer
//!   join with `NVL` repairs the objects the nested query dropped.
//!
//! The supported JSONiq subset is the one the paper's workloads exercise
//! (§IV-E lists the same limitations): no recursive functions, no ordering
//! guarantees through the translation, positional predicates only, and
//! `group by` inside nested queries is not translated.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use snowdb::storage::Table;
use snowpark::functions as f;
use snowpark::{Col, DataFrame, JoinType, Session, SortOrder};

use crate::ast::{BinaryOp, Item, JResult, JsoniqError, Name};
use crate::itertree::{compile, Builtin, RIter};

/// Strategy for the erroneous-object-elimination problem (paper §IV-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NestedStrategy {
    /// Flag-column approach (§IV-C1). The paper's default for all ADL queries
    /// except Q6.
    #[default]
    FlagColumn,
    /// JOIN-based approach (§IV-C2). Used for Q6, where the nested query has
    /// many unboxing/filtering steps.
    JoinBased,
}

/// How a translated variable is accessed.
#[derive(Clone, Debug)]
enum Binding {
    /// Bound by `for $x in collection(...)`: the whole row; field lookups
    /// resolve to the table's columns.
    Row(Arc<Table>),
    /// Bound to a single column expression of the current dataframe.
    /// `seq` marks sequence-valued bindings (nested-query results, unboxed
    /// arrays), whose SQL representation is an ARRAY column.
    Value { col: Col, seq: bool },
    /// A non-key variable after `group by`: only usable inside aggregates.
    Grouped(Col),
    /// A non-key variable bound to a whole row after `group by`.
    GroupedRow(Arc<Table>),
}

/// The names of a table's columns, in order.
fn columns(table: &Table) -> impl Iterator<Item = &str> + '_ {
    table.schema().iter().map(|c| c.name.as_str())
}

/// One pending SQL aggregate created while translating expressions above a
/// `group by` clause.
struct PendingAgg {
    alias: String,
    expr: Col,
}

struct Ctx {
    df: DataFrame,
    /// Variables in scope, innermost last.
    bindings: Vec<(Name, Binding)>,
    /// Current flag column (flag-column strategy, inside a nested query).
    keep: Option<Col>,
    /// Group-by state: key column names plus pending aggregates.
    group: Option<GroupCtx>,
    /// Sort keys seen before `return` (applied after aggregation).
    pending_sort: Vec<(Col, SortOrder)>,
    /// Row-id columns of enclosing nested queries, innermost last; inner
    /// reaggregations must carry them through so the enclosing machinery can
    /// still group by them.
    rids: Vec<String>,
    /// Order-preservation column, when enabled.
    order_col: Option<String>,
}

struct GroupCtx {
    key_cols: Vec<String>,
    aggs: Vec<PendingAgg>,
}

impl Ctx {
    fn lookup(&self, var: &str) -> Option<&Binding> {
        self.bindings.iter().rev().find(|(v, _)| **v == *var).map(|(_, b)| b)
    }

    fn bind(&mut self, var: &Name, b: Binding) {
        self.bindings.push((var.clone(), b));
    }
}

/// Aggregation applied at the exit of a nested query, chosen from the calling
/// context (`let` wants the array, `count(...)`/`sum(...)` want a scalar) — this
/// is what lets the translation skip materializing arrays it would immediately
/// re-reduce, the pattern §V-D credits for Q8's speedup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AggMode {
    Array,
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// How a collection-row variable is used across the whole query, computed by
/// a pre-pass so nested-query reaggregation only restores (`ANY_VALUE`s) the
/// table columns the query actually touches — keeping the generated query's
/// scanned bytes in line with the handwritten baseline (paper §V-E).
#[derive(Clone, Debug)]
enum RowUsage {
    Fields(HashSet<Name>),
    Whole,
}

/// The JSONiq→SQL translator. One instance per query keeps fresh-name counters.
pub struct Translator {
    session: Session,
    strategy: NestedStrategy,
    fresh: usize,
    row_usage: HashMap<Name, RowUsage>,
    /// Use the engine's native `ARRAY_FILTER` for simple nested queries
    /// instead of the flatten/reaggregate machinery — the paper's §VII-B
    /// future-work feature. Off by default, matching the deployed system.
    native_array_filter: bool,
    /// Preserve the input order of the initial collection in the output
    /// (paper §IV-E: "we could address this by adding an order number to each
    /// item"). Off by default, matching the deployed system.
    preserve_order: bool,
}

impl Translator {
    /// Creates a translator bound to a session.
    pub fn new(session: Session, strategy: NestedStrategy) -> Translator {
        Translator {
            session,
            strategy,
            fresh: 0,
            row_usage: HashMap::new(),
            native_array_filter: false,
            preserve_order: false,
        }
    }

    /// Enables input-order preservation (paper §IV-E future work): the initial
    /// collection rows are numbered and, absent an explicit `order by`, the
    /// output is sorted by that number.
    pub fn with_order_preservation(mut self, on: bool) -> Translator {
        self.preserve_order = on;
        self
    }

    /// Enables the native `ARRAY_FILTER` fast path (paper §VII-B).
    pub fn with_native_array_filter(mut self, on: bool) -> Translator {
        self.native_array_filter = on;
        self
    }

    /// Translates JSONiq source into a single lazily-executable [`DataFrame`].
    pub fn translate(&mut self, src: &str) -> JResult<DataFrame> {
        let it = compile(src)?;
        self.translate_iter(&it)
    }

    /// Translates an already-compiled iterator tree.
    pub fn translate_iter(&mut self, it: &RIter) -> JResult<DataFrame> {
        self.row_usage.clear();
        analyze_row_usage(it, &mut self.row_usage);
        match it {
            RIter::ReturnClause { .. } => self.translate_flwor(it),
            _ => {
                // Non-FLWOR top level: evaluate over a synthetic single row.
                let mut ctx = self.one_row();
                let col = self.value(it, &mut ctx)?;
                Ok(ctx.df.select([col.alias("RESULT")]))
            }
        }
    }

    /// A context over one synthetic row with no bindings: what a query that
    /// does not start with a `for` over a collection is evaluated on.
    fn one_row(&self) -> Ctx {
        Ctx {
            df: self.session.sql("SELECT 1 AS \"$DUMMY\""),
            bindings: Vec::new(),
            keep: None,
            group: None,
            pending_sort: Vec::new(),
            rids: Vec::new(),
            order_col: None,
        }
    }

    fn fresh_name(&mut self, base: &str) -> String {
        self.fresh += 1;
        format!("{base}{}", self.fresh)
    }

    /// Sanitized SQL column name for a JSONiq variable.
    fn var_col(&mut self, var: &str) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(var.len() + 4);
        s.extend(
            var.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_uppercase() } else { '_' }),
        );
        self.fresh += 1;
        write!(s, "_{}", self.fresh).expect("writing to a String");
        s
    }

    // ---- FLWOR translation -------------------------------------------------

    /// Collects the clause chain of a FLWOR in source order.
    fn chain(root: &RIter) -> JResult<(Vec<&RIter>, &RIter)> {
        let (mut cur, ret) = match root {
            RIter::ReturnClause { left, expr } => (left.as_ref(), expr.as_ref()),
            _ => return Err(JsoniqError::Translate("expected a FLWOR".into())),
        };
        let mut clauses = Vec::new();
        loop {
            clauses.push(cur);
            let left = match cur {
                RIter::ForClause { left, .. } | RIter::LetClause { left, .. } => left.as_deref(),
                RIter::WhereClause { left, .. }
                | RIter::GroupByClause { left, .. }
                | RIter::OrderByClause { left, .. }
                | RIter::CountClause { left, .. } => Some(left.as_ref()),
                _ => return Err(JsoniqError::Translate("malformed FLWOR chain".into())),
            };
            match left {
                Some(l) => cur = l,
                None => break,
            }
        }
        clauses.reverse();
        Ok((clauses, ret))
    }

    /// Translates a chain of `let` clauses, first clause first.
    fn lets(&mut self, last: &RIter, ctx: &mut Ctx) -> JResult<()> {
        if let RIter::LetClause { left: Some(before), .. } = last {
            self.lets(before, ctx)?;
        }
        self.clause(last, ctx)
    }

    /// True when a FLWOR consists solely of `let` clauses (scalar computation).
    fn is_let_only(root: &RIter) -> bool {
        let RIter::ReturnClause { left, .. } = root else { return false };
        let mut clause = left.as_ref();
        loop {
            match clause {
                RIter::LetClause { left: Some(l), .. } => clause = l,
                RIter::LetClause { left: None, .. } => return true,
                _ => return false,
            }
        }
    }

    /// True when the expression is a nested FLWOR that requires the
    /// nested-query machinery (i.e. not a pure let chain).
    fn is_nested_flwor(e: &RIter) -> bool {
        matches!(e, RIter::ReturnClause { .. }) && !Self::is_let_only(e)
    }

    /// Hoists every nested query out of an expression *before* the expression
    /// itself is rendered (paper §IV-D: non-FLWOR iterators hosting nested
    /// queries must orchestrate the dataframe changes). Each nested query runs
    /// its machinery immediately; its scalar/array result is materialized into
    /// a fresh column bound to a hidden variable, and the expression is
    /// rewritten to reference that variable. This keeps sibling sub-expressions
    /// valid across the reaggregation that the machinery performs.
    /// An expression with nothing to hoist is translated as it is, uncopied.
    fn hoist<'e>(&mut self, e: &'e RIter, ctx: &mut Ctx) -> JResult<Cow<'e, RIter>> {
        if !self.hoists(e, ctx) {
            return Ok(Cow::Borrowed(e));
        }
        let mut e = e.clone();
        self.hoist_in_place(&mut e, ctx)?;
        Ok(Cow::Owned(e))
    }

    /// The hoisting machinery of an aggregate call: a nested FLWOR argument,
    /// or SUM/MIN/MAX/AVG over an array-valued value, which synthesizes a
    /// flatten + reaggregate.
    fn aggregate_runs_machinery(&self, func: Builtin, args: &[RIter], ctx: &Ctx) -> bool {
        use Builtin::*;
        matches!(func, Count | Sum | Min | Max | Avg | Exists | Empty)
            && args.len() == 1
            && (Self::is_nested_flwor(&args[0])
                || (matches!(func, Sum | Min | Max | Avg)
                    && matches!(
                        &args[0],
                        RIter::VarRef(_) | RIter::ObjectLookup { .. } | RIter::ArrayUnbox { .. }
                    )
                    && !self.uses_grouped_var(&args[0], ctx)))
    }

    /// Whether [`Translator::hoist_in_place`] would hoist anything out of `e`.
    fn hoists(&self, e: &RIter, ctx: &Ctx) -> bool {
        if let RIter::FunctionCall { func, args } = e {
            if self.aggregate_runs_machinery(*func, args, ctx) {
                return true;
            }
        }
        if Self::is_nested_flwor(e) {
            return true;
        }
        if e.is_flwor() {
            return false;
        }
        let mut found = false;
        e.for_each_child(&mut |c| found = found || self.hoists(c, ctx));
        found
    }

    /// [`Translator::hoist`], rewriting `e` in place.
    fn hoist_in_place(&mut self, e: &mut RIter, ctx: &mut Ctx) -> JResult<()> {
        // Aggregate call directly over a nested FLWOR: run the machinery in
        // the aggregate's mode (the §V-D Q8 optimization), hoist the scalar.
        if let RIter::FunctionCall { func, args } = e {
            // An aggregate that runs the reaggregation machinery is
            // evaluated (and stashed) up front: the machinery would
            // invalidate sibling sub-expressions rendered earlier.
            if self.aggregate_runs_machinery(*func, args, ctx) {
                let col = self.function(*func, args, ctx)?;
                *e = self.stash(col, false, ctx);
                return Ok(());
            }
        }
        if Self::is_nested_flwor(e) {
            let col = self.nested_query(e, AggMode::Array, ctx)?;
            *e = self.stash(col, true, ctx);
            return Ok(());
        }
        // Let-only FLWORs inline lazily in `value`.
        if e.is_flwor() {
            return Ok(());
        }
        e.try_for_each_child_mut(&mut |c| self.hoist_in_place(c, ctx))
    }

    /// Materializes a column and binds it to a hidden variable; returns the
    /// variable reference. Because the variable participates in `ctx.bindings`,
    /// later nested-query reaggregations restore it automatically.
    fn stash(&mut self, col: Col, seq: bool, ctx: &mut Ctx) -> RIter {
        let name = self.fresh_name("H");
        ctx.df = ctx.df.with_column(&name, &col);
        let hidden = Name::from(format!("#hoist{name}"));
        ctx.bind(&hidden, Binding::Value { col: f::col(&name), seq });
        RIter::VarRef(hidden)
    }

    /// If `e` is a lookup/unbox chain rooted at `collection(...)` (e.g. the
    /// paper's `collection("adl").Jet[]`), returns the collection name and the
    /// chain rewritten over a variable.
    fn extract_collection(e: &RIter, var: &Name) -> Option<(Name, RIter)> {
        match e {
            RIter::Collection(name) => Some((name.clone(), RIter::VarRef(var.clone()))),
            RIter::ObjectLookup { base, field } => {
                let (name, nb) = Self::extract_collection(base, var)?;
                Some((name, RIter::ObjectLookup { base: Box::new(nb), field: field.clone() }))
            }
            RIter::ArrayUnbox { base } => {
                let (name, nb) = Self::extract_collection(base, var)?;
                Some((name, RIter::ArrayUnbox { base: Box::new(nb) }))
            }
            RIter::ArrayLookup { base, index } => {
                let (name, nb) = Self::extract_collection(base, var)?;
                Some((name, RIter::ArrayLookup { base: Box::new(nb), index: index.clone() }))
            }
            _ => None,
        }
    }

    fn translate_flwor(&mut self, root: &RIter) -> JResult<DataFrame> {
        let (clauses, ret) = Self::chain(root)?;
        let (first, rest) =
            clauses.split_first().ok_or_else(|| JsoniqError::Translate("empty FLWOR".into()))?;
        let mut ctx = self.first_clause(first)?;
        for clause in rest {
            self.clause(clause, &mut ctx)?;
        }

        // `return`: translate the output expression (registering pending
        // aggregates when grouped), materialize the aggregation, sort, project.
        let ret = if ctx.group.is_some() {
            // In grouped mode the return expression is translated as-is so
            // aggregate calls over grouped variables register pending SQL
            // aggregates rather than nested queries.
            Cow::Borrowed(ret)
        } else {
            self.hoist(ret, &mut ctx)?
        };
        let out = self.value(&ret, &mut ctx)?;
        let mut df = ctx.df;
        let grouped = ctx.group.is_some();
        if let Some(group) = ctx.group.take() {
            df = Self::apply_group(df, &group);
        }
        if !ctx.pending_sort.is_empty() {
            df = df.sort(&ctx.pending_sort);
        } else if let Some(ord) = &ctx.order_col {
            // Grouping discards tuple order (JSONiq group-by defines no order
            // either); only ungrouped outputs reflect the input order.
            if !grouped {
                df = df.sort(&[(f::col(ord), SortOrder::Asc)]);
            }
        }
        Ok(df.select([out.alias("RESULT")]))
    }

    fn apply_group(df: DataFrame, group: &GroupCtx) -> DataFrame {
        let keys: Vec<Col> = group.key_cols.iter().map(|k| f::col(k)).collect();
        let items: Vec<_> = group.aggs.iter().map(|a| a.expr.alias(&a.alias)).collect();
        df.group_by(&keys).agg(items)
    }

    /// Translates the clause a query starts with: a `for` over a collection,
    /// or a `let` bound on the one-row frame of [`Translator::one_row`].
    fn first_clause(&mut self, clause: &RIter) -> JResult<Ctx> {
        let what = match clause {
            RIter::ForClause { var, at, expr, allowing_empty, .. } => {
                return self.open_for(var, at.as_ref(), expr, *allowing_empty)
            }
            RIter::LetClause { .. } => {
                let mut ctx = self.one_row();
                self.clause(clause, &mut ctx)?;
                return Ok(ctx);
            }
            RIter::WhereClause { .. } => "where cannot start a query",
            RIter::GroupByClause { .. } => "group by cannot start a query",
            RIter::OrderByClause { .. } => "order by cannot start a query",
            RIter::CountClause { .. } => "count cannot start a query",
            other => return Err(JsoniqError::Translate(format!("unexpected clause {other:?}"))),
        };
        Err(JsoniqError::Translate(what.into()))
    }

    /// Translates a clause after the first into `ctx`.
    fn clause(&mut self, clause: &RIter, ctx: &mut Ctx) -> JResult<()> {
        match clause {
            RIter::ForClause { var, at, expr, allowing_empty, .. } => {
                self.for_clause(var, at.as_ref(), expr, *allowing_empty, ctx)
            }
            RIter::LetClause { var, expr, .. } => {
                if ctx.group.is_some() {
                    return Err(JsoniqError::Translate(
                        "let after group by is not supported by the translation".into(),
                    ));
                }
                // Sequence-valued lets (`let $x := $e.JET[]`, `let $x := (for ...)`)
                // are represented as ARRAY columns and marked as sequences.
                let (col, seq) = match expr.as_ref() {
                    RIter::ArrayUnbox { base } => {
                        let base = self.hoist(base, ctx)?;
                        (self.value(&base, ctx)?, true)
                    }
                    RIter::ReturnClause { .. } if !Self::is_let_only(expr) => {
                        (self.value(expr, ctx)?, true)
                    }
                    _ => {
                        let e = self.hoist(expr, ctx)?;
                        (self.value(&e, ctx)?, false)
                    }
                };
                let name = self.var_col(var);
                ctx.df = ctx.df.with_column(&name, &col);
                ctx.bind(var, Binding::Value { col: f::col(&name), seq });
                Ok(())
            }
            RIter::WhereClause { pred, .. } => {
                if ctx.group.is_some() {
                    return Err(JsoniqError::Translate(
                        "where after group by is not supported by the translation".into(),
                    ));
                }
                let pred = self.hoist(pred, ctx)?;
                let cond = self.value(&pred, ctx)?;
                match &ctx.keep {
                    // Inside a flag-column nested query: fold the predicate
                    // into the KEEP flag instead of dropping rows (§IV-C1).
                    Some(keep) => {
                        let name = self.fresh_name("KEEP");
                        let flag = keep.and(&f::iff(&cond, &f::lit_b(true), &f::lit_b(false)));
                        ctx.df = ctx.df.with_column(&name, &flag);
                        ctx.keep = Some(f::col(&name));
                    }
                    None => {
                        ctx.df = ctx.df.filter(&cond);
                    }
                }
                Ok(())
            }
            RIter::GroupByClause { keys, .. } => {
                if ctx.keep.is_some() {
                    return Err(JsoniqError::Translate(
                        "group by inside a nested query is not supported".into(),
                    ));
                }
                let mut key_cols = Vec::with_capacity(keys.len());
                for (var, key_expr) in keys {
                    let col = match key_expr {
                        Some(e) => {
                            let e = self.hoist(e, ctx)?;
                            self.value(&e, ctx)?
                        }
                        None => match ctx.lookup(var) {
                            Some(Binding::Value { col: c, .. }) => c.clone(),
                            _ => {
                                return Err(JsoniqError::Translate(format!(
                                    "group-by variable ${var} must be bound to a value"
                                )))
                            }
                        },
                    };
                    let name = self.var_col(var);
                    ctx.df = ctx.df.with_column(&name, &col);
                    key_cols.push(name);
                }
                // Re-bind: keys become plain columns; every previous binding
                // becomes grouped (only aggregates may touch it).
                for (_, b) in &mut ctx.bindings {
                    match b {
                        Binding::Value { col: c, .. } => *b = Binding::Grouped(c.clone()),
                        Binding::Row(t) => *b = Binding::GroupedRow(t.clone()),
                        _ => {}
                    }
                }
                for ((var, _), name) in keys.iter().zip(&key_cols) {
                    ctx.bind(var, Binding::Value { col: f::col(name), seq: false });
                }
                ctx.group = Some(GroupCtx { key_cols, aggs: Vec::new() });
                Ok(())
            }
            RIter::OrderByClause { keys, .. } => {
                let mut sort = Vec::with_capacity(keys.len());
                for (e, desc) in keys {
                    let e = self.hoist(e, ctx)?;
                    let col = self.value(&e, ctx)?;
                    sort.push((col, if *desc { SortOrder::Desc } else { SortOrder::Asc }));
                }
                ctx.pending_sort = sort;
                Ok(())
            }
            RIter::CountClause { var, .. } => {
                // Tuple numbering; the translation processes data unordered
                // (paper §IV-E), so this numbering is arbitrary but unique.
                let name = self.var_col(var);
                ctx.df = ctx.df.with_column(&name, &f::seq8().add(&f::lit(1)));
                ctx.bind(var, Binding::Value { col: f::col(&name), seq: false });
                Ok(())
            }
            other => Err(JsoniqError::Translate(format!("unexpected clause {other:?}"))),
        }
    }

    /// The dataframe scanning a collection a `for` ranges over, and its
    /// table.
    fn collection(&self, name: &str, at: Option<&Name>) -> JResult<(DataFrame, Arc<Table>)> {
        if at.is_some() {
            return Err(JsoniqError::Translate(
                "positional variables over collections are not supported".into(),
            ));
        }
        let df = self.session.table(name);
        let table = self.session.database().table(name);
        let table =
            table.ok_or_else(|| JsoniqError::Translate(format!("unknown collection '{name}'")))?;
        Ok((df, table))
    }

    /// `for` as the first clause: it ranges over a collection, directly or
    /// through a path (`collection("t").FIELD[]`), and opens the context.
    fn open_for(
        &mut self,
        var: &Name,
        at: Option<&Name>,
        expr: &RIter,
        allowing_empty: bool,
    ) -> JResult<Ctx> {
        let RIter::Collection(name) = expr else {
            // Bind the collection to a hidden row variable first, then
            // proceed with the rewritten chain.
            let hidden = Name::from(self.fresh_name("#row"));
            let (name, rewritten) = Self::extract_collection(expr, &hidden).ok_or_else(|| {
                JsoniqError::Translate("a translated query must start with a collection".into())
            })?;
            let mut ctx = self.open_for(&hidden, None, &RIter::Collection(name), false)?;
            self.for_clause(var, at, &rewritten, allowing_empty, &mut ctx)?;
            return Ok(ctx);
        };
        let (df, table) = self.collection(name, at)?;
        let mut ctx = Ctx {
            df,
            bindings: Vec::new(),
            keep: None,
            group: None,
            pending_sort: Vec::new(),
            rids: Vec::new(),
            order_col: None,
        };
        if self.preserve_order {
            let ord = self.fresh_name("ORD");
            ctx.df = ctx.df.with_column(&ord, &f::seq8());
            ctx.order_col = Some(ord);
        }
        ctx.bind(var, Binding::Row(table));
        Ok(ctx)
    }

    /// A `for` after the first clause.
    fn for_clause(
        &mut self,
        var: &Name,
        at: Option<&Name>,
        expr: &RIter,
        allowing_empty: bool,
        ctx: &mut Ctx,
    ) -> JResult<()> {
        // `for $x in collection("t").FIELD[]`: bind the collection to a hidden
        // row variable first, then proceed with the rewritten chain.
        if !matches!(expr, RIter::Collection(_)) {
            let hidden = Name::from(self.fresh_name("#row"));
            if let Some((name, rewritten)) = Self::extract_collection(expr, &hidden) {
                self.for_clause(&hidden, None, &RIter::Collection(name), false, ctx)?;
                return self.for_clause(var, at, &rewritten, allowing_empty, ctx);
            }
        }
        match expr {
            RIter::Collection(name) => {
                let (table_df, table) = self.collection(name, at)?;
                // Successive `for` over another collection = join (paper
                // §II-E); emitted as a cross join whose predicates the engine
                // optimizer moves into the ON clause to form a hash join.
                ctx.df = ctx.df.cross_join(&table_df);
                ctx.bind(var, Binding::Row(table));
                Ok(())
            }
            _ => {
                // Array-valued sources flatten; which expressions are
                // array-valued is decided structurally (see DESIGN.md).
                let target = match expr {
                    RIter::ArrayUnbox { base } => self.value(base, ctx)?,
                    RIter::VarRef(_)
                    | RIter::ObjectLookup { .. }
                    | RIter::ArrayLookup { .. }
                    | RIter::ReturnClause { .. }
                    | RIter::FunctionCall { .. }
                    | RIter::If { .. } => self.value(expr, ctx)?,
                    RIter::Range { .. } => {
                        return Err(JsoniqError::Translate(
                            "range iteration is not supported by the translation; use `at` \
                             positional variables instead"
                                .into(),
                        ))
                    }
                    // Scalar expression: behaves like a singleton let.
                    other => {
                        let col = self.value(other, ctx)?;
                        let name = self.var_col(var);
                        ctx.df = ctx.df.with_column(&name, &col);
                        ctx.bind(var, Binding::Value { col: f::col(&name), seq: false });
                        if let Some(a) = at {
                            let aname = self.var_col(a);
                            ctx.df = ctx.df.with_column(&aname, &f::lit(1));
                            ctx.bind(a, Binding::Value { col: f::col(&aname), seq: false });
                        }
                        return Ok(());
                    }
                };
                let alias = self.fresh_name("F");
                let outer = ctx.keep.is_some() || allowing_empty;
                ctx.df = ctx.df.flatten(&target, &alias, outer);
                if let Some(keep) = &ctx.keep {
                    // Inside a nested query, maintain the KEEP flag: padding
                    // rows produced by the outer flatten must not contribute
                    // to reaggregation.
                    let name = self.fresh_name("KEEP");
                    let keep = keep.and(&f::flatten_index(&alias).is_not_null());
                    ctx.df = ctx.df.with_column(&name, &keep);
                    ctx.keep = Some(f::col(&name));
                }
                ctx.bind(var, Binding::Value { col: f::flatten_value(&alias), seq: false });
                if let Some(a) = at {
                    ctx.bind(a, Binding::Value { col: f::flatten_index(&alias).add(&f::lit(1)), seq: false });
                }
                Ok(())
            }
        }
    }

    // ---- nested queries ------------------------------------------------

    /// Translates a nested FLWOR appearing inside an expression, reaggregating
    /// per parent row. Returns a column holding the nested result (an array
    /// for [`AggMode::Array`], a scalar otherwise) and mutates `ctx.df`.
    fn nested_query(&mut self, root: &RIter, mode: AggMode, ctx: &mut Ctx) -> JResult<Col> {
        if self.native_array_filter {
            if let Some(col) = self.try_native_filter(root, mode, ctx)? {
                return Ok(col);
            }
        }
        match self.strategy {
            NestedStrategy::FlagColumn => self.nested_flag(root, mode, ctx),
            NestedStrategy::JoinBased => self.nested_join(root, mode, ctx),
        }
    }

    /// Recognizes `for $x in <array>[] where <simple predicates on $x>
    /// return $x` and emits chained `ARRAY_FILTER` calls: no flatten, no
    /// reaggregation, no row-id bookkeeping (paper §VII-B).
    fn try_native_filter(
        &mut self,
        root: &RIter,
        mode: AggMode,
        ctx: &mut Ctx,
    ) -> JResult<Option<Col>> {
        // Only Array/Count-shaped results have a native reduction.
        if !matches!(mode, AggMode::Array | AggMode::Count) {
            return Ok(None);
        }
        let (clauses, ret) = Self::chain(root)?;
        let (var, source) = match clauses.first() {
            Some(RIter::ForClause { var, at: None, allowing_empty: false, expr, .. }) => {
                match expr.as_ref() {
                    RIter::ArrayUnbox { base } => (var, base.as_ref()),
                    _ => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        if !matches!(ret, RIter::VarRef(v) if v == var) {
            return Ok(None);
        }
        // Every remaining clause must be a simple where over $var.
        let mut filters: Vec<(Option<Name>, &'static str, &RIter)> = Vec::new();
        for c in &clauses[1..] {
            let pred = match c {
                RIter::WhereClause { pred, .. } => pred,
                _ => return Ok(None),
            };
            let mut conjuncts = vec![pred.as_ref()];
            let mut simple = Vec::new();
            while let Some(e) = conjuncts.pop() {
                match e {
                    RIter::Logical { op: BinaryOp::And, left, right } => {
                        conjuncts.push(left);
                        conjuncts.push(right);
                    }
                    RIter::Comparison { op, left, right } => {
                        let (subject, lit, flip) = match (left.as_ref(), right.as_ref()) {
                            (s, RIter::Literal(_)) => (s, right.as_ref(), false),
                            (RIter::Literal(_), s) => (s, left.as_ref(), true),
                            _ => return Ok(None),
                        };
                        let field = match subject {
                            RIter::VarRef(v) if v == var => None,
                            RIter::ObjectLookup { base, field } => match base.as_ref() {
                                RIter::VarRef(v) if v == var => Some(field.clone()),
                                _ => return Ok(None),
                            },
                            _ => return Ok(None),
                        };
                        let op_str = match (op, flip) {
                            (BinaryOp::Eq, _) => "=",
                            (BinaryOp::Ne, _) => "<>",
                            (BinaryOp::Lt, false) | (BinaryOp::Gt, true) => "<",
                            (BinaryOp::Le, false) | (BinaryOp::Ge, true) => "<=",
                            (BinaryOp::Gt, false) | (BinaryOp::Lt, true) => ">",
                            (BinaryOp::Ge, false) | (BinaryOp::Le, true) => ">=",
                            _ => return Ok(None),
                        };
                        simple.push((field, op_str, lit));
                    }
                    _ => return Ok(None),
                }
            }
            filters.extend(simple);
        }
        let mut col = self.value(source, ctx)?;
        for (field, op, lit) in filters {
            let field_col = match field {
                Some(f) => f::lit_s(&f),
                None => f::null(),
            };
            let lit_col = self.value(lit, ctx)?;
            col = f::array_filter(&col, &field_col, &f::lit_s(op), &lit_col);
        }
        Ok(Some(match mode {
            AggMode::Array => col,
            AggMode::Count => f::array_size(&col),
            _ => unreachable!("guarded above"),
        }))
    }

    /// Ensures every `Value` binding is backed by a plain, uniquely named
    /// column, so it survives reaggregation and join re-qualification.
    fn materialize_bindings(&mut self, ctx: &mut Ctx) {
        let mut adds: Vec<(String, Col)> = Vec::new();
        for (v, b) in &mut ctx.bindings {
            if let Binding::Value { col, .. } = b {
                let name = self.var_col(v);
                let plain = f::col(&name);
                adds.push((name, std::mem::replace(col, plain)));
            }
        }
        for (name, c) in adds {
            ctx.df = ctx.df.with_column(&name, &c);
        }
    }

    /// Table columns backing `Row` bindings that must survive reaggregation:
    /// only the columns the whole query references through each row variable
    /// (all of them when the variable is used as a whole object).
    fn row_columns<'c>(&self, ctx: &'c Ctx) -> Vec<&'c str> {
        let mut cols: Vec<&str> = Vec::new();
        for (v, b) in &ctx.bindings {
            let Binding::Row(table) = b else { continue };
            let fields = match self.row_usage.get(&**v) {
                Some(RowUsage::Fields(fields)) => Some(fields),
                _ => None,
            };
            for c in columns(table) {
                let used = fields.is_none_or(|fs| fs.iter().any(|f| f.eq_ignore_ascii_case(c)));
                if used && !cols.contains(&c) {
                    cols.push(c);
                }
            }
        }
        cols
    }

    /// `(variable, column)` pairs for all `Value` bindings.
    fn value_columns(ctx: &Ctx) -> Vec<(Name, Col)> {
        let mut out = Vec::new();
        for (v, b) in &ctx.bindings {
            if let Binding::Value { col: c, .. } = b {
                out.push((v.clone(), c.clone()));
            }
        }
        out
    }

    fn agg_of(mode: AggMode, value: &Col) -> Col {
        match mode {
            AggMode::Array => f::array_agg(value),
            AggMode::Count => f::count(value),
            AggMode::Sum => f::sum(value),
            AggMode::Min => f::min(value),
            AggMode::Max => f::max(value),
            AggMode::Avg => f::avg(value),
        }
    }

    fn agg_default(mode: AggMode, col: &Col) -> Col {
        match mode {
            // JSONiq: an empty nested query yields [], count 0, sum 0.
            AggMode::Array => f::nvl(col, &f::array_construct(&[])),
            AggMode::Count | AggMode::Sum => f::nvl(col, &f::lit(0)),
            AggMode::Min | AggMode::Max | AggMode::Avg => col.clone(),
        }
    }

    /// Flag-column strategy (paper §IV-C1).
    fn nested_flag(&mut self, root: &RIter, mode: AggMode, ctx: &mut Ctx) -> JResult<Col> {
        let (clauses, ret) = Self::chain(root)?;
        self.materialize_bindings(ctx);
        let rid = self.fresh_name("RID");
        ctx.df = ctx.df.with_column(&rid, &f::seq8());
        ctx.rids.push(rid.clone());

        // Enter the nested query: same dataframe, KEEP tracking on.
        let outer_keep = ctx.keep.clone();
        let keep0 = self.fresh_name("KEEP");
        let init = outer_keep.clone().unwrap_or_else(|| f::lit_b(true));
        ctx.df = ctx.df.with_column(&keep0, &init);
        ctx.keep = Some(f::col(&keep0));
        let bindings_before = ctx.bindings.len();

        for c in clauses {
            self.clause(c, ctx)?;
        }
        let ret = self.hoist(ret, ctx)?;
        let value = self.value(&ret, ctx)?;
        let keep = ctx.keep.clone().expect("keep flag");
        let guarded = f::iff(&keep, &value, &f::null());

        // Reaggregate by row id; restore outer bindings via ANY_VALUE.
        let result = self.fresh_name("NESTED");
        let mut items = vec![Self::agg_of(mode, &guarded).alias(&result)];
        // Bindings created inside the nested query go out of scope.
        ctx.bindings.truncate(bindings_before);
        for c in self.row_columns(ctx) {
            items.push(f::any_value(&f::col(c)).alias(c));
        }
        let mut rebind = Vec::new();
        for (v, col) in Self::value_columns(ctx) {
            let name = self.var_col(&v);
            items.push(f::any_value(&col).alias(&name));
            rebind.push((v, name));
        }
        // Preserve the row ids of enclosing nested queries.
        for outer_rid in ctx.rids.iter().filter(|r| **r != rid) {
            items.push(f::any_value(&f::col(outer_rid)).alias(outer_rid));
        }
        // Preserve the order-preservation column, if any.
        if let Some(ord) = &ctx.order_col {
            items.push(f::any_value(&f::col(ord)).alias(ord));
        }
        // Restore the enclosing KEEP flag, if any.
        let restored_keep = if let Some(k) = &outer_keep {
            let name = self.fresh_name("KEEP");
            items.push(f::any_value(k).alias(&name));
            Some(f::col(&name))
        } else {
            None
        };
        ctx.df = ctx.df.group_by(&[f::col(&rid)]).agg(items);
        for (v, name) in rebind {
            if let Some(slot) = ctx.bindings.iter_mut().rev().find(|(bv, _)| *bv == v) {
                let seq = matches!(slot.1, Binding::Value { seq: true, .. });
                slot.1 = Binding::Value { col: f::col(&name), seq };
            }
        }
        ctx.keep = restored_keep;
        ctx.rids.retain(|r| *r != rid);
        Ok(Self::agg_default(mode, &f::col(&result)))
    }

    /// JOIN-based strategy (paper §IV-C2).
    fn nested_join(&mut self, root: &RIter, mode: AggMode, ctx: &mut Ctx) -> JResult<Col> {
        let (clauses, ret) = Self::chain(root)?;
        self.materialize_bindings(ctx);
        let rid = self.fresh_name("RID");
        ctx.df = ctx.df.with_column(&rid, &f::seq8());
        // Copy the dataframe (same SQL text; SEQ8 is deterministic per plan
        // site, so both copies assign identical row ids).
        let copy = ctx.df.clone();

        // The nested query runs with plain filters and non-outer flattens,
        // freely eliminating rows.
        let mut inner = Ctx {
            df: ctx.df.clone(),
            bindings: ctx.bindings.clone(),
            keep: None,
            group: None,
            pending_sort: Vec::new(),
            rids: {
                let mut r = ctx.rids.clone();
                r.push(rid.clone());
                r
            },
            order_col: ctx.order_col.clone(),
        };
        for c in clauses {
            self.clause(c, &mut inner)?;
        }
        let ret = self.hoist(ret, &mut inner)?;
        let value = self.value(&ret, &mut inner)?;
        let result = self.fresh_name("NESTED");
        let partial = inner
            .df
            .group_by(&[f::col(&rid)])
            .agg([Self::agg_of(mode, &value).alias(&result)]);

        // Left outer join the copy with the partial result on the row id.
        let l = self.fresh_name("L");
        let r = self.fresh_name("R");
        let on = f::col_of(&l, &rid).eq(&f::col_of(&r, &rid));
        ctx.df = copy.join(&partial, JoinType::LeftOuter, &l, &r, Some(&on));
        // `materialize_bindings` made every binding a plain bare-named column,
        // which still resolves after the join; the result needs NULL repair.
        Ok(Self::agg_default(mode, &f::col_of(&r, &result)))
    }

    // ---- expression translation ---------------------------------------

    /// Translates a non-FLWOR expression to a [`Col`]. Nested FLWORs reached
    /// here run the nested-query machinery, mutating `ctx.df` (the paper's
    /// "the incoming DataFrame is passed into the right child").
    fn value(&mut self, it: &RIter, ctx: &mut Ctx) -> JResult<Col> {
        match it {
            RIter::Literal(v) => literal(v),
            RIter::VarRef(v) => match ctx.lookup(v) {
                Some(Binding::Value { col: c, .. }) => Ok(c.clone()),
                Some(Binding::Row(table)) => {
                    // Whole-row reference: reconstruct the object.
                    let pairs: Vec<(&str, Col)> = columns(table).map(|c| (c, f::col(c))).collect();
                    Ok(f::object_construct(&pairs))
                }
                Some(Binding::Grouped(_)) | Some(Binding::GroupedRow(_)) => {
                    Err(JsoniqError::Translate(format!(
                        "grouped variable ${v} may only be used inside an aggregate function"
                    )))
                }
                None => Err(JsoniqError::Translate(format!("unbound variable ${v}"))),
            },
            RIter::ObjectLookup { base, field } => match base.as_ref() {
                RIter::VarRef(v) => match ctx.lookup(v) {
                    Some(Binding::Row(table)) => {
                        let name =
                            columns(table).find(|c| c.eq_ignore_ascii_case(field)).ok_or_else(
                                || {
                                    JsoniqError::Translate(format!(
                                        "collection bound to ${v} has no column '{field}'"
                                    ))
                                },
                            )?;
                        Ok(f::col(name))
                    }
                    Some(Binding::Value { col: c, .. }) => Ok(c.subfield(field)),
                    Some(Binding::Grouped(_)) | Some(Binding::GroupedRow(_)) => {
                        Err(JsoniqError::Translate(format!(
                            "grouped variable ${v} may only be used inside an aggregate"
                        )))
                    }
                    None => Err(JsoniqError::Translate(format!("unbound variable ${v}"))),
                },
                _ => Ok(self.value(base, ctx)?.subfield(field)),
            },
            RIter::ArrayLookup { base, index } => {
                let b = self.value(base, ctx)?;
                let i = self.value(index, ctx)?;
                // JSONiq is 1-based, Snowflake GET is 0-based.
                Ok(f::get(&b, &i.sub(&f::lit(1))))
            }
            RIter::Predicate { base, pred } => {
                let b = match base.as_ref() {
                    RIter::ReturnClause { .. } => self.nested_query(base, AggMode::Array, ctx)?,
                    _ => self.value(base, ctx)?,
                };
                let p = self.value(pred, ctx)?;
                Ok(f::get(&b, &p.sub(&f::lit(1))))
            }
            RIter::Comparison { op, left, right } => {
                let l = self.value(left, ctx)?;
                let r = self.value(right, ctx)?;
                Ok(match op {
                    BinaryOp::Eq => l.eq(&r),
                    BinaryOp::Ne => l.neq(&r),
                    BinaryOp::Lt => l.lt(&r),
                    BinaryOp::Le => l.le(&r),
                    BinaryOp::Gt => l.gt(&r),
                    BinaryOp::Ge => l.ge(&r),
                    _ => return Err(JsoniqError::Translate("bad comparison".into())),
                })
            }
            RIter::Arithmetic { op, left, right } => {
                let l = self.value(left, ctx)?;
                let r = self.value(right, ctx)?;
                Ok(match op {
                    BinaryOp::Add => l.add(&r),
                    BinaryOp::Sub => l.sub(&r),
                    BinaryOp::Mul => l.mul(&r),
                    BinaryOp::Div => l.div(&r),
                    // Floor-based integer division; the workloads use it on
                    // non-negative domains where it matches truncation.
                    BinaryOp::IDiv => f::floor(&l.div(&r)).cast("INT"),
                    BinaryOp::Mod => l.rem(&r),
                    _ => return Err(JsoniqError::Translate("bad arithmetic".into())),
                })
            }
            RIter::Logical { op, left, right } => {
                let l = self.value(left, ctx)?;
                let r = self.value(right, ctx)?;
                Ok(match op {
                    BinaryOp::And => l.and(&r),
                    BinaryOp::Or => l.or(&r),
                    _ => return Err(JsoniqError::Translate("bad logical".into())),
                })
            }
            RIter::StringConcat { left, right } => {
                let l = self.value(left, ctx)?;
                let r = self.value(right, ctx)?;
                Ok(f::concat2(&l, &r))
            }
            RIter::Not(x) => Ok(self.value(x, ctx)?.not()),
            RIter::Neg(x) => Ok(self.value(x, ctx)?.neg()),
            RIter::If { cond, then, else_ } => {
                let c = self.value(cond, ctx)?;
                let t = self.value(then, ctx)?;
                let e = self.value(else_, ctx)?;
                Ok(f::iff(&c, &t, &e))
            }
            RIter::ObjectConstructor(pairs) => {
                let mut items: Vec<(&str, Col)> = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    items.push((k, self.value(v, ctx)?));
                }
                Ok(f::object_construct(&items))
            }
            RIter::ArrayConstructor(items) => {
                // Members that are themselves sequences/arrays concatenate via
                // ARRAY_CAT; scalars wrap in singleton arrays.
                let mut acc: Option<Col> = None;
                let mut scalars: Vec<Col> = Vec::new();
                fn flush(acc: &mut Option<Col>, scalars: &mut Vec<Col>) {
                    if !scalars.is_empty() {
                        let refs: Vec<&Col> = scalars.iter().collect();
                        let arr = f::array_construct(&refs);
                        *acc = Some(match acc.take() {
                            None => arr,
                            Some(a) => f::array_cat(&a, &arr),
                        });
                        scalars.clear();
                    }
                }
                for item in items {
                    let is_seq_var = matches!(item, RIter::VarRef(v)
                        if matches!(ctx.lookup(v), Some(Binding::Value { seq: true, .. })));
                    if is_seq_var {
                        let arr = self.value(item, ctx)?;
                        flush(&mut acc, &mut scalars);
                        acc = Some(match acc.take() {
                            None => arr,
                            Some(a) => f::array_cat(&a, &arr),
                        });
                        continue;
                    }
                    match item {
                        RIter::ArrayUnbox { base } => {
                            let arr = self.value(base, ctx)?;
                            flush(&mut acc, &mut scalars);
                            acc = Some(match acc.take() {
                                None => arr,
                                Some(a) => f::array_cat(&a, &arr),
                            });
                        }
                        RIter::ReturnClause { .. } => {
                            let arr = self.nested_query(item, AggMode::Array, ctx)?;
                            flush(&mut acc, &mut scalars);
                            acc = Some(match acc.take() {
                                None => arr,
                                Some(a) => f::array_cat(&a, &arr),
                            });
                        }
                        _ => scalars.push(self.value(item, ctx)?),
                    }
                }
                flush(&mut acc, &mut scalars);
                Ok(acc.unwrap_or_else(|| f::array_construct(&[])))
            }
            RIter::Sequence(items) => match items.as_slice() {
                [] => Ok(f::null()),
                [one] => self.value(one, ctx),
                _ => Err(JsoniqError::Translate(
                    "general sequences are not supported by the translation; use arrays".into(),
                )),
            },
            RIter::ArrayUnbox { .. } => Err(JsoniqError::Translate(
                "array unboxing is only supported in for clauses, aggregates, and array \
                 constructors"
                    .into(),
            )),
            RIter::Range { .. } => Err(JsoniqError::Translate(
                "range expressions are not supported by the translation".into(),
            )),
            RIter::ReturnClause { left, expr } => {
                if Self::is_let_only(it) {
                    // A let-only FLWOR (typically produced by function
                    // inlining) is a scalar computation, not a nested query.
                    self.lets(left, ctx)?;
                    self.value(expr, ctx)
                } else {
                    self.nested_query(it, AggMode::Array, ctx)
                }
            }
            RIter::ForClause { .. }
            | RIter::LetClause { .. }
            | RIter::WhereClause { .. }
            | RIter::GroupByClause { .. }
            | RIter::OrderByClause { .. }
            | RIter::CountClause { .. } => {
                Err(JsoniqError::Translate("dangling FLWOR clause".into()))
            }
            RIter::Collection(_) => Err(JsoniqError::Translate(
                "collection() is only supported as a for-clause source".into(),
            )),
            RIter::FunctionCall { func, args } => self.function(*func, args, ctx),
        }
    }

    /// Maps aggregate-style builtins over sequences (grouped variables, nested
    /// FLWORs, unboxed arrays) and scalar builtins over columns.
    fn function(&mut self, func: Builtin, args: &[RIter], ctx: &mut Ctx) -> JResult<Col> {
        use Builtin::*;
        // Sequence aggregates first: their argument decides the plan shape.
        if matches!(func, Count | Sum | Min | Max | Avg | Exists | Empty) {
            let arg = args
                .first()
                .ok_or_else(|| JsoniqError::Translate(format!("{func:?} requires an argument")))?;
            let mode = match func {
                Count | Exists | Empty => AggMode::Count,
                Sum => AggMode::Sum,
                Min => AggMode::Min,
                Max => AggMode::Max,
                Avg => AggMode::Avg,
                _ => unreachable!(),
            };
            let scalar = match arg {
                // Aggregate over a nested query: reaggregate directly in the
                // wanted mode, skipping the intermediate array (cf. §V-D Q8).
                RIter::ReturnClause { .. } => Some(self.nested_query(arg, mode, ctx)?),
                // Aggregate over an unboxed array.
                RIter::ArrayUnbox { base } => {
                    let col = self.value(base, ctx)?;
                    match func {
                        Count | Exists | Empty => Some(f::array_size(&col)),
                        // SUM/MIN/MAX/AVG over an array have no single SQL
                        // function; synthesize a flatten + reaggregate.
                        _ => Some(self.aggregate_array(base, mode, ctx)?),
                    }
                }
                // Aggregate over a grouped variable (after group by).
                RIter::VarRef(v)
                    if matches!(ctx.lookup(v), Some(Binding::Grouped(_) | Binding::GroupedRow(_))) =>
                {
                    let agg_expr = match (func, ctx.lookup(v).cloned()) {
                        (Count, _) => f::count_star(),
                        (_, Some(Binding::Grouped(c))) => Self::agg_of(mode, &c),
                        _ => {
                            return Err(JsoniqError::Translate(format!(
                                "cannot aggregate grouped row variable ${v} with {func:?}"
                            )))
                        }
                    };
                    Some(self.register_agg(agg_expr, ctx)?)
                }
                // Aggregate over an expression of grouped variables, e.g.
                // sum($x.price).
                e if self.uses_grouped_var(e, ctx) => {
                    let inner = self.value_with_grouped_as_value(e, ctx)?;
                    let agg_expr = Self::agg_of(mode, &inner);
                    Some(self.register_agg(agg_expr, ctx)?)
                }
                // Aggregate over a variable/lookup holding an array.
                RIter::VarRef(_) | RIter::ObjectLookup { .. } => {
                    let col = self.value(arg, ctx)?;
                    match func {
                        Count | Exists | Empty => Some(f::array_size(&col)),
                        _ => Some(self.aggregate_array(arg, mode, ctx)?),
                    }
                }
                _ => None,
            };
            let scalar = scalar.ok_or_else(|| {
                JsoniqError::Translate(format!("unsupported aggregate argument for {func:?}"))
            })?;
            return Ok(match func {
                Exists => scalar.gt(&f::lit(0)),
                Empty => scalar.le(&f::lit(0)),
                Sum | Count => f::nvl(&scalar, &f::lit(0)),
                _ => scalar,
            });
        }

        let mut cols = Vec::with_capacity(args.len());
        for a in args {
            cols.push(self.value(a, ctx)?);
        }
        let one = |cols: &[Col]| -> JResult<Col> {
            cols.first()
                .cloned()
                .ok_or_else(|| JsoniqError::Translate("missing function argument".into()))
        };
        let two = |cols: &[Col]| -> JResult<(Col, Col)> {
            match cols {
                [a, b, ..] => Ok((a.clone(), b.clone())),
                _ => Err(JsoniqError::Translate("missing function argument".into())),
            }
        };
        Ok(match func {
            Abs => f::abs(&one(&cols)?),
            Sqrt => f::sqrt(&one(&cols)?),
            Exp => f::exp(&one(&cols)?),
            Log => f::ln(&one(&cols)?),
            Pow => {
                let (a, b) = two(&cols)?;
                f::pow(&a, &b)
            }
            Floor => f::floor(&one(&cols)?),
            Ceiling => f::ceil(&one(&cols)?),
            Round => f::round(&one(&cols)?),
            Sin => f::sin(&one(&cols)?),
            Cos => f::cos(&one(&cols)?),
            Tan => f::tan(&one(&cols)?),
            Asin => f::asin(&one(&cols)?),
            Acos => f::acos(&one(&cols)?),
            Atan => f::atan(&one(&cols)?),
            Atan2 => {
                let (a, b) = two(&cols)?;
                f::atan2(&a, &b)
            }
            Sinh => f::sinh(&one(&cols)?),
            Cosh => f::cosh(&one(&cols)?),
            Tanh => f::tanh(&one(&cols)?),
            Pi => f::pi(),
            Size => f::array_size(&one(&cols)?),
            Keys | Members => {
                return Err(JsoniqError::Translate(format!(
                    "{func:?} is not supported by the translation"
                )))
            }
            Not => one(&cols)?.not(),
            Boolean => one(&cols)?,
            Head => f::get(&one(&cols)?, &f::lit(0)),
            Integer => one(&cols)?.cast("INT"),
            Double => f::to_double(&one(&cols)?),
            StringFn => one(&cols)?.cast("VARCHAR"),
            Concat => {
                let mut it = cols.iter();
                let first = it.next().cloned().unwrap_or_else(|| f::lit_s(""));
                it.fold(first, |acc, c| f::concat2(&acc, c))
            }
            Substring => {
                if cols.len() >= 3 {
                    f::substr3(&cols[0], &cols[1], &cols[2])
                } else {
                    let (a, b) = two(&cols)?;
                    f::substr2(&a, &b)
                }
            }
            StringLength => f::length(&one(&cols)?),
            Count | Sum | Min | Max | Avg | Exists | Empty => unreachable!("handled above"),
        })
    }

    /// Aggregates over an array-valued expression by synthesizing the nested
    /// query `for $x in <expr> return $x` and reaggregating in the requested
    /// mode (there is no single-call SQL array-SUM).
    fn aggregate_array(&mut self, arg: &RIter, mode: AggMode, ctx: &mut Ctx) -> JResult<Col> {
        let tmp = Name::from(self.fresh_name("#agg"));
        let fl = RIter::ReturnClause {
            left: Box::new(RIter::ForClause {
                left: None,
                var: tmp.clone(),
                at: None,
                allowing_empty: false,
                expr: Box::new(arg.clone()),
            }),
            expr: Box::new(RIter::VarRef(tmp)),
        };
        self.nested_query(&fl, mode, ctx)
    }

    /// Registers a pending aggregate for the current group-by and returns the
    /// column referring to it.
    fn register_agg(&mut self, expr: Col, ctx: &mut Ctx) -> JResult<Col> {
        let group = ctx.group.as_mut().ok_or_else(|| {
            JsoniqError::Translate("aggregate over a grouped variable outside group by".into())
        })?;
        let alias = format!("AGG{}", group.aggs.len());
        group.aggs.push(PendingAgg { alias: alias.clone(), expr });
        Ok(f::col(&alias))
    }

    /// True when the expression references a grouped variable.
    fn uses_grouped_var(&self, it: &RIter, ctx: &Ctx) -> bool {
        let mut found = false;
        it.visit(&mut |n| {
            if let RIter::VarRef(v) = n {
                if matches!(ctx.lookup(v), Some(Binding::Grouped(_) | Binding::GroupedRow(_))) {
                    found = true;
                }
            }
        });
        found
    }

    /// Translates an aggregate argument, temporarily treating grouped bindings
    /// as their per-tuple values (keys and per-tuple columns are both valid
    /// inside an aggregate argument).
    fn value_with_grouped_as_value(&mut self, it: &RIter, ctx: &mut Ctx) -> JResult<Col> {
        let saved = ctx.bindings.clone();
        for (_, b) in ctx.bindings.iter_mut() {
            match b {
                Binding::Grouped(c) => {
                    *b = Binding::Value { col: c.clone(), seq: false }
                }
                Binding::GroupedRow(t) => *b = Binding::Row(t.clone()),
                _ => {}
            }
        }
        let result = self.value(it, ctx);
        ctx.bindings = saved;
        result
    }
}

/// Collects, for every variable, which fields the query looks up on it —
/// or `Whole` when the variable occurs as a value itself (e.g. `return $e`).
fn analyze_row_usage(it: &RIter, out: &mut HashMap<Name, RowUsage>) {
    match it {
        RIter::ObjectLookup { base, field } => {
            if let RIter::VarRef(v) = base.as_ref() {
                let usage =
                    out.entry(v.clone()).or_insert_with(|| RowUsage::Fields(HashSet::new()));
                if let RowUsage::Fields(set) = usage {
                    set.insert(field.clone());
                }
                return;
            }
        }
        RIter::VarRef(v) => {
            out.insert(v.clone(), RowUsage::Whole);
        }
        // COUNT/EXISTS/EMPTY over a bare variable count tuples without
        // reading any column (they translate to COUNT(*)).
        RIter::FunctionCall { func: Builtin::Count | Builtin::Exists | Builtin::Empty, args }
            if matches!(args.as_slice(), [RIter::VarRef(_)]) =>
        {
            return;
        }
        _ => {}
    }
    it.for_each_child(&mut |c| analyze_row_usage(c, out));
}

/// Renders a JSONiq literal as a SQL literal column.
fn literal(v: &Item) -> JResult<Col> {
    Ok(match v {
        Item::Null => f::null(),
        Item::Bool(b) => f::lit_b(*b),
        Item::Int(i) => f::lit(*i),
        Item::Float(x) => f::lit_f(*x),
        Item::Str(s) => f::lit_s(s),
        Item::Array(_) | Item::Object(_) => {
            return Err(JsoniqError::Translate(
                "structured literals must use constructors".into(),
            ))
        }
    })
}

/// Convenience entry point: translate a JSONiq query against a database and
/// return the dataframe (call `.collect()` to execute, `.sql()` to inspect).
pub fn translate_query(
    db: Arc<snowdb::Database>,
    src: &str,
    strategy: NestedStrategy,
) -> JResult<DataFrame> {
    let session = Session::new(db);
    Translator::new(session, strategy).translate(src)
}
