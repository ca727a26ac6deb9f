//! Binder: resolves a parsed [`Query`] against a catalog into a bound [`Node`] tree.

use std::sync::Arc;

use super::{
    AggExpr, AggKind, CastType, Field, FuncId, Node, NodeKind, PExpr, PStep, SortKey,
};
use crate::error::{Result, SnowError};
use crate::sql::{
    BinOp, Expr, FromItem, PathStep, Query, Select, SelectItem, SetExpr, TableFactor, Travel,
};
use crate::storage::Table;
use crate::variant::Variant;

/// Table lookup interface the binder needs from the engine.
pub trait Catalog {
    /// Fetches a table snapshot by (upper-cased) name.
    fn table(&self, name: &str) -> Option<Arc<Table>>;

    /// Fetches a table as of a retained historical version (`AT`/`BEFORE`).
    /// Contexts without store-backed history — plain snapshots, the
    /// interpreter's ad-hoc catalogs — keep the default, which rejects the
    /// clause with a typed plan error.
    fn table_at(&self, name: &str, travel: &Travel) -> Result<Arc<Table>> {
        let _ = name;
        let _ = travel;
        Err(SnowError::Plan(
            "time travel (AT/BEFORE) is not supported in this context".into(),
        ))
    }
}

/// Binds a query to a logical plan.
pub fn bind_query(q: &Query, catalog: &dyn Catalog) -> Result<Node> {
    Binder { catalog }.query(q)
}

/// Output columns produced by `LATERAL FLATTEN`, in order.
pub const FLATTEN_FIELDS: [&str; 5] = ["VALUE", "INDEX", "KEY", "SEQ", "THIS"];

struct Binder<'a> {
    catalog: &'a dyn Catalog,
}

impl<'a> Binder<'a> {
    fn query(&self, q: &Query) -> Result<Node> {
        let mut node = self.set_expr(&q.body)?;
        if !q.order_by.is_empty() {
            let mut keys = Vec::with_capacity(q.order_by.len());
            for item in &q.order_by {
                let expr = self.order_key(&item.expr, &node.fields)?;
                keys.push(SortKey { expr, desc: item.desc, nulls_first: item.nulls_first });
            }
            let fields = node.fields.clone();
            node = Node::new(NodeKind::Sort { input: Box::new(node), keys }, fields);
        }
        if let Some(n) = q.limit {
            let fields = node.fields.clone();
            node = Node::new(NodeKind::Limit { input: Box::new(node), n }, fields);
        }
        Ok(node)
    }

    /// ORDER BY keys resolve against the query output: by ordinal, by output
    /// name, or as an arbitrary expression over output columns.
    fn order_key(&self, e: &Expr, fields: &[Field]) -> Result<PExpr> {
        if let Expr::Literal(Variant::Int(n)) = e {
            let idx = *n - 1;
            if idx < 0 || idx as usize >= fields.len() {
                return Err(SnowError::Plan(format!(
                    "ORDER BY position {n} is out of range (1..={})",
                    fields.len()
                )));
            }
            return Ok(PExpr::Col(idx as usize));
        }
        match bind_expr(e, fields, None) {
            Ok(p) => Ok(p),
            // Projection output drops relation qualifiers, but `ORDER BY t.x`
            // should still find the output column named `x` (Snowflake does).
            Err(first_err) => {
                if let Expr::Ident(parts) = e {
                    if parts.len() == 2 {
                        let bare = Expr::Ident(vec![parts[1].clone()]);
                        if let Ok(p) = bind_expr(&bare, fields, None) {
                            return Ok(p);
                        }
                    }
                }
                Err(first_err)
            }
        }
    }

    fn set_expr(&self, body: &SetExpr) -> Result<Node> {
        match body {
            SetExpr::Select(s) => self.select(s),
            SetExpr::Query(q) => self.query(q),
            SetExpr::UnionAll(l, r) => {
                let left = self.set_expr(l)?;
                let right = self.set_expr(r)?;
                if left.arity() != right.arity() {
                    return Err(SnowError::Plan(format!(
                        "UNION ALL arity mismatch: {} vs {}",
                        left.arity(),
                        right.arity()
                    )));
                }
                let fields = left.fields.clone();
                Ok(Node::new(
                    NodeKind::UnionAll { left: Box::new(left), right: Box::new(right) },
                    fields,
                ))
            }
        }
    }

    fn select(&self, s: &Select) -> Result<Node> {
        // FROM
        let mut node = match &s.from {
            Some(from) => self.bind_from_clause(from)?,
            None => Node::new(NodeKind::Values, Vec::new()),
        };

        // WHERE
        if let Some(pred) = &s.selection {
            if contains_aggregate(pred) {
                return Err(SnowError::Plan("aggregate functions are not allowed in WHERE".into()));
            }
            let bound = bind_expr(pred, &node.fields, None)?;
            let fields = node.fields.clone();
            node = Node::new(NodeKind::Filter { input: Box::new(node), pred: bound }, fields);
        }

        let has_aggs = !s.group_by.is_empty()
            || s.having.is_some()
            || s.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => contains_aggregate(expr),
                _ => false,
            });

        node = if has_aggs {
            self.aggregate_select(s, node)?
        } else {
            self.plain_select(s, node)?
        };

        if s.distinct {
            let fields = node.fields.clone();
            node = Node::new(NodeKind::Distinct { input: Box::new(node) }, fields);
        }
        Ok(node)
    }

    fn plain_select(&self, s: &Select, input: Node) -> Result<Node> {
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard { exclude } => {
                    for (i, f) in input.fields.iter().enumerate() {
                        if exclude.iter().any(|x| x.eq_ignore_ascii_case(&f.name)) {
                            continue;
                        }
                        exprs.push(PExpr::Col(i));
                        fields.push(f.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for (i, f) in input.fields.iter().enumerate() {
                        if f.qualifier.as_deref().is_some_and(|fq| fq.eq_ignore_ascii_case(q)) {
                            exprs.push(PExpr::Col(i));
                            fields.push(f.clone());
                            any = true;
                        }
                    }
                    if !any {
                        return Err(SnowError::Plan(format!("unknown relation '{q}' in {q}.*")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = bind_expr(expr, &input.fields, None)?;
                    fields.push(Field::bare(derive_name(expr, alias.as_deref(), fields.len())));
                    exprs.push(bound);
                }
            }
        }
        Ok(Node::new(NodeKind::Project { input: Box::new(input), exprs }, fields))
    }

    fn aggregate_select(&self, s: &Select, input: Node) -> Result<Node> {
        // Bind GROUP BY expressions over the input.
        let mut groups = Vec::with_capacity(s.group_by.len());
        for g in &s.group_by {
            if contains_aggregate(g) {
                return Err(SnowError::Plan("aggregates are not allowed in GROUP BY".into()));
            }
            groups.push(bind_expr(g, &input.fields, None)?);
        }

        let mut ctx = AggCtx {
            group_asts: &s.group_by,
            n_groups: groups.len(),
            aggs: Vec::new(),
            input_fields: &input.fields,
        };

        // Bind select items and HAVING in the aggregate context; this fills
        // `ctx.aggs` as a side effect.
        let mut out_exprs = Vec::new();
        let mut out_fields = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let bound = bind_agg_expr(expr, &mut ctx)?;
                    out_fields
                        .push(Field::bare(derive_name(expr, alias.as_deref(), out_fields.len())));
                    out_exprs.push(bound);
                }
                _ => {
                    return Err(SnowError::Plan(
                        "wildcard select items cannot be combined with GROUP BY/aggregates".into(),
                    ))
                }
            }
        }
        let having = s.having.as_ref().map(|h| bind_agg_expr(h, &mut ctx)).transpose()?;

        // Aggregate output fields: groups (named when they are plain columns)
        // then aggregates.
        let mut agg_fields = Vec::with_capacity(ctx.n_groups + ctx.aggs.len());
        for (i, g) in s.group_by.iter().enumerate() {
            let name = match g {
                Expr::Ident(parts) => parts.last().cloned().unwrap_or_else(|| format!("$G{i}")),
                _ => format!("$G{i}"),
            };
            agg_fields.push(Field::bare(name));
        }
        for i in 0..ctx.aggs.len() {
            agg_fields.push(Field::bare(format!("$A{i}")));
        }
        let aggs = ctx.aggs;
        let mut node =
            Node::new(NodeKind::Aggregate { input: Box::new(input), groups, aggs }, agg_fields);
        if let Some(h) = having {
            let fields = node.fields.clone();
            node = Node::new(NodeKind::Filter { input: Box::new(node), pred: h }, fields);
        }
        Ok(Node::new(NodeKind::Project { input: Box::new(node), exprs: out_exprs }, out_fields))
    }

    fn bind_from_clause(&self, from: &crate::sql::FromClause) -> Result<Node> {
        let mut node = self.table_factor(&from.base)?;
        for item in &from.items {
            match item {
                FromItem::Flatten { input, outer, alias } => {
                    let expr = bind_expr(input, &node.fields, None)?;
                    let mut fields = node.fields.clone();
                    for name in FLATTEN_FIELDS {
                        fields.push(Field::new(Some(alias), name));
                    }
                    node = Node::new(
                        NodeKind::Flatten {
                            input: Box::new(node),
                            expr,
                            outer: *outer,
                            emit: [true; 5],
                        },
                        fields,
                    );
                }
                FromItem::Join { kind, factor, on } => {
                    let right = self.table_factor(factor)?;
                    let mut fields = node.fields.clone();
                    fields.extend(right.fields.iter().cloned());
                    let bound_on = on.as_ref().map(|e| bind_expr(e, &fields, None)).transpose()?;
                    node = Node::new(
                        NodeKind::Join {
                            left: Box::new(node),
                            right: Box::new(right),
                            kind: *kind,
                            on: bound_on,
                        },
                        fields,
                    );
                }
            }
        }
        Ok(node)
    }

    fn table_factor(&self, f: &TableFactor) -> Result<Node> {
        match f {
            TableFactor::Table { name, alias, travel } => {
                let table = match travel {
                    Some(t) => self.catalog.table_at(name, t)?,
                    None => self.catalog.table(name).ok_or_else(|| {
                        SnowError::Plan(format!("table '{name}' does not exist"))
                    })?,
                };
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                let fields = table
                    .schema()
                    .iter()
                    .map(|c| Field::new(Some(&qualifier), c.name.clone()))
                    .collect();
                let n = table.schema().len();
                Ok(Node::new(
                    NodeKind::Scan { table, pushed: Vec::new(), materialize: vec![true; n] },
                    fields,
                ))
            }
            TableFactor::Derived { query, alias } => {
                let mut node = self.query(query)?;
                // With an explicit alias, the alias becomes the qualifier of
                // every output column, hiding inner qualifiers. Without one,
                // inner qualifiers are preserved — a deliberate relaxation of
                // strict SQL scoping that lets the dataframe layer's
                // `SELECT * FROM (...)` wrappers keep flatten aliases (e.g.
                // `F.VALUE`) addressable across nesting levels.
                if alias.is_some() {
                    for f in &mut node.fields {
                        f.qualifier = alias.clone();
                    }
                }
                Ok(node)
            }
        }
    }
}

/// Aggregate-binding context threaded through select-list binding.
struct AggCtx<'a> {
    group_asts: &'a [Expr],
    n_groups: usize,
    aggs: Vec<AggExpr>,
    input_fields: &'a [Field],
}

/// True when the AST contains an aggregate function call.
pub fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Func { name, args, star, .. } => {
            (AggKind::from_name(name).is_some() && (!args.is_empty() || *star || name == "COUNT"))
                || args.iter().any(contains_aggregate)
        }
        Expr::Literal(_) | Expr::Ident(_) => false,
        Expr::Path { base, steps } => {
            contains_aggregate(base)
                || steps.iter().any(|s| match s {
                    PathStep::IndexExpr(e) => contains_aggregate(e),
                    _ => false,
                })
        }
        Expr::Unary { expr, .. } | Expr::Not(expr) | Expr::IsNull { expr, .. } => {
            contains_aggregate(expr)
        }
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between { expr, low, high, .. } => {
            contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high)
        }
        Expr::Like { expr, pattern, .. } => {
            contains_aggregate(expr) || contains_aggregate(pattern)
        }
        Expr::Case { operand, branches, else_expr } => {
            operand.as_deref().is_some_and(contains_aggregate)
                || branches.iter().any(|(c, v)| contains_aggregate(c) || contains_aggregate(v))
                || else_expr.as_deref().is_some_and(contains_aggregate)
        }
        Expr::Cast { expr, .. } => contains_aggregate(expr),
    }
}

/// Binds an expression appearing above an aggregation: sub-expressions equal to
/// a GROUP BY expression become group-column references, aggregate calls are
/// collected into the context, and anything else must recurse without touching
/// raw input columns.
fn bind_agg_expr(e: &Expr, ctx: &mut AggCtx<'_>) -> Result<PExpr> {
    // Group-key match takes priority.
    if let Some(i) = ctx.group_asts.iter().position(|g| g == e) {
        return Ok(PExpr::Col(i));
    }
    if let Expr::Func { name, args, distinct, star } = e {
        if let Some(kind) = AggKind::from_name(name) {
            let kind = match (kind, *distinct, *star) {
                (AggKind::Count, false, true) => AggKind::CountStar,
                (AggKind::Count, true, false) => AggKind::CountDistinct,
                (k, false, _) => k,
                (k, true, _) => {
                    return Err(SnowError::Plan(format!("DISTINCT is not supported for {k:?}")))
                }
            };
            let two_arg = matches!(kind, AggKind::MinBy | AggKind::MaxBy);
            let (arg, arg2) = if kind == AggKind::CountStar {
                (None, None)
            } else {
                let want = if two_arg { 2 } else { 1 };
                if args.len() != want {
                    return Err(SnowError::Plan(format!(
                        "aggregate {name} takes exactly {want} argument(s)"
                    )));
                }
                if args.iter().any(contains_aggregate) {
                    return Err(SnowError::Plan("nested aggregate functions".into()));
                }
                let a = Some(bind_expr(&args[0], ctx.input_fields, None)?);
                let b = if two_arg {
                    Some(bind_expr(&args[1], ctx.input_fields, None)?)
                } else {
                    None
                };
                (a, b)
            };
            let idx = ctx.n_groups + ctx.aggs.len();
            ctx.aggs.push(AggExpr { kind, arg, arg2 });
            return Ok(PExpr::Col(idx));
        }
    }
    match e {
        Expr::Literal(v) => Ok(PExpr::Lit(v.clone())),
        Expr::Ident(parts) => Err(SnowError::Plan(format!(
            "column '{}' must appear in GROUP BY or inside an aggregate",
            parts.join(".")
        ))),
        Expr::Path { base, steps } => Ok(PExpr::Path {
            base: Box::new(bind_agg_expr(base, ctx)?),
            steps: steps
                .iter()
                .map(|s| {
                    Ok(match s {
                        PathStep::Field(f) => PStep::Field(f.clone()),
                        PathStep::Index(i) => PStep::Index(*i),
                        PathStep::IndexExpr(e) => PStep::IndexExpr(Box::new(bind_agg_expr(e, ctx)?)),
                    })
                })
                .collect::<Result<_>>()?,
        }),
        Expr::Unary { op, expr } => {
            Ok(PExpr::Unary { op: *op, expr: Box::new(bind_agg_expr(expr, ctx)?) })
        }
        Expr::Binary { left, op, right } => Ok(PExpr::Binary {
            left: Box::new(bind_agg_expr(left, ctx)?),
            op: *op,
            right: Box::new(bind_agg_expr(right, ctx)?),
        }),
        Expr::Not(x) => Ok(PExpr::Not(Box::new(bind_agg_expr(x, ctx)?))),
        Expr::IsNull { expr, negated } => Ok(PExpr::IsNull {
            expr: Box::new(bind_agg_expr(expr, ctx)?),
            negated: *negated,
        }),
        Expr::InList { expr, list, negated } => Ok(PExpr::InList {
            expr: Box::new(bind_agg_expr(expr, ctx)?),
            list: list.iter().map(|e| bind_agg_expr(e, ctx)).collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Between { expr, low, high, negated } => {
            desugar_between(expr, low, high, *negated, &mut |e| bind_agg_expr(e, ctx))
        }
        Expr::Like { expr, pattern, negated } => Ok(PExpr::Like {
            expr: Box::new(bind_agg_expr(expr, ctx)?),
            pattern: Box::new(bind_agg_expr(pattern, ctx)?),
            negated: *negated,
        }),
        Expr::Case { operand, branches, else_expr } => Ok(PExpr::Case {
            operand: operand.as_ref().map(|o| bind_agg_expr(o, ctx)).transpose()?.map(Box::new),
            branches: branches
                .iter()
                .map(|(c, v)| Ok((bind_agg_expr(c, ctx)?, bind_agg_expr(v, ctx)?)))
                .collect::<Result<_>>()?,
            else_expr: else_expr
                .as_ref()
                .map(|x| bind_agg_expr(x, ctx))
                .transpose()?
                .map(Box::new),
        }),
        Expr::Func { name, args, distinct, star } => {
            if *distinct || *star {
                return Err(SnowError::Plan(format!("invalid use of {name}")));
            }
            let f = FuncId::from_name(name)
                .ok_or_else(|| SnowError::Plan(format!("unknown function {name}")))?;
            Ok(PExpr::Func {
                f,
                args: args.iter().map(|a| bind_agg_expr(a, ctx)).collect::<Result<_>>()?,
            })
        }
        Expr::Cast { expr, ty } => Ok(PExpr::Cast {
            expr: Box::new(bind_agg_expr(expr, ctx)?),
            ty: cast_type(ty)?,
        }),
    }
}

/// Binds a scalar expression over the given input fields.
///
/// The `extra` parameter optionally provides a secondary namespace (unused in
/// the base dialect, reserved for future correlated constructs).
pub fn bind_expr(e: &Expr, fields: &[Field], extra: Option<&[Field]>) -> Result<PExpr> {
    let _ = extra;
    match e {
        Expr::Literal(v) => Ok(PExpr::Lit(v.clone())),
        Expr::Ident(parts) => resolve(parts, fields).map(PExpr::Col),
        Expr::Path { base, steps } => Ok(PExpr::Path {
            base: Box::new(bind_expr(base, fields, extra)?),
            steps: steps
                .iter()
                .map(|s| {
                    Ok(match s {
                        PathStep::Field(f) => PStep::Field(f.clone()),
                        PathStep::Index(i) => PStep::Index(*i),
                        PathStep::IndexExpr(x) => {
                            PStep::IndexExpr(Box::new(bind_expr(x, fields, extra)?))
                        }
                    })
                })
                .collect::<Result<_>>()?,
        }),
        Expr::Unary { op, expr } => {
            Ok(PExpr::Unary { op: *op, expr: Box::new(bind_expr(expr, fields, extra)?) })
        }
        Expr::Binary { left, op, right } => Ok(PExpr::Binary {
            left: Box::new(bind_expr(left, fields, extra)?),
            op: *op,
            right: Box::new(bind_expr(right, fields, extra)?),
        }),
        Expr::Not(x) => Ok(PExpr::Not(Box::new(bind_expr(x, fields, extra)?))),
        Expr::IsNull { expr, negated } => Ok(PExpr::IsNull {
            expr: Box::new(bind_expr(expr, fields, extra)?),
            negated: *negated,
        }),
        Expr::InList { expr, list, negated } => Ok(PExpr::InList {
            expr: Box::new(bind_expr(expr, fields, extra)?),
            list: list.iter().map(|x| bind_expr(x, fields, extra)).collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Between { expr, low, high, negated } => {
            desugar_between(expr, low, high, *negated, &mut |x| bind_expr(x, fields, extra))
        }
        Expr::Like { expr, pattern, negated } => Ok(PExpr::Like {
            expr: Box::new(bind_expr(expr, fields, extra)?),
            pattern: Box::new(bind_expr(pattern, fields, extra)?),
            negated: *negated,
        }),
        Expr::Case { operand, branches, else_expr } => Ok(PExpr::Case {
            operand: operand
                .as_ref()
                .map(|o| bind_expr(o, fields, extra))
                .transpose()?
                .map(Box::new),
            branches: branches
                .iter()
                .map(|(c, v)| Ok((bind_expr(c, fields, extra)?, bind_expr(v, fields, extra)?)))
                .collect::<Result<_>>()?,
            else_expr: else_expr
                .as_ref()
                .map(|x| bind_expr(x, fields, extra))
                .transpose()?
                .map(Box::new),
        }),
        Expr::Func { name, args, distinct, star } => {
            if AggKind::from_name(name).is_some() {
                return Err(SnowError::Plan(format!(
                    "aggregate function {name} is not allowed in this context"
                )));
            }
            if *distinct || *star {
                return Err(SnowError::Plan(format!("invalid use of {name}")));
            }
            let f = FuncId::from_name(name)
                .ok_or_else(|| SnowError::Plan(format!("unknown function {name}")))?;
            Ok(PExpr::Func {
                f,
                args: args.iter().map(|a| bind_expr(a, fields, extra)).collect::<Result<_>>()?,
            })
        }
        Expr::Cast { expr, ty } => Ok(PExpr::Cast {
            expr: Box::new(bind_expr(expr, fields, extra)?),
            ty: cast_type(ty)?,
        }),
    }
}

fn desugar_between(
    expr: &Expr,
    low: &Expr,
    high: &Expr,
    negated: bool,
    bind: &mut dyn FnMut(&Expr) -> Result<PExpr>,
) -> Result<PExpr> {
    let e1 = bind(expr)?;
    let e2 = e1.clone();
    let lo = bind(low)?;
    let hi = bind(high)?;
    let both = PExpr::Binary {
        left: Box::new(PExpr::Binary {
            left: Box::new(e1),
            op: BinOp::GtEq,
            right: Box::new(lo),
        }),
        op: BinOp::And,
        right: Box::new(PExpr::Binary {
            left: Box::new(e2),
            op: BinOp::LtEq,
            right: Box::new(hi),
        }),
    };
    Ok(if negated { PExpr::Not(Box::new(both)) } else { both })
}

fn cast_type(name: &str) -> Result<CastType> {
    match name.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "BIGINT" | "NUMBER" | "SMALLINT" => Ok(CastType::Int),
        "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" => Ok(CastType::Float),
        "BOOLEAN" | "BOOL" => Ok(CastType::Bool),
        "VARCHAR" | "STRING" | "TEXT" | "CHAR" => Ok(CastType::Str),
        "VARIANT" => Ok(CastType::Variant),
        other => Err(SnowError::Plan(format!("unsupported cast target '{other}'"))),
    }
}

/// Resolves a possibly-qualified name to a column index.
fn resolve(parts: &[String], fields: &[Field]) -> Result<usize> {
    let matches: Vec<usize> = match parts {
        [name] => fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name.eq_ignore_ascii_case(name))
            .map(|(i, _)| i)
            .collect(),
        [qual, name] => fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.name.eq_ignore_ascii_case(name)
                    && f.qualifier.as_deref().is_some_and(|q| q.eq_ignore_ascii_case(qual))
            })
            .map(|(i, _)| i)
            .collect(),
        _ => {
            return Err(SnowError::Plan(format!(
                "unsupported name '{}' (too many parts)",
                parts.join(".")
            )))
        }
    };
    match matches.as_slice() {
        [i] => Ok(*i),
        [] => Err(SnowError::Plan(format!("unknown column '{}'", parts.join(".")))),
        _ => Err(SnowError::Plan(format!("ambiguous column '{}'", parts.join(".")))),
    }
}

/// Derives an output column name from an expression and optional alias.
fn derive_name(e: &Expr, alias: Option<&str>, position: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match e {
        Expr::Ident(parts) => parts.last().cloned().unwrap_or_default(),
        Expr::Path { steps, .. } => {
            for s in steps.iter().rev() {
                if let PathStep::Field(f) = s {
                    return f.clone();
                }
            }
            format!("$COL{position}")
        }
        Expr::Func { name, .. } => name.clone(),
        Expr::Cast { expr, .. } => derive_name(expr, None, position),
        _ => format!("$COL{position}"),
    }
}
