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
        match bind_expr(e, fields) {
            Ok(p) => Ok(p),
            // Projection output drops relation qualifiers, but `ORDER BY t.x`
            // should still find the output column named `x` (Snowflake does).
            Err(first_err) => {
                if let Expr::Ident(parts) = e {
                    if parts.len() == 2 {
                        let bare = Expr::Ident(vec![parts[1].clone()]);
                        if let Ok(p) = bind_expr(&bare, fields) {
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
            let bound = bind_expr(pred, &node.fields)?;
            let fields = node.fields.clone();
            let kind = NodeKind::Filter { input: Box::new(node), pred: bound, per: None };
            node = Node::new(kind, fields);
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
                    let bound = bind_expr(expr, &input.fields)?;
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
            groups.push(bind_expr(g, &input.fields)?);
        }

        // Bind select items and HAVING above the aggregation; this collects
        // the aggregates as a side effect.
        let mut aggs = Vec::new();
        let mut above = Scope {
            fields: &input.fields,
            agg: Some(AggScope { group_asts: &s.group_by, aggs: &mut aggs }),
        };
        let mut out_exprs = Vec::new();
        let mut out_fields = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let bound = above.bind(expr)?;
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
        let having = s.having.as_ref().map(|h| above.bind(h)).transpose()?;

        // Aggregate output fields: groups (named when they are plain columns)
        // then aggregates.
        let mut agg_fields = Vec::with_capacity(groups.len() + aggs.len());
        for (i, g) in s.group_by.iter().enumerate() {
            let name = match g {
                Expr::Ident(parts) => parts.last().cloned().unwrap_or_else(|| format!("$G{i}")),
                _ => format!("$G{i}"),
            };
            agg_fields.push(Field::bare(name));
        }
        for i in 0..aggs.len() {
            agg_fields.push(Field::bare(format!("$A{i}")));
        }
        let mut node =
            Node::new(NodeKind::Aggregate { input: Box::new(input), groups, aggs }, agg_fields);
        if let Some(h) = having {
            let fields = node.fields.clone();
            let kind = NodeKind::Filter { input: Box::new(node), pred: h, per: None };
            node = Node::new(kind, fields);
        }
        Ok(Node::new(NodeKind::Project { input: Box::new(node), exprs: out_exprs }, out_fields))
    }

    fn bind_from_clause(&self, from: &crate::sql::FromClause) -> Result<Node> {
        let mut node = self.table_factor(&from.base)?;
        for item in &from.items {
            match item {
                FromItem::Flatten { input, outer, alias } => {
                    let expr = bind_expr(input, &node.fields)?;
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
                            from: None,
                        },
                        fields,
                    );
                }
                FromItem::Join { kind, factor, on } => {
                    let right = self.table_factor(factor)?;
                    let mut fields = node.fields.clone();
                    fields.extend(right.fields.iter().cloned());
                    let bound_on = on.as_ref().map(|e| bind_expr(e, &fields)).transpose()?;
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

/// Binds a scalar expression over the given input fields.
pub fn bind_expr(e: &Expr, fields: &[Field]) -> Result<PExpr> {
    Scope { fields, agg: None }.bind(e)
}

/// What names and aggregate calls mean where an expression stands. There is
/// one recursion over [`Expr`], [`Scope::bind`]; the scope decides its leaves.
///
/// Over plain input (`agg` is `None`) an identifier is a column of `fields`
/// and an aggregate call is an error. Above an aggregation — the select list
/// and `HAVING` of a grouped query — a sub-expression equal to a GROUP BY
/// expression is that group column, an aggregate call is collected and
/// becomes its output column, with its arguments bound over `fields` as plain
/// input, and any other identifier is an error: only group keys and
/// aggregates exist up there.
struct Scope<'a> {
    fields: &'a [Field],
    agg: Option<AggScope<'a>>,
}

/// The aggregation an expression stands above: its output columns are the
/// group keys, then the aggregates in the order they were collected.
struct AggScope<'a> {
    group_asts: &'a [Expr],
    aggs: &'a mut Vec<AggExpr>,
}

impl Scope<'_> {
    fn bind(&mut self, e: &Expr) -> Result<PExpr> {
        // Group-key match takes priority.
        if let Some(i) = self.agg.as_ref().and_then(|a| a.group_asts.iter().position(|g| g == e)) {
            return Ok(PExpr::Col(i));
        }
        Ok(match e {
            Expr::Literal(v) => PExpr::Lit(v.clone()),
            Expr::Ident(parts) => match self.agg {
                None => PExpr::Col(resolve(parts, self.fields)?),
                Some(_) => {
                    return Err(SnowError::Plan(format!(
                        "column '{}' must appear in GROUP BY or inside an aggregate",
                        parts.join(".")
                    )))
                }
            },
            Expr::Path { base, steps } => PExpr::Path {
                base: self.bind_box(base)?,
                steps: steps
                    .iter()
                    .map(|s| {
                        Ok(match s {
                            PathStep::Field(f) => PStep::Field(f.clone()),
                            PathStep::Index(i) => PStep::Index(*i),
                            PathStep::IndexExpr(x) => PStep::IndexExpr(self.bind_box(x)?),
                        })
                    })
                    .collect::<Result<_>>()?,
            },
            Expr::Unary { op, expr } => PExpr::Unary { op: *op, expr: self.bind_box(expr)? },
            Expr::Binary { left, op, right } => {
                PExpr::Binary { left: self.bind_box(left)?, op: *op, right: self.bind_box(right)? }
            }
            Expr::Not(x) => PExpr::Not(self.bind_box(x)?),
            Expr::IsNull { expr, negated } => {
                PExpr::IsNull { expr: self.bind_box(expr)?, negated: *negated }
            }
            Expr::InList { expr, list, negated } => PExpr::InList {
                expr: self.bind_box(expr)?,
                list: self.bind_all(list)?,
                negated: *negated,
            },
            Expr::Between { expr, low, high, negated } => {
                // `e BETWEEN lo AND hi` is `e >= lo AND e <= hi`.
                let e = self.bind_box(expr)?;
                let bound = |e, op, to| PExpr::Binary { left: e, op, right: to };
                let both = bound(
                    Box::new(bound(e.clone(), BinOp::GtEq, self.bind_box(low)?)),
                    BinOp::And,
                    Box::new(bound(e, BinOp::LtEq, self.bind_box(high)?)),
                );
                if *negated {
                    PExpr::Not(Box::new(both))
                } else {
                    both
                }
            }
            Expr::Like { expr, pattern, negated } => PExpr::Like {
                expr: self.bind_box(expr)?,
                pattern: self.bind_box(pattern)?,
                negated: *negated,
            },
            Expr::Case { operand, branches, else_expr } => PExpr::Case {
                operand: operand.as_ref().map(|o| self.bind_box(o)).transpose()?,
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((self.bind(c)?, self.bind(v)?)))
                    .collect::<Result<_>>()?,
                else_expr: else_expr.as_ref().map(|x| self.bind_box(x)).transpose()?,
            },
            Expr::Func { name, args, distinct, star } => {
                if let Some(kind) = AggKind::from_name(name) {
                    return self.aggregate(kind, name, args, *distinct, *star);
                }
                if *distinct || *star {
                    return Err(SnowError::Plan(format!("invalid use of {name}")));
                }
                let f = FuncId::from_name(name)
                    .ok_or_else(|| SnowError::Plan(format!("unknown function {name}")))?;
                PExpr::Func { f, args: self.bind_all(args)? }
            }
            Expr::Cast { expr, ty } => PExpr::Cast { expr: self.bind_box(expr)?, ty: cast_type(ty)? },
        })
    }

    fn bind_box(&mut self, e: &Expr) -> Result<Box<PExpr>> {
        self.bind(e).map(Box::new)
    }

    fn bind_all(&mut self, es: &[Expr]) -> Result<Vec<PExpr>> {
        es.iter().map(|e| self.bind(e)).collect()
    }

    /// An aggregate call: collected above an aggregation, an error elsewhere.
    fn aggregate(
        &mut self,
        kind: AggKind,
        name: &str,
        args: &[Expr],
        distinct: bool,
        star: bool,
    ) -> Result<PExpr> {
        let Some(agg) = &mut self.agg else {
            return Err(SnowError::Plan(format!(
                "aggregate function {name} is not allowed in this context"
            )));
        };
        let kind = match (kind, distinct, star) {
            (AggKind::Count, false, true) => AggKind::CountStar,
            (AggKind::Count, true, false) => AggKind::CountDistinct,
            (k, false, _) => k,
            (k, true, _) => {
                return Err(SnowError::Plan(format!("DISTINCT is not supported for {k:?}")))
            }
        };
        let want = match kind {
            AggKind::CountStar => 0,
            AggKind::MinBy | AggKind::MaxBy => 2,
            _ => 1,
        };
        if want > 0 {
            if args.len() != want {
                return Err(SnowError::Plan(format!(
                    "aggregate {name} takes exactly {want} argument(s)"
                )));
            }
            if args.iter().any(contains_aggregate) {
                return Err(SnowError::Plan("nested aggregate functions".into()));
            }
        }
        // An aggregate's arguments are plain expressions over the input.
        let mut bound = args.iter().take(want).map(|a| bind_expr(a, self.fields));
        let (arg, arg2) = (bound.next().transpose()?, bound.next().transpose()?);
        agg.aggs.push(AggExpr { kind, arg, arg2 });
        Ok(PExpr::Col(agg.group_asts.len() + agg.aggs.len() - 1))
    }
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
