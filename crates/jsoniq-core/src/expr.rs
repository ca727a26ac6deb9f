//! Expression-tree rewrites.
//!
//! Converts a parsed [`Module`] into a self-contained expression tree by
//! applying the optimizations the paper attributes to RumbleDB's parsing layer
//! (§III-A2): **function inlining** (with capture-avoiding renaming and a
//! recursion check — recursive functions are unsupported, paper §IV-E),
//! **constant folding**, and **dead-code elimination** of unused `let` bindings.
//! Every rewrite reaches the children of a node through
//! [`Expr::for_each_child_mut`] or [`Expr::try_for_each_child_mut`] and
//! spells out only the nodes it treats differently.

use std::collections::HashMap;

use snowdb::Variant;

use crate::ast::*;

/// Rewrites a module into a single expression tree.
pub fn rewrite(module: &Module) -> JResult<Expr> {
    let mut functions = HashMap::new();
    for f in &module.functions {
        if functions.insert(f.name.clone(), f.clone()).is_some() {
            return Err(JsoniqError::Static(format!("duplicate function '{}'", f.name)));
        }
    }
    let mut r = Rewriter { functions, fresh: 0, stack: Vec::new() };
    let mut e = module.body.clone();
    r.inline(&mut e)?;
    fold(&mut e);
    loop {
        // Literal-let propagation, folding, and DCE enable each other;
        // iterate to a (small) fixpoint.
        let before = count_nodes(&e);
        propagate_literal_lets(&mut e, &HashMap::new());
        eliminate_dead_lets(&mut e);
        fold(&mut e);
        if count_nodes(&e) == before {
            break;
        }
    }
    // A FLWOR consisting only of a return (all lets eliminated) collapses to
    // its return expression.
    collapse_empty_flwor(&mut e);
    Ok(e)
}

/// Counts AST nodes (used for fixpoint detection and complexity metrics).
pub fn count_nodes(e: &Expr) -> usize {
    let mut n = 0;
    e.walk(&mut |_| n += 1);
    n
}

struct Rewriter {
    functions: HashMap<String, FunctionDecl>,
    fresh: usize,
    /// Inlining stack for recursion detection.
    stack: Vec<String>,
}

impl Rewriter {
    fn fresh_name(&mut self, base: &str) -> String {
        self.fresh += 1;
        format!("{base}#{}", self.fresh)
    }

    /// Inlines user-function calls bottom-up.
    fn inline(&mut self, e: &mut Expr) -> JResult<()> {
        // First rewrite children, then handle the node itself.
        e.try_for_each_child_mut(&mut |c| self.inline(c))?;
        let Expr::FunctionCall { name, args } = e else { return Ok(()) };
        let Some(decl) = self.functions.get(name.as_str()).cloned() else { return Ok(()) };
        if self.stack.contains(name) {
            return Err(JsoniqError::Static(format!(
                "recursive function '{name}' is not supported"
            )));
        }
        if decl.params.len() != args.len() {
            return Err(JsoniqError::Static(format!(
                "function '{name}' expects {} arguments, got {}",
                decl.params.len(),
                args.len()
            )));
        }
        self.stack.push(name.clone());
        // α-rename the body so nothing in it can capture caller names.
        let mut renames = HashMap::new();
        let mut param_names = Vec::with_capacity(decl.params.len());
        for p in &decl.params {
            let fresh = self.fresh_name(p);
            renames.insert(p.clone(), fresh.clone());
            param_names.push(fresh);
        }
        let mut body = decl.body;
        self.alpha_rename(&mut body, &renames);
        // Inline the (already-rewritten) body too, so nested calls resolve.
        self.inline(&mut body)?;
        self.stack.pop();
        *e = if args.is_empty() {
            body
        } else {
            let clauses = param_names
                .into_iter()
                .zip(std::mem::take(args))
                .map(|(var, expr)| Clause::Let { var, expr })
                .collect();
            Expr::Flwor(Flwor { clauses, return_expr: Box::new(body) })
        };
        Ok(())
    }

    /// Renames free variables per `renames`, freshly renaming every binder in
    /// the body so inlined code can never capture or be captured.
    fn alpha_rename(&mut self, e: &mut Expr, renames: &HashMap<String, String>) {
        match e {
            Expr::VarRef(v) => {
                if let Some(fresh) = renames.get(v) {
                    *v = fresh.clone();
                }
            }
            Expr::Flwor(fl) => {
                let mut scope = renames.clone();
                for c in &mut fl.clauses {
                    c.for_each_expr_mut(&mut |x| self.alpha_rename(x, &scope));
                    for v in c.binders_mut() {
                        let fresh = self.fresh_name(v);
                        scope.insert(std::mem::replace(v, fresh.clone()), fresh);
                    }
                }
                self.alpha_rename(&mut fl.return_expr, &scope);
            }
            _ => e.for_each_child_mut(&mut |c| self.alpha_rename(c, renames)),
        }
    }
}

// ---- constant folding --------------------------------------------------

/// Folds literal-only arithmetic, comparison, and boolean sub-expressions.
fn fold(e: &mut Expr) {
    e.for_each_child_mut(&mut fold);
    let replacement = match e {
        Expr::Binary { op, left, right } => match (&**left, &**right) {
            (Expr::Literal(a), Expr::Literal(b)) => fold_binary(*op, a, b),
            _ => None,
        },
        Expr::Neg(x) => match &**x {
            // `-i64::MIN` is left to the evaluators, which promote it to a float.
            Expr::Literal(Variant::Int(i)) => {
                i.checked_neg().map(|n| Expr::Literal(Variant::Int(n)))
            }
            Expr::Literal(Variant::Float(f)) => Some(Expr::Literal(Variant::Float(-f))),
            _ => None,
        },
        Expr::Not(x) => match &**x {
            Expr::Literal(Variant::Bool(b)) => Some(Expr::Literal(Variant::Bool(!b))),
            _ => None,
        },
        Expr::If { cond, then, else_ } => match &**cond {
            Expr::Literal(Variant::Bool(true)) => Some((**then).clone()),
            Expr::Literal(Variant::Bool(false)) => Some((**else_).clone()),
            _ => None,
        },
        _ => None,
    };
    if let Some(r) = replacement {
        *e = r;
    }
}

fn fold_binary(op: BinaryOp, a: &Variant, b: &Variant) -> Option<Expr> {
    use snowdb::variant::NumericPair;
    let lit = |v: Variant| Some(Expr::Literal(v));
    match op {
        BinaryOp::And | BinaryOp::Or => match (a, b) {
            (Variant::Bool(x), Variant::Bool(y)) => lit(Variant::Bool(if op == BinaryOp::And {
                *x && *y
            } else {
                *x || *y
            })),
            _ => None,
        },
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => match NumericPair::coerce(a, b)? {
            NumericPair::Int(x, y) => {
                let r = match op {
                    BinaryOp::Add => x.checked_add(y)?,
                    BinaryOp::Sub => x.checked_sub(y)?,
                    BinaryOp::Mul => x.checked_mul(y)?,
                    _ => unreachable!(),
                };
                lit(Variant::Int(r))
            }
            NumericPair::Float(x, y) => {
                let r = match op {
                    BinaryOp::Add => x + y,
                    BinaryOp::Sub => x - y,
                    BinaryOp::Mul => x * y,
                    _ => unreachable!(),
                };
                lit(Variant::Float(r))
            }
        },
        BinaryOp::Div => match NumericPair::coerce(a, b)? {
            NumericPair::Int(_, 0) => None,
            NumericPair::Int(x, y) => lit(Variant::Float(x as f64 / y as f64)),
            NumericPair::Float(_, 0.0) => None,
            NumericPair::Float(x, y) => lit(Variant::Float(x / y)),
        },
        BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            use std::cmp::Ordering;
            if a.is_null() || b.is_null() {
                return None;
            }
            let c = snowdb::variant::cmp_variants(a, b);
            let r = match op {
                BinaryOp::Eq => a == b,
                BinaryOp::Ne => a != b,
                BinaryOp::Lt => c == Ordering::Less,
                BinaryOp::Le => c != Ordering::Greater,
                BinaryOp::Gt => c == Ordering::Greater,
                BinaryOp::Ge => c != Ordering::Less,
                _ => unreachable!(),
            };
            lit(Variant::Bool(r))
        }
        BinaryOp::Concat => match (a, b) {
            (Variant::Str(x), Variant::Str(y)) => lit(Variant::from(format!("{x}{y}"))),
            _ => None,
        },
        BinaryOp::IDiv | BinaryOp::Mod | BinaryOp::To => None,
    }
}

// ---- dead-let elimination ------------------------------------------------

/// Removes `let` bindings whose variable is never referenced downstream.
fn eliminate_dead_lets(e: &mut Expr) {
    e.for_each_child_mut(&mut eliminate_dead_lets);
    let Expr::Flwor(fl) = e else { return };
    // A let is dead when its variable is not used by any later clause or the
    // return expression. Grouping re-binds all variables, so a FLWOR with a
    // group by keeps its lets.
    if fl.clauses.iter().any(|c| matches!(c, Clause::GroupBy { .. })) {
        return;
    }
    let live: Vec<bool> = fl
        .clauses
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let Clause::Let { var, .. } = c else { return true };
            let mut used = expr_uses_var(&fl.return_expr, var);
            for later in &fl.clauses[i + 1..] {
                later.for_each_expr(&mut |x| used |= expr_uses_var(x, var));
            }
            used
        })
        .collect();
    let mut live = live.into_iter();
    fl.clauses.retain(|_| live.next().expect("one flag per clause"));
}

/// Substitutes literal `let` bindings into the expressions in their scope.
/// Only inlined function bodies are α-renamed, so a later clause of the main
/// module, or a nested FLWOR, may bind the same name again: every binding
/// clause (`for`, `at`, `let`, `count`, `group by`) ends the substitution of
/// its names for the clauses after it and the `return`.
fn propagate_literal_lets(e: &mut Expr, subs: &HashMap<String, Variant>) {
    match e {
        Expr::VarRef(v) => {
            if let Some(val) = subs.get(v) {
                *e = Expr::Literal(val.clone());
            }
        }
        Expr::Flwor(fl) => {
            let mut scope = subs.clone();
            let mut literals = Vec::new();
            for c in &mut fl.clauses {
                c.for_each_expr_mut(&mut |x| propagate_literal_lets(x, &scope));
                if matches!(c, Clause::GroupBy { .. }) {
                    // Grouping re-binds this FLWOR's earlier variables to
                    // sequences.
                    for v in literals.drain(..) {
                        scope.remove(&v);
                    }
                }
                for v in c.binders_mut() {
                    scope.remove(v.as_str());
                }
                if let Clause::Let { var, expr: Expr::Literal(val) } = c {
                    scope.insert(var.clone(), val.clone());
                    literals.push(var.clone());
                }
            }
            propagate_literal_lets(&mut fl.return_expr, &scope);
        }
        _ => e.for_each_child_mut(&mut |c| propagate_literal_lets(c, subs)),
    }
}

/// Replaces FLWORs whose clause list became empty with their return expression.
fn collapse_empty_flwor(e: &mut Expr) {
    e.for_each_child_mut(&mut collapse_empty_flwor);
    if let Expr::Flwor(fl) = e {
        if fl.clauses.is_empty() {
            *e = (*fl.return_expr).clone();
        }
    }
}

/// Whether `e` mentions `var` anywhere — an over-approximation of a free use:
/// outside inlined function bodies names are not unique, so a nested binder
/// of the same name and its uses count too, which can only keep a let alive.
fn expr_uses_var(e: &Expr, var: &str) -> bool {
    let mut used = false;
    e.walk(&mut |x| {
        if let Expr::VarRef(v) = x {
            if v == var {
                used = true;
            }
        }
    });
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn rw(src: &str) -> Expr {
        rewrite(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn inlines_functions() {
        let e = rw("declare function double($x) { $x * 2 }; double(21)");
        // After inlining + folding the whole thing is the literal 42.
        assert_eq!(e, Expr::Literal(Variant::Int(42)));
    }

    #[test]
    fn inlining_is_capture_avoiding() {
        let e = rw(
            r#"declare function f($x) { for $y in (1, 2) return $x + $y };
               for $y in (10, 20) return f($y)"#,
        );
        // The inner $y of the function body must not capture the caller's $y;
        // verify no VarRef resolves ambiguously by checking that the inlined
        // body's for-variable differs from the outer one.
        let mut names = Vec::new();
        e.walk(&mut |x| {
            if let Expr::Flwor(fl) = x {
                for c in &fl.clauses {
                    if let Clause::For { var, .. } = c {
                        names.push(var.clone());
                    }
                }
            }
        });
        assert_eq!(names.len(), 2);
        assert_ne!(names[0], names[1]);
    }

    #[test]
    fn rejects_recursion() {
        let m = parse("declare function f($x) { f($x) }; f(1)").unwrap();
        match rewrite(&m) {
            Err(JsoniqError::Static(msg)) => assert!(msg.contains("recursive")),
            other => panic!("expected recursion error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_arity_mismatch() {
        let m = parse("declare function f($x) { $x }; f(1, 2)").unwrap();
        assert!(matches!(rewrite(&m), Err(JsoniqError::Static(_))));
    }

    #[test]
    fn folds_constants() {
        assert_eq!(rw("1 + 2 * 3"), Expr::Literal(Variant::Int(7)));
        assert_eq!(rw("10 div 4"), Expr::Literal(Variant::Float(2.5)));
        assert_eq!(rw("1 lt 2"), Expr::Literal(Variant::Bool(true)));
        assert_eq!(rw("if (true) then 1 else 2"), Expr::Literal(Variant::Int(1)));
    }

    #[test]
    fn removes_dead_lets() {
        let e = rw(r#"for $x in (1, 2) let $unused := $x * 100 return $x"#);
        let mut lets = 0;
        e.walk(&mut |x| {
            if let Expr::Flwor(fl) = x {
                lets += fl.clauses.iter().filter(|c| matches!(c, Clause::Let { .. })).count();
            }
        });
        assert_eq!(lets, 0);
    }

    #[test]
    fn keeps_live_lets() {
        let e = rw(r#"for $x in (1, 2) let $y := $x * 100 return $y"#);
        let mut lets = 0;
        e.walk(&mut |x| {
            if let Expr::Flwor(fl) = x {
                lets += fl.clauses.iter().filter(|c| matches!(c, Clause::Let { .. })).count();
            }
        });
        assert_eq!(lets, 1);
    }

    #[test]
    fn unknown_functions_are_left_for_later_stages() {
        // Built-ins are resolved at iterator-tree construction, not here.
        let e = rw("abs(-3)");
        assert!(matches!(e, Expr::FunctionCall { .. }));
    }
}
