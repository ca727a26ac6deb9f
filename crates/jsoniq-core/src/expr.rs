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
///
/// The function table borrows the module's declarations; a body is copied
/// only where a call inlines it. A tree that inlining makes deeper than
/// [`MAX_DEPTH`] is refused with [`JsoniqError::TooDeep`].
pub fn rewrite(module: &Module) -> JResult<Expr> {
    let mut functions = HashMap::with_capacity(module.functions.len());
    for f in &module.functions {
        if functions.insert(&*f.name, f).is_some() {
            return Err(JsoniqError::Static(format!("duplicate function '{}'", f.name)));
        }
    }
    let mut r = Rewriter { functions, fresh: 0, stack: Vec::new(), buf: String::new() };
    let mut e = module.body.clone();
    r.inline(&mut e, 0)?;
    fold(&mut e);
    // Literal-let propagation, folding, and DCE enable each other; iterate
    // until a round removes nothing. A round that only substitutes literals
    // enables nothing further: the folding and elimination after it in the
    // same round already see the substitutions.
    loop {
        propagate_literal_lets(&mut e, &mut Vec::new());
        let eliminated = eliminate_dead_lets(&mut e);
        if !(fold(&mut e) | eliminated) {
            break;
        }
    }
    // A FLWOR consisting only of a return (all lets eliminated) collapses to
    // its return expression.
    collapse_empty_flwor(&mut e);
    Ok(e)
}

/// Counts AST nodes (a complexity metric: Table II's expression-tree size).
pub fn count_nodes(e: &Expr) -> usize {
    let mut n = 0;
    e.walk(&mut |_| n += 1);
    n
}

struct Rewriter<'m> {
    functions: HashMap<&'m str, &'m FunctionDecl>,
    fresh: usize,
    /// Inlining stack for recursion detection.
    stack: Vec<&'m str>,
    /// Where a fresh name is written before it is shared.
    buf: String,
}

/// Variable renames in scope, innermost last: a name maps to the last entry
/// that names it.
type Scope<T> = Vec<(Name, T)>;

fn lookup<'s, T>(scope: &'s Scope<T>, name: &str) -> Option<&'s T> {
    scope.iter().rev().find(|(n, _)| **n == *name).map(|(_, t)| t)
}

impl<'m> Rewriter<'m> {
    fn fresh_name(&mut self, base: &str) -> Name {
        use std::fmt::Write;
        self.fresh += 1;
        self.buf.clear();
        write!(self.buf, "{base}#{}", self.fresh).expect("writing to a String");
        Name::from(self.buf.as_str())
    }

    /// Inlines user-function calls bottom-up. `depth` is how many levels
    /// (see [`MAX_DEPTH`]) lie above `e` in the inlined tree.
    fn inline(&mut self, e: &mut Expr, depth: usize) -> JResult<()> {
        let decl = match e {
            Expr::FunctionCall { name, .. } => self.functions.get(&**name).copied(),
            _ => None,
        };
        // An inlined call with arguments becomes a FLWOR with one `let` per
        // argument: its arguments sit that much deeper.
        let levels = match (decl, &*e) {
            (Some(_), Expr::FunctionCall { args, .. }) if !args.is_empty() => 1 + args.len(),
            _ => e.levels(),
        };
        if depth + levels > MAX_DEPTH {
            return Err(JsoniqError::too_deep());
        }
        // First rewrite children, then handle the node itself.
        e.try_for_each_child_mut(&mut |c| self.inline(c, depth + levels))?;
        let (Some(decl), Expr::FunctionCall { name, args }) = (decl, &mut *e) else {
            return Ok(());
        };
        if self.stack.contains(&&*decl.name) {
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
        self.stack.push(&decl.name);
        // α-rename a copy of the body so nothing in it can capture caller
        // names.
        let mut renames = Scope::with_capacity(decl.params.len());
        for p in &decl.params {
            let fresh = self.fresh_name(p);
            renames.push((p.clone(), fresh));
        }
        let mut body = decl.body.clone();
        self.alpha_rename(&mut body, &mut renames);
        // Inline the body too, so nested calls resolve.
        let body_depth = if args.is_empty() { depth } else { depth + levels };
        self.inline(&mut body, body_depth)?;
        self.stack.pop();
        *e = if args.is_empty() {
            body
        } else {
            let clauses = renames
                .into_iter()
                .zip(std::mem::take(args))
                .map(|((_, var), expr)| Clause::Let { var, expr })
                .collect();
            Expr::Flwor(Flwor { clauses, return_expr: Box::new(body) })
        };
        Ok(())
    }

    /// Renames free variables per `scope`, freshly renaming every binder in
    /// the body so inlined code can never capture or be captured.
    fn alpha_rename(&mut self, e: &mut Expr, scope: &mut Scope<Name>) {
        match e {
            Expr::VarRef(v) => {
                if let Some(fresh) = lookup(scope, v) {
                    *v = fresh.clone();
                }
            }
            Expr::Flwor(fl) => {
                let mark = scope.len();
                for c in &mut fl.clauses {
                    c.for_each_expr_mut(&mut |x| self.alpha_rename(x, scope));
                    for v in c.binders_mut() {
                        let fresh = self.fresh_name(v);
                        scope.push((std::mem::replace(v, fresh.clone()), fresh));
                    }
                }
                self.alpha_rename(&mut fl.return_expr, scope);
                scope.truncate(mark);
            }
            _ => e.for_each_child_mut(&mut |c| self.alpha_rename(c, scope)),
        }
    }
}

// ---- constant folding --------------------------------------------------

/// Folds literal-only arithmetic, comparison, and boolean sub-expressions.
/// Whether it folded anything.
fn fold(e: &mut Expr) -> bool {
    let mut folded = false;
    e.for_each_child_mut(&mut |c| folded |= fold(c));
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
            Expr::Literal(Variant::Bool(true)) => Some(take(then)),
            Expr::Literal(Variant::Bool(false)) => Some(take(else_)),
            _ => None,
        },
        _ => None,
    };
    if let Some(r) = replacement {
        *e = r;
        folded = true;
    }
    folded
}

/// Moves a sub-expression out of a node about to be replaced.
fn take(e: &mut Expr) -> Expr {
    std::mem::replace(e, Expr::Sequence(Vec::new()))
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
/// Whether it removed any.
fn eliminate_dead_lets(e: &mut Expr) -> bool {
    let mut removed = false;
    e.for_each_child_mut(&mut |c| removed |= eliminate_dead_lets(c));
    let Expr::Flwor(fl) = e else { return removed };
    // A let is dead when its variable is not used by any later clause or the
    // return expression. Grouping re-binds all variables, so a FLWOR with a
    // group by keeps its lets.
    if fl.clauses.iter().any(|c| matches!(c, Clause::GroupBy { .. }))
        || !fl.clauses.iter().any(|c| matches!(c, Clause::Let { .. }))
    {
        return removed;
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
    let before = fl.clauses.len();
    let mut live = live.into_iter();
    fl.clauses.retain(|_| live.next().expect("one flag per clause"));
    removed || fl.clauses.len() < before
}

/// Substitutes literal `let` bindings into the expressions in their scope.
/// Only inlined function bodies are α-renamed, so a later clause of the main
/// module, or a nested FLWOR, may bind the same name again: every binding
/// clause (`for`, `at`, `let`, `count`, `group by`) ends the substitution of
/// its names for the clauses after it and the `return`. `scope` holds the
/// literal bindings in scope, and `None` for a name bound to anything else.
fn propagate_literal_lets(e: &mut Expr, scope: &mut Scope<Option<Variant>>) {
    match e {
        Expr::VarRef(v) => {
            if let Some(Some(val)) = lookup(scope, v) {
                *e = Expr::Literal(val.clone());
            }
        }
        Expr::Flwor(fl) => {
            let mark = scope.len();
            let mut literals = Vec::new();
            for c in &mut fl.clauses {
                c.for_each_expr_mut(&mut |x| propagate_literal_lets(x, scope));
                if matches!(c, Clause::GroupBy { .. }) {
                    // Grouping re-binds this FLWOR's earlier variables to
                    // sequences.
                    for v in literals.drain(..) {
                        scope.push((v, None));
                    }
                }
                for v in c.binders_mut() {
                    // Only a name in scope needs hiding.
                    if lookup(scope, v).is_some_and(Option::is_some) {
                        scope.push((v.clone(), None));
                    }
                }
                if let Clause::Let { var, expr: Expr::Literal(val) } = c {
                    scope.push((var.clone(), Some(val.clone())));
                    literals.push(var.clone());
                }
            }
            propagate_literal_lets(&mut fl.return_expr, scope);
            scope.truncate(mark);
        }
        _ => e.for_each_child_mut(&mut |c| propagate_literal_lets(c, scope)),
    }
}

/// Replaces FLWORs whose clause list became empty with their return expression.
fn collapse_empty_flwor(e: &mut Expr) {
    e.for_each_child_mut(&mut collapse_empty_flwor);
    if let Expr::Flwor(fl) = e {
        if fl.clauses.is_empty() {
            *e = take(&mut fl.return_expr);
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
            if **v == *var {
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
