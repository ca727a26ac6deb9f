//! JSONiq abstract syntax tree.
//!
//! The same node types serve as the *expression tree* after the rewrite phase
//! (function inlining, constant folding, dead-code elimination), matching
//! RumbleDB's pipeline where the expression tree is a normalized AST
//! (paper §III-A2).

use std::convert::Infallible;

use snowdb::Variant;

/// A JSONiq item; the engine shares `snowdb`'s variant data model.
pub type Item = Variant;

/// A parsed main module: user-declared functions plus the body expression.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    pub functions: Vec<FunctionDecl>,
    pub body: Expr,
}

/// `declare function name($a, $b) { body };`
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionDecl {
    pub name: String,
    pub params: Vec<String>,
    pub body: Expr,
}

/// Binary operators. Keyword comparisons (`eq`, `lt`, ...) are value
/// comparisons; the symbolic forms (`=`, `<`, ...) parse to the same operators
/// (general comparison semantics coincide on the atomic values these workloads
/// touch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
    /// `a to b` integer range.
    To,
    /// `||` string concatenation.
    Concat,
}

/// One FLWOR clause.
#[derive(Clone, Debug, PartialEq)]
pub enum Clause {
    For {
        var: String,
        /// Positional variable from `at $i` (1-based).
        at: Option<String>,
        expr: Expr,
        /// `allowing empty`: emit one tuple with an empty binding when the
        /// sequence is empty (the FLWOR analogue of an outer join).
        allowing_empty: bool,
    },
    Let {
        var: String,
        expr: Expr,
    },
    Where(Expr),
    GroupBy {
        /// `group by $k := expr, ...`; a missing expr groups by the variable's
        /// current binding.
        keys: Vec<(String, Option<Expr>)>,
    },
    OrderBy {
        keys: Vec<(Expr, bool)>, // (expr, descending)
    },
    Count(String),
}

/// A FLWOR expression: a clause chain ending in `return`.
#[derive(Clone, Debug, PartialEq)]
pub struct Flwor {
    pub clauses: Vec<Clause>,
    pub return_expr: Box<Expr>,
}

/// JSONiq expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Literal(Item),
    VarRef(String),
    /// `{ "k": v, ... }`
    ObjectConstructor(Vec<(String, Expr)>),
    /// `[ a, b, ... ]`
    ArrayConstructor(Vec<Expr>),
    /// `(a, b, c)` comma sequence (and `()` the empty sequence).
    Sequence(Vec<Expr>),
    Flwor(Flwor),
    If {
        cond: Box<Expr>,
        then: Box<Expr>,
        else_: Box<Expr>,
    },
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    Not(Box<Expr>),
    /// `$x.field`
    ObjectLookup {
        base: Box<Expr>,
        field: String,
    },
    /// `$x[]` — array unboxing.
    ArrayUnbox {
        base: Box<Expr>,
    },
    /// `$x[[i]]` — array member lookup (1-based).
    ArrayLookup {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    /// `$seq[p]` — positional (integer) or boolean predicate over a sequence.
    Predicate {
        base: Box<Expr>,
        pred: Box<Expr>,
    },
    FunctionCall {
        name: String,
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Integer literal helper.
    pub fn int(i: i64) -> Expr {
        Expr::Literal(Variant::Int(i))
    }

    /// Applies `f` to every node of the tree, pre-order.
    pub fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        self.for_each_child(&mut |c| c.walk(f));
    }

    /// The walk: calls `f` on each direct sub-expression in declaration
    /// order — a FLWOR's clauses in order, then its `return`; `cond`, `then`,
    /// `else`; left before right. Every read-only traversal is built on it.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Literal(_) | Expr::VarRef(_) => {}
            Expr::ObjectConstructor(pairs) => pairs.iter().for_each(|(_, v)| f(v)),
            Expr::ArrayConstructor(items)
            | Expr::Sequence(items)
            | Expr::FunctionCall { args: items, .. } => items.iter().for_each(f),
            Expr::Flwor(fl) => {
                for c in &fl.clauses {
                    c.for_each_expr(f);
                }
                f(&fl.return_expr);
            }
            Expr::If { cond, then, else_ } => {
                f(cond);
                f(then);
                f(else_);
            }
            Expr::Binary { left: a, right: b, .. }
            | Expr::ArrayLookup { base: a, index: b }
            | Expr::Predicate { base: a, pred: b } => {
                f(a);
                f(b);
            }
            Expr::Neg(x) | Expr::Not(x) | Expr::ArrayUnbox { base: x } => f(x),
            Expr::ObjectLookup { base, .. } => f(base),
        }
    }

    /// The map: as [`Expr::for_each_child`], handing out each direct
    /// sub-expression for rewriting in place and stopping at the first error.
    /// Every rewrite is built on it.
    pub fn try_for_each_child_mut<E>(
        &mut self,
        f: &mut impl FnMut(&mut Expr) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            Expr::Literal(_) | Expr::VarRef(_) => {}
            Expr::ObjectConstructor(pairs) => {
                for (_, v) in pairs {
                    f(v)?;
                }
            }
            Expr::ArrayConstructor(items)
            | Expr::Sequence(items)
            | Expr::FunctionCall { args: items, .. } => {
                for i in items {
                    f(i)?;
                }
            }
            Expr::Flwor(fl) => {
                for c in &mut fl.clauses {
                    c.try_for_each_expr_mut(f)?;
                }
                f(&mut fl.return_expr)?;
            }
            Expr::If { cond, then, else_ } => {
                f(cond)?;
                f(then)?;
                f(else_)?;
            }
            Expr::Binary { left: a, right: b, .. }
            | Expr::ArrayLookup { base: a, index: b }
            | Expr::Predicate { base: a, pred: b } => {
                f(a)?;
                f(b)?;
            }
            Expr::Neg(x) | Expr::Not(x) | Expr::ArrayUnbox { base: x } => f(x)?,
            Expr::ObjectLookup { base, .. } => f(base)?,
        }
        Ok(())
    }

    /// [`Expr::try_for_each_child_mut`] for a rewrite that cannot fail.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        let Ok(()) = self.try_for_each_child_mut(&mut |c| -> Result<(), Infallible> {
            f(c);
            Ok(())
        });
    }
}

impl Clause {
    /// The clause's expressions in source order: [`Expr::for_each_child`]'s
    /// part for one FLWOR clause.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Clause::For { expr, .. } | Clause::Let { expr, .. } | Clause::Where(expr) => f(expr),
            Clause::GroupBy { keys } => keys.iter().filter_map(|(_, e)| e.as_ref()).for_each(f),
            Clause::OrderBy { keys } => keys.iter().for_each(|(e, _)| f(e)),
            Clause::Count(_) => {}
        }
    }

    /// As [`Clause::for_each_expr`], for rewriting in place.
    pub fn try_for_each_expr_mut<E>(
        &mut self,
        f: &mut impl FnMut(&mut Expr) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            Clause::For { expr, .. } | Clause::Let { expr, .. } | Clause::Where(expr) => f(expr),
            Clause::GroupBy { keys } => {
                keys.iter_mut().filter_map(|(_, e)| e.as_mut()).try_for_each(f)
            }
            Clause::OrderBy { keys } => keys.iter_mut().try_for_each(|(e, _)| f(e)),
            Clause::Count(_) => Ok(()),
        }
    }

    /// [`Clause::try_for_each_expr_mut`] for a rewrite that cannot fail.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        let Ok(()) = self.try_for_each_expr_mut(&mut |e| -> Result<(), Infallible> {
            f(e);
            Ok(())
        });
    }

    /// The names the clause binds, in source order: `for` and its `at`,
    /// `let`, `count`, and the `group by` keys. The expressions of a clause
    /// are in the scope before it; later clauses and the `return` see these.
    pub fn binders_mut(&mut self) -> Vec<&mut String> {
        match self {
            Clause::For { var, at, .. } => std::iter::once(var).chain(at.as_mut()).collect(),
            Clause::Let { var, .. } | Clause::Count(var) => vec![var],
            Clause::GroupBy { keys } => keys.iter_mut().map(|(k, _)| k).collect(),
            Clause::Where(_) | Clause::OrderBy { .. } => Vec::new(),
        }
    }
}

/// Compiler errors for the JSONiq front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum JsoniqError {
    Lex(String),
    Parse(String),
    /// Static errors: unknown variable/function, arity mismatch, recursion.
    Static(String),
    /// Dynamic errors raised by the interpreter.
    Dynamic(String),
    /// Errors raised while translating to SQL.
    Translate(String),
    /// Errors bubbled up from the engine.
    Engine(String),
    /// Evaluation exceeded the configured deadline.
    Timeout,
}

impl std::fmt::Display for JsoniqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsoniqError::Lex(m) => write!(f, "lexical error: {m}"),
            JsoniqError::Parse(m) => write!(f, "syntax error: {m}"),
            JsoniqError::Static(m) => write!(f, "static error: {m}"),
            JsoniqError::Dynamic(m) => write!(f, "dynamic error: {m}"),
            JsoniqError::Translate(m) => write!(f, "translation error: {m}"),
            JsoniqError::Engine(m) => write!(f, "engine error: {m}"),
            JsoniqError::Timeout => write!(f, "evaluation exceeded the deadline"),
        }
    }
}

impl std::error::Error for JsoniqError {}

impl From<snowdb::SnowError> for JsoniqError {
    fn from(e: snowdb::SnowError) -> Self {
        JsoniqError::Engine(e.to_string())
    }
}

/// Result alias for the JSONiq front-end.
pub type JResult<T> = std::result::Result<T, JsoniqError>;
