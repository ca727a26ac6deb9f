//! JSONiq abstract syntax tree.
//!
//! The same node types serve as the *expression tree* after the rewrite phase
//! (function inlining, constant folding, dead-code elimination), matching
//! RumbleDB's pipeline where the expression tree is a normalized AST
//! (paper §III-A2).

use std::convert::Infallible;
use std::sync::Arc;

use snowdb::Variant;

/// A JSONiq item; the engine shares `snowdb`'s variant data model.
pub type Item = Variant;

/// A variable, field, key or function name in a tree. The parser copies a
/// name out of the source once; every later copy — an inlined function body,
/// the iterator tree, the translator's and the interpreter's scopes — shares
/// it.
pub type Name = Arc<str>;

/// The deepest nesting the front end accepts. A node is one level, and a
/// FLWOR is one level more per clause, because the iterator tree chains a
/// FLWOR's clauses one inside the other; a parenthesis, bracket or brace is
/// one level of the parser's own nesting even where it builds no node. The
/// parser refuses a module nested deeper with [`JsoniqError::TooDeep`], and
/// so does the rewrite for a tree that function inlining made deeper, so no
/// stage — parse, rewrite, iterator tree, translation, interpreter — recurses
/// deeper than the bound.
///
/// The bound is set by the stage with the largest frames in a debug build,
/// on a 2 MiB stack (the size Rust gives spawned threads): there, the
/// interpreter overflows at about 160 levels and the parser at about 200
/// nested parentheses, so 96 keeps every stage under two thirds of the
/// stack. The corpus queries nest at most 40 levels (ADL q6 after inlining),
/// the oracle's generated ones at most 13.
pub const MAX_DEPTH: usize = 96;

/// A parsed main module: user-declared functions plus the body expression.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    pub functions: Vec<FunctionDecl>,
    pub body: Expr,
}

/// `declare function name($a, $b) { body };`
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionDecl {
    pub name: Name,
    pub params: Vec<Name>,
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
        var: Name,
        /// Positional variable from `at $i` (1-based).
        at: Option<Name>,
        expr: Expr,
        /// `allowing empty`: emit one tuple with an empty binding when the
        /// sequence is empty (the FLWOR analogue of an outer join).
        allowing_empty: bool,
    },
    Let {
        var: Name,
        expr: Expr,
    },
    Where(Expr),
    GroupBy {
        /// `group by $k := expr, ...`; a missing expr groups by the variable's
        /// current binding.
        keys: Vec<(Name, Option<Expr>)>,
    },
    OrderBy {
        keys: Vec<(Expr, bool)>, // (expr, descending)
    },
    Count(Name),
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
    VarRef(Name),
    /// `{ "k": v, ... }`
    ObjectConstructor(Vec<(Name, Expr)>),
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
        field: Name,
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
        name: Name,
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Integer literal helper.
    pub fn int(i: i64) -> Expr {
        Expr::Literal(Variant::Int(i))
    }

    /// The levels this node adds above its deepest child (see [`MAX_DEPTH`]).
    pub(crate) fn levels(&self) -> usize {
        match self {
            Expr::Flwor(fl) => 1 + fl.clauses.len(),
            _ => 1,
        }
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
    pub fn binders_mut(&mut self) -> Vec<&mut Name> {
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
    /// The module nests deeper than [`MAX_DEPTH`].
    TooDeep { limit: usize },
}

impl JsoniqError {
    /// The error for a module nested deeper than [`MAX_DEPTH`].
    pub fn too_deep() -> JsoniqError {
        JsoniqError::TooDeep { limit: MAX_DEPTH }
    }
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
            JsoniqError::TooDeep { limit } => {
                write!(f, "static error: the query nests deeper than {limit} levels")
            }
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
