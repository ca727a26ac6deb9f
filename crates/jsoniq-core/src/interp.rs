//! Local, row-at-a-time interpretation of the iterator tree.
//!
//! This execution mode is both (a) the semantic ground truth the SQL
//! translation is validated against, and (b) the stand-in for the paper's
//! RumbleDB-on-Spark baseline: tuple streams are fully materialized between
//! clauses and every expression is interpreted per item, reproducing the
//! interpretation/materialization overheads §V-D attributes to that system.

use std::collections::HashMap;
use std::rc::Rc;

use snowdb::variant::{cmp_variants, Key, Object};
use snowdb::Variant;

use crate::ast::{BinaryOp, Item, JResult, JsoniqError, Name};
use crate::itertree::{compile, Builtin, RIter};

/// A JSONiq value: a sequence of items.
pub type Seq = Vec<Item>;

/// A FLWOR tuple: variable bindings.
pub type Env = HashMap<Name, Rc<Seq>>;

/// Source of named collections.
pub trait CollectionProvider {
    fn collection(&self, name: &str) -> JResult<Vec<Item>>;
}

/// A provider backed by an in-memory map, for tests and small examples.
#[derive(Default)]
pub struct MemoryCollections {
    pub collections: HashMap<String, Vec<Item>>,
}

impl CollectionProvider for MemoryCollections {
    fn collection(&self, name: &str) -> JResult<Vec<Item>> {
        self.collections
            .get(name)
            .cloned()
            .ok_or_else(|| JsoniqError::Dynamic(format!("unknown collection '{name}'")))
    }
}

/// A provider that reads tables from a `snowdb` database, exposing each row as
/// an object keyed by column name — the data model of the paper's §III-C.
pub struct DatabaseCollections<'a> {
    pub db: &'a snowdb::Database,
}

impl CollectionProvider for DatabaseCollections<'_> {
    fn collection(&self, name: &str) -> JResult<Vec<Item>> {
        let table = self
            .db
            .table(name)
            .ok_or_else(|| JsoniqError::Dynamic(format!("unknown collection '{name}'")))?;
        let names: Vec<&str> = table.schema().iter().map(|c| c.name.as_str()).collect();
        let mut out = Vec::with_capacity(table.row_count());
        for part in table.partitions() {
            let mem = part
                .to_mem()
                .map_err(|e| JsoniqError::Dynamic(format!("collection '{name}': {e}")))?;
            for r in 0..mem.row_count() {
                let mut obj = Object::with_capacity(names.len());
                for (i, n) in names.iter().enumerate() {
                    obj.insert(*n, mem.column(i).get(r));
                }
                out.push(Variant::object(obj));
            }
        }
        Ok(out)
    }
}

/// The interpreter.
pub struct Interpreter<'a> {
    provider: &'a dyn CollectionProvider,
    /// Optional wall-clock deadline, checked at tuple-stream boundaries; used
    /// by the benchmark harness to enforce the paper's query cutoff.
    deadline: Option<std::time::Instant>,
    /// Simulates the Spark-backend operator boundary: values bound by `for`
    /// and `let` clauses are round-tripped through their serialized form, the
    /// data movement the paper's §III-A3/§V-D attributes to RumbleDB-on-Spark
    /// (UDF ↔ engine row conversion at each clause).
    serialize_boundaries: bool,
}

impl<'a> Interpreter<'a> {
    pub fn new(provider: &'a dyn CollectionProvider) -> Interpreter<'a> {
        Interpreter { provider, deadline: None, serialize_boundaries: false }
    }

    /// Interpreter with a wall-clock deadline.
    pub fn with_deadline(
        provider: &'a dyn CollectionProvider,
        deadline: std::time::Instant,
    ) -> Interpreter<'a> {
        Interpreter { provider, deadline: Some(deadline), serialize_boundaries: false }
    }

    /// Enables the Spark-boundary simulation (see the struct docs).
    pub fn with_serialization_boundaries(mut self, on: bool) -> Interpreter<'a> {
        self.serialize_boundaries = on;
        self
    }

    /// Round-trips a sequence through its serialized form when boundary
    /// simulation is on.
    fn boundary(&self, seq: Seq) -> Seq {
        if !self.serialize_boundaries {
            return seq;
        }
        seq.into_iter()
            .map(|v| {
                let text = snowdb::variant::to_json(&v);
                snowdb::variant::parse_json(&text).expect("round-trip")
            })
            .collect()
    }

    fn check_deadline(&self) -> JResult<()> {
        if let Some(d) = self.deadline {
            if std::time::Instant::now() > d {
                return Err(JsoniqError::Timeout);
            }
        }
        Ok(())
    }

    /// Compiles and evaluates a JSONiq query.
    pub fn eval_query(&self, src: &str) -> JResult<Seq> {
        let it = compile(src)?;
        self.eval(&it)
    }

    /// Evaluates an iterator tree with no initial bindings.
    pub fn eval(&self, it: &RIter) -> JResult<Seq> {
        self.eval_in(it, &Env::new())
    }

    fn eval_in(&self, it: &RIter, env: &Env) -> JResult<Seq> {
        match it {
            RIter::Literal(v) => Ok(vec![v.clone()]),
            RIter::VarRef(v) => env
                .get(v)
                .map(|s| (**s).clone())
                .ok_or_else(|| JsoniqError::Dynamic(format!("unbound variable ${v}"))),
            RIter::Collection(name) => self.provider.collection(name),
            RIter::ReturnClause { left, expr } => {
                let tuples = self.tuples(left, env)?;
                let mut out = Vec::new();
                for t in &tuples {
                    out.extend(self.eval_in(expr, t)?);
                }
                Ok(out)
            }
            // A bare non-return FLWOR clause cannot be evaluated as an expression.
            RIter::ForClause { .. }
            | RIter::LetClause { .. }
            | RIter::WhereClause { .. }
            | RIter::GroupByClause { .. }
            | RIter::OrderByClause { .. }
            | RIter::CountClause { .. } => {
                Err(JsoniqError::Dynamic("dangling FLWOR clause".into()))
            }
            RIter::Comparison { op, left, right } => {
                let l = self.eval_in(left, env)?;
                let r = self.eval_in(right, env)?;
                if l.is_empty() || r.is_empty() {
                    return Ok(Vec::new());
                }
                let a = singleton(&l, "comparison")?;
                let b = singleton(&r, "comparison")?;
                Ok(vec![Variant::Bool(compare(*op, a, b)?)])
            }
            RIter::Arithmetic { op, left, right } => {
                let l = self.eval_in(left, env)?;
                let r = self.eval_in(right, env)?;
                if l.is_empty() || r.is_empty() {
                    return Ok(Vec::new());
                }
                let a = singleton(&l, "arithmetic")?;
                let b = singleton(&r, "arithmetic")?;
                if a.is_null() || b.is_null() {
                    return Ok(vec![Variant::Null]);
                }
                Ok(vec![arith(*op, a, b)?])
            }
            RIter::Logical { op, left, right } => {
                let lv = ebv(&self.eval_in(left, env)?)?;
                match (op, lv) {
                    (BinaryOp::And, false) => Ok(vec![Variant::Bool(false)]),
                    (BinaryOp::Or, true) => Ok(vec![Variant::Bool(true)]),
                    _ => {
                        let rv = ebv(&self.eval_in(right, env)?)?;
                        Ok(vec![Variant::Bool(rv)])
                    }
                }
            }
            RIter::StringConcat { left, right } => {
                let l = self.eval_in(left, env)?;
                let r = self.eval_in(right, env)?;
                let mut s = String::new();
                s.push_str(&stringify_opt(&l));
                s.push_str(&stringify_opt(&r));
                Ok(vec![Variant::from(s)])
            }
            RIter::Range { left, right } => {
                let l = self.eval_in(left, env)?;
                let r = self.eval_in(right, env)?;
                if l.is_empty() || r.is_empty() {
                    return Ok(Vec::new());
                }
                let a = singleton(&l, "range")?
                    .as_i64()
                    .ok_or_else(|| JsoniqError::Dynamic("range bounds must be integers".into()))?;
                let b = singleton(&r, "range")?
                    .as_i64()
                    .ok_or_else(|| JsoniqError::Dynamic("range bounds must be integers".into()))?;
                Ok((a..=b).map(Variant::Int).collect())
            }
            RIter::Not(x) => Ok(vec![Variant::Bool(!ebv(&self.eval_in(x, env)?)?)]),
            RIter::Neg(x) => {
                let v = self.eval_in(x, env)?;
                if v.is_empty() {
                    return Ok(Vec::new());
                }
                match singleton(&v, "unary minus")? {
                    // `-i64::MIN` promotes to a float, as in the engine.
                    Variant::Int(i) => Ok(vec![match i.checked_neg() {
                        Some(n) => Variant::Int(n),
                        None => Variant::Float(-(*i as f64)),
                    }]),
                    Variant::Float(f) => Ok(vec![Variant::Float(-f)]),
                    Variant::Null => Ok(vec![Variant::Null]),
                    other => Err(JsoniqError::Dynamic(format!(
                        "cannot negate {}",
                        other.type_name()
                    ))),
                }
            }
            RIter::ObjectLookup { base, field } => {
                let b = self.eval_in(base, env)?;
                let mut out = Vec::new();
                for item in &b {
                    if let Variant::Object(o) = item {
                        if let Some(v) = o.get(field) {
                            out.push(v.clone());
                        }
                    }
                }
                Ok(out)
            }
            // Items that are no array unbox to nothing, as the lookups skip
            // items of the wrong kind (and as the translation's FLATTEN, which
            // keeps array items only, does).
            RIter::ArrayUnbox { base } => {
                let b = self.eval_in(base, env)?;
                let mut out = Vec::new();
                for item in &b {
                    if let Variant::Array(a) = item {
                        out.extend(a.iter().cloned());
                    }
                }
                Ok(out)
            }
            RIter::ArrayLookup { base, index } => {
                let b = self.eval_in(base, env)?;
                let i = self.eval_in(index, env)?;
                if i.is_empty() {
                    return Ok(Vec::new());
                }
                let idx = singleton(&i, "array lookup")?
                    .as_i64()
                    .ok_or_else(|| JsoniqError::Dynamic("array index must be an integer".into()))?;
                let mut out = Vec::new();
                for item in &b {
                    if let Variant::Array(a) = item {
                        if idx >= 1 {
                            if let Some(v) = a.get((idx - 1) as usize) {
                                out.push(v.clone());
                            }
                        }
                    }
                }
                Ok(out)
            }
            RIter::Predicate { base, pred } => {
                let b = self.eval_in(base, env)?;
                // Only positional predicates are supported (the workloads use
                // `[1]`-style selections; context-item predicates are not part
                // of the supported subset).
                let p = self.eval_in(pred, env)?;
                let idx = singleton(&p, "predicate")?.as_i64().ok_or_else(|| {
                    JsoniqError::Dynamic(
                        "only positional (integer) predicates are supported".into(),
                    )
                })?;
                if idx >= 1 && (idx as usize) <= b.len() {
                    Ok(vec![b[(idx - 1) as usize].clone()])
                } else {
                    Ok(Vec::new())
                }
            }
            RIter::ObjectConstructor(pairs) => {
                let mut obj = Object::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let vv = self.eval_in(v, env)?;
                    let item = match vv.len() {
                        0 => Variant::Null,
                        1 => vv.into_iter().next().unwrap(),
                        _ => Variant::array(vv),
                    };
                    obj.insert(k.clone(), item);
                }
                Ok(vec![Variant::object(obj)])
            }
            RIter::ArrayConstructor(items) => {
                let mut out = Vec::new();
                for i in items {
                    out.extend(self.eval_in(i, env)?);
                }
                Ok(vec![Variant::array(out)])
            }
            RIter::Sequence(items) => {
                let mut out = Vec::new();
                for i in items {
                    out.extend(self.eval_in(i, env)?);
                }
                Ok(out)
            }
            RIter::If { cond, then, else_ } => {
                if ebv(&self.eval_in(cond, env)?)? {
                    self.eval_in(then, env)
                } else {
                    self.eval_in(else_, env)
                }
            }
            RIter::FunctionCall { func, args } => self.call(*func, args, env),
        }
    }

    /// Produces the FLWOR tuple stream up to (and including) the given clause.
    fn tuples(&self, clause: &RIter, env: &Env) -> JResult<Vec<Env>> {
        self.check_deadline()?;
        match clause {
            RIter::ForClause { left, var, at, allowing_empty, expr } => {
                let base = match left {
                    Some(l) => self.tuples(l, env)?,
                    None => vec![env.clone()],
                };
                let mut out = Vec::new();
                for t in &base {
                    let seq = self.eval_in(expr, t)?;
                    if seq.is_empty() && *allowing_empty {
                        let mut t2 = t.clone();
                        t2.insert(var.clone(), Rc::new(Vec::new()));
                        if let Some(a) = at {
                            t2.insert(a.clone(), Rc::new(vec![Variant::Int(0)]));
                        }
                        out.push(t2);
                        continue;
                    }
                    for (i, item) in self.boundary(seq).into_iter().enumerate() {
                        let mut t2 = t.clone();
                        t2.insert(var.clone(), Rc::new(vec![item]));
                        if let Some(a) = at {
                            t2.insert(a.clone(), Rc::new(vec![Variant::Int(i as i64 + 1)]));
                        }
                        out.push(t2);
                    }
                }
                Ok(out)
            }
            RIter::LetClause { left, var, expr } => {
                let base = match left {
                    Some(l) => self.tuples(l, env)?,
                    None => vec![env.clone()],
                };
                let mut out = Vec::with_capacity(base.len());
                for t in base {
                    let seq = self.boundary(self.eval_in(expr, &t)?);
                    let mut t2 = t;
                    t2.insert(var.clone(), Rc::new(seq));
                    out.push(t2);
                }
                Ok(out)
            }
            RIter::WhereClause { left, pred } => {
                let base = self.tuples(left, env)?;
                let mut out = Vec::with_capacity(base.len());
                for t in base {
                    if ebv(&self.eval_in(pred, &t)?)? {
                        out.push(t);
                    }
                }
                Ok(out)
            }
            RIter::GroupByClause { left, keys } => {
                let base = self.tuples(left, env)?;
                // Ordered grouping: group identity is the canonical key of the
                // grouping values; non-key variables concatenate.
                let mut order: Vec<Vec<Key>> = Vec::new();
                let mut groups: HashMap<Vec<Key>, (Vec<Item>, Vec<Env>)> = HashMap::new();
                for t in base {
                    let mut kvals = Vec::with_capacity(keys.len());
                    for (var, e) in keys {
                        let v = match e {
                            Some(e) => self.eval_in(e, &t)?,
                            None => t
                                .get(var)
                                .map(|s| (**s).clone())
                                .ok_or_else(|| {
                                    JsoniqError::Dynamic(format!(
                                        "group-by variable ${var} is unbound"
                                    ))
                                })?,
                        };
                        let item = match v.len() {
                            0 => Variant::Null,
                            1 => v.into_iter().next().unwrap(),
                            _ => {
                                return Err(JsoniqError::Dynamic(
                                    "group-by key must be a single atomic value".into(),
                                ))
                            }
                        };
                        kvals.push(item);
                    }
                    let key: Vec<Key> = kvals.iter().map(Key::of).collect();
                    match groups.get_mut(&key) {
                        Some((_, tuples)) => tuples.push(t),
                        None => {
                            order.push(key.clone());
                            groups.insert(key, (kvals, vec![t]));
                        }
                    }
                }
                let mut out = Vec::with_capacity(order.len());
                for key in order {
                    let (kvals, tuples) = groups.remove(&key).expect("group exists");
                    // Merge: every variable bound in the tuples concatenates,
                    // then key variables re-bind to their singleton key value.
                    let mut merged: Env = Env::new();
                    for t in &tuples {
                        for (name, seq) in t {
                            let entry = merged.entry(name.clone()).or_insert_with(|| {
                                Rc::new(Vec::new())
                            });
                            let v = Rc::make_mut(entry);
                            v.extend(seq.iter().cloned());
                        }
                    }
                    for ((var, _), kv) in keys.iter().zip(kvals) {
                        merged.insert(var.clone(), Rc::new(vec![kv]));
                    }
                    out.push(merged);
                }
                Ok(out)
            }
            RIter::OrderByClause { left, keys } => {
                let base = self.tuples(left, env)?;
                let mut decorated: Vec<(Vec<Item>, Env)> = Vec::with_capacity(base.len());
                for t in base {
                    let mut kv = Vec::with_capacity(keys.len());
                    for (e, _) in keys {
                        let v = self.eval_in(e, &t)?;
                        kv.push(match v.len() {
                            0 => Variant::Null, // "empty least"
                            1 => v.into_iter().next().unwrap(),
                            _ => {
                                return Err(JsoniqError::Dynamic(
                                    "order-by key must be a single atomic value".into(),
                                ))
                            }
                        });
                    }
                    decorated.push((kv, t));
                }
                decorated.sort_by(|(a, _), (b, _)| {
                    for (i, (_, desc)) in keys.iter().enumerate() {
                        let c = jsoniq_cmp(&a[i], &b[i]);
                        let c = if *desc { c.reverse() } else { c };
                        if c != std::cmp::Ordering::Equal {
                            return c;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(decorated.into_iter().map(|(_, t)| t).collect())
            }
            RIter::CountClause { left, var } => {
                let base = self.tuples(left, env)?;
                Ok(base
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut t)| {
                        t.insert(var.clone(), Rc::new(vec![Variant::Int(i as i64 + 1)]));
                        t
                    })
                    .collect())
            }
            other => Err(JsoniqError::Dynamic(format!(
                "not a FLWOR clause: {other:?}"
            ))),
        }
    }

    fn call(&self, func: Builtin, args: &[RIter], env: &Env) -> JResult<Seq> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval_in(a, env)?);
        }
        let arg = |i: usize| -> &Seq { &vals[i] };
        let num1 = |f: fn(f64) -> f64, name: &str| -> JResult<Seq> {
            let v = arg(0);
            if v.is_empty() {
                return Ok(Vec::new());
            }
            let x = singleton(v, name)?;
            if x.is_null() {
                return Ok(vec![Variant::Null]);
            }
            let x = x
                .as_f64()
                .ok_or_else(|| JsoniqError::Dynamic(format!("{name} expects a number")))?;
            Ok(vec![Variant::Float(f(x))])
        };
        match func {
            Builtin::Count => Ok(vec![Variant::Int(arg(0).len() as i64)]),
            Builtin::Exists => Ok(vec![Variant::Bool(!arg(0).is_empty())]),
            Builtin::Empty => Ok(vec![Variant::Bool(arg(0).is_empty())]),
            Builtin::Sum => {
                let mut acc = Variant::Int(0);
                for v in arg(0) {
                    if v.is_null() {
                        continue;
                    }
                    acc = arith(BinaryOp::Add, &acc, v)?;
                }
                Ok(vec![acc])
            }
            Builtin::Avg => {
                let s = arg(0);
                let nums: Vec<f64> = s.iter().filter_map(Variant::as_f64).collect();
                if nums.is_empty() {
                    return Ok(Vec::new());
                }
                Ok(vec![Variant::Float(nums.iter().sum::<f64>() / nums.len() as f64)])
            }
            Builtin::Min | Builtin::Max => {
                let s = arg(0);
                let mut best: Option<&Variant> = None;
                for v in s {
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let c = cmp_variants(v, b);
                            let better = if func == Builtin::Min {
                                c == std::cmp::Ordering::Less
                            } else {
                                c == std::cmp::Ordering::Greater
                            };
                            if better {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                Ok(best.map(|b| vec![b.clone()]).unwrap_or_default())
            }
            Builtin::Abs => {
                let v = arg(0);
                if v.is_empty() {
                    return Ok(Vec::new());
                }
                match singleton(v, "abs")? {
                    Variant::Int(i) => Ok(vec![match i.checked_abs() {
                        Some(a) => Variant::Int(a),
                        None => Variant::Float((*i as f64).abs()),
                    }]),
                    Variant::Float(f) => Ok(vec![Variant::Float(f.abs())]),
                    Variant::Null => Ok(vec![Variant::Null]),
                    other => Err(JsoniqError::Dynamic(format!(
                        "abs expects a number, got {}",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Sqrt => num1(f64::sqrt, "sqrt"),
            Builtin::Exp => num1(f64::exp, "exp"),
            Builtin::Log => num1(f64::ln, "log"),
            Builtin::Sin => num1(f64::sin, "sin"),
            Builtin::Cos => num1(f64::cos, "cos"),
            Builtin::Tan => num1(f64::tan, "tan"),
            Builtin::Asin => num1(f64::asin, "asin"),
            Builtin::Acos => num1(f64::acos, "acos"),
            Builtin::Atan => num1(f64::atan, "atan"),
            Builtin::Sinh => num1(f64::sinh, "sinh"),
            Builtin::Cosh => num1(f64::cosh, "cosh"),
            Builtin::Tanh => num1(f64::tanh, "tanh"),
            Builtin::Floor => num1(f64::floor, "floor"),
            Builtin::Ceiling => num1(f64::ceil, "ceiling"),
            Builtin::Round => {
                let v = arg(0);
                if v.is_empty() {
                    return Ok(Vec::new());
                }
                match singleton(v, "round")? {
                    Variant::Int(i) => Ok(vec![Variant::Int(*i)]),
                    Variant::Float(f) => Ok(vec![Variant::Float(f.round())]),
                    Variant::Null => Ok(vec![Variant::Null]),
                    other => Err(JsoniqError::Dynamic(format!(
                        "round expects a number, got {}",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Pow => {
                let (a, b) = (arg(0), arg(1));
                if a.is_empty() || b.is_empty() {
                    return Ok(Vec::new());
                }
                let x = singleton(a, "pow")?.as_f64();
                let y = singleton(b, "pow")?.as_f64();
                match (x, y) {
                    (Some(x), Some(y)) => Ok(vec![Variant::Float(x.powf(y))]),
                    _ => Err(JsoniqError::Dynamic("pow expects numbers".into())),
                }
            }
            Builtin::Atan2 => {
                let (a, b) = (arg(0), arg(1));
                if a.is_empty() || b.is_empty() {
                    return Ok(Vec::new());
                }
                let y = singleton(a, "atan2")?.as_f64();
                let x = singleton(b, "atan2")?.as_f64();
                match (y, x) {
                    (Some(y), Some(x)) => Ok(vec![Variant::Float(y.atan2(x))]),
                    _ => Err(JsoniqError::Dynamic("atan2 expects numbers".into())),
                }
            }
            Builtin::Pi => Ok(vec![Variant::Float(std::f64::consts::PI)]),
            Builtin::Size => {
                let v = arg(0);
                if v.is_empty() {
                    return Ok(Vec::new());
                }
                match singleton(v, "size")? {
                    Variant::Array(a) => Ok(vec![Variant::Int(a.len() as i64)]),
                    Variant::Null => Ok(vec![Variant::Null]),
                    other => Err(JsoniqError::Dynamic(format!(
                        "size expects an array, got {}",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Keys => {
                let mut out = Vec::new();
                for v in arg(0) {
                    if let Variant::Object(o) = v {
                        out.extend(o.iter().map(|(k, _)| Variant::from(k)));
                    }
                }
                Ok(out)
            }
            Builtin::Members => {
                let mut out = Vec::new();
                for v in arg(0) {
                    if let Variant::Array(a) = v {
                        out.extend(a.iter().cloned());
                    }
                }
                Ok(out)
            }
            Builtin::Not => Ok(vec![Variant::Bool(!ebv(arg(0))?)]),
            Builtin::Boolean => Ok(vec![Variant::Bool(ebv(arg(0))?)]),
            Builtin::Head => Ok(arg(0).first().cloned().into_iter().collect()),
            Builtin::Integer => {
                let v = arg(0);
                if v.is_empty() {
                    return Ok(Vec::new());
                }
                match singleton(v, "integer")? {
                    Variant::Int(i) => Ok(vec![Variant::Int(*i)]),
                    Variant::Float(f) => Ok(vec![Variant::Int(f.round() as i64)]),
                    Variant::Str(s) => s
                        .trim()
                        .parse::<i64>()
                        .map(|i| vec![Variant::Int(i)])
                        .map_err(|_| JsoniqError::Dynamic(format!("cannot cast '{s}' to integer"))),
                    Variant::Bool(b) => Ok(vec![Variant::Int(*b as i64)]),
                    other => Err(JsoniqError::Dynamic(format!(
                        "cannot cast {} to integer",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Double => {
                let v = arg(0);
                if v.is_empty() {
                    return Ok(Vec::new());
                }
                match singleton(v, "double")? {
                    Variant::Int(i) => Ok(vec![Variant::Float(*i as f64)]),
                    Variant::Float(f) => Ok(vec![Variant::Float(*f)]),
                    Variant::Str(s) => s
                        .trim()
                        .parse::<f64>()
                        .map(|f| vec![Variant::Float(f)])
                        .map_err(|_| JsoniqError::Dynamic(format!("cannot cast '{s}' to double"))),
                    other => Err(JsoniqError::Dynamic(format!(
                        "cannot cast {} to double",
                        other.type_name()
                    ))),
                }
            }
            Builtin::StringFn => {
                let v = arg(0);
                if v.is_empty() {
                    return Ok(vec![Variant::str("")]);
                }
                Ok(vec![Variant::from(stringify(singleton(v, "string")?))])
            }
            Builtin::Concat => {
                let mut s = String::new();
                for v in &vals {
                    s.push_str(&stringify_opt(v));
                }
                Ok(vec![Variant::from(s)])
            }
            Builtin::Substring => {
                let s = arg(0);
                if s.is_empty() {
                    return Ok(Vec::new());
                }
                let text = match singleton(s, "substring")? {
                    Variant::Str(t) => t.to_string(),
                    other => stringify(other),
                };
                let start = singleton(arg(1), "substring")?
                    .as_i64()
                    .ok_or_else(|| JsoniqError::Dynamic("substring start must be integer".into()))?;
                let chars: Vec<char> = text.chars().collect();
                let begin = (start.max(1) - 1) as usize;
                let out: String = if vals.len() > 2 {
                    let len = singleton(arg(2), "substring")?.as_i64().unwrap_or(0).max(0) as usize;
                    chars.iter().skip(begin).take(len).collect()
                } else {
                    chars.iter().skip(begin).collect()
                };
                Ok(vec![Variant::from(out)])
            }
            Builtin::StringLength => {
                let v = arg(0);
                if v.is_empty() {
                    return Ok(vec![Variant::Int(0)]);
                }
                match singleton(v, "string-length")? {
                    Variant::Str(s) => Ok(vec![Variant::Int(s.chars().count() as i64)]),
                    other => Ok(vec![Variant::Int(stringify(other).chars().count() as i64)]),
                }
            }
        }
    }
}

/// JSONiq value comparison. An order comparison of two non-null values of
/// different kinds — a string and a number, say — is a type error, as it is
/// in the engine.
fn compare(op: BinaryOp, a: &Variant, b: &Variant) -> JResult<bool> {
    use std::cmp::Ordering;
    use Variant::{Bool, Float, Int, Str};
    let order = matches!(op, BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge);
    let comparable = a.is_null()
        || b.is_null()
        || matches!(
            (a, b),
            (Int(_) | Float(_), Int(_) | Float(_)) | (Str(_), Str(_)) | (Bool(_), Bool(_))
        );
    if order && !comparable {
        return Err(JsoniqError::Dynamic(format!(
            "cannot compare values of types {} and {}",
            a.type_name(),
            b.type_name()
        )));
    }
    let c = jsoniq_cmp(a, b);
    Ok(match op {
        BinaryOp::Eq => a == b,
        BinaryOp::Ne => a != b,
        BinaryOp::Lt => c == Ordering::Less,
        BinaryOp::Le => c != Ordering::Greater,
        BinaryOp::Gt => c == Ordering::Greater,
        BinaryOp::Ge => c != Ordering::Less,
        _ => return Err(JsoniqError::Dynamic("not a comparison operator".into())),
    })
}

/// JSONiq ordering: `null` sorts before everything (the "null smallest" rule,
/// also JSONiq's "empty least" once empties map to null).
pub fn jsoniq_cmp(a: &Variant, b: &Variant) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => cmp_variants(a, b),
    }
}

/// JSONiq arithmetic on two non-null items.
fn arith(op: BinaryOp, a: &Variant, b: &Variant) -> JResult<Variant> {
    use snowdb::variant::NumericPair;
    let pair = NumericPair::coerce(a, b).ok_or_else(|| {
        JsoniqError::Dynamic(format!(
            "cannot apply arithmetic to {} and {}",
            a.type_name(),
            b.type_name()
        ))
    })?;
    Ok(match (op, pair) {
        (BinaryOp::Add, NumericPair::Int(x, y)) => match x.checked_add(y) {
            Some(v) => Variant::Int(v),
            None => Variant::Float(x as f64 + y as f64),
        },
        (BinaryOp::Sub, NumericPair::Int(x, y)) => match x.checked_sub(y) {
            Some(v) => Variant::Int(v),
            None => Variant::Float(x as f64 - y as f64),
        },
        (BinaryOp::Mul, NumericPair::Int(x, y)) => match x.checked_mul(y) {
            Some(v) => Variant::Int(v),
            None => Variant::Float(x as f64 * y as f64),
        },
        (BinaryOp::Div, NumericPair::Int(x, y)) => {
            if y == 0 {
                return Err(JsoniqError::Dynamic("division by zero".into()));
            }
            Variant::Float(x as f64 / y as f64)
        }
        (BinaryOp::IDiv, NumericPair::Int(x, y)) => {
            if y == 0 {
                return Err(JsoniqError::Dynamic("division by zero".into()));
            }
            // Only `i64::MIN idiv -1` overflows; the translation's
            // `FLOOR(x / y)::INT` saturates there.
            Variant::Int(x.checked_div(y).unwrap_or(i64::MAX))
        }
        (BinaryOp::Mod, NumericPair::Int(x, y)) => {
            if y == 0 {
                return Err(JsoniqError::Dynamic("division by zero".into()));
            }
            // `i64::MIN mod -1` is 0, as the engine's `%` answers.
            Variant::Int(x.checked_rem(y).unwrap_or(0))
        }
        (BinaryOp::Add, NumericPair::Float(x, y)) => Variant::Float(x + y),
        (BinaryOp::Sub, NumericPair::Float(x, y)) => Variant::Float(x - y),
        (BinaryOp::Mul, NumericPair::Float(x, y)) => Variant::Float(x * y),
        (BinaryOp::Div, NumericPair::Float(x, y)) => {
            if y == 0.0 {
                return Err(JsoniqError::Dynamic("division by zero".into()));
            }
            Variant::Float(x / y)
        }
        (BinaryOp::IDiv, NumericPair::Float(x, y)) => Variant::Int((x / y).trunc() as i64),
        (BinaryOp::Mod, NumericPair::Float(x, y)) => Variant::Float(x % y),
        _ => return Err(JsoniqError::Dynamic("not an arithmetic operator".into())),
    })
}

/// Effective boolean value of a sequence.
pub fn ebv(seq: &[Item]) -> JResult<bool> {
    match seq {
        [] => Ok(false),
        [one] => Ok(match one {
            Variant::Null => false,
            Variant::Bool(b) => *b,
            Variant::Int(i) => *i != 0,
            Variant::Float(f) => *f != 0.0 && !f.is_nan(),
            Variant::Str(s) => !s.is_empty(),
            Variant::Array(_) | Variant::Object(_) => true,
        }),
        _ => Err(JsoniqError::Dynamic(
            "effective boolean value of a multi-item sequence".into(),
        )),
    }
}

fn singleton<'s>(seq: &'s [Item], what: &str) -> JResult<&'s Item> {
    match seq {
        [one] => Ok(one),
        _ => Err(JsoniqError::Dynamic(format!(
            "{what} expects a single item, got a sequence of {}",
            seq.len()
        ))),
    }
}

fn stringify(v: &Variant) -> String {
    match v {
        Variant::Str(s) => s.to_string(),
        other => snowdb::variant::to_json(other),
    }
}

fn stringify_opt(seq: &[Item]) -> String {
    match seq {
        [] => String::new(),
        [one] => stringify(one),
        _ => seq.iter().map(stringify).collect::<Vec<_>>().join(" "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Seq {
        let mem = MemoryCollections::default();
        Interpreter::new(&mem).eval_query(src).unwrap()
    }

    fn run_with(src: &str, name: &str, docs: &[&str]) -> Seq {
        let mut mem = MemoryCollections::default();
        mem.collections.insert(
            name.to_string(),
            docs.iter().map(|d| snowdb::variant::parse_json(d).unwrap()).collect(),
        );
        Interpreter::new(&mem).eval_query(src).unwrap()
    }

    #[test]
    fn basic_flwor() {
        let r = run("for $x in (1, 2, 3) where $x ge 2 return $x * 10");
        assert_eq!(r, vec![Variant::Int(20), Variant::Int(30)]);
    }

    #[test]
    fn let_binds_sequences() {
        let r = run("let $s := (1, 2, 3) return count($s)");
        assert_eq!(r, vec![Variant::Int(3)]);
    }

    #[test]
    fn object_and_array_navigation() {
        let r = run_with(
            r#"for $e in collection("t") return $e.A[[2]].B"#,
            "t",
            &[r#"{"A": [{"B": 1}, {"B": 2}]}"#],
        );
        assert_eq!(r, vec![Variant::Int(2)]);
    }

    #[test]
    fn unboxing_flattens_arrays() {
        let r = run_with(
            r#"for $m in collection("t").M[] return $m"#,
            "t",
            &[r#"{"M": [1, 2]}"#, r#"{"M": []}"#, r#"{"M": [3]}"#],
        );
        assert_eq!(r, vec![Variant::Int(1), Variant::Int(2), Variant::Int(3)]);
        // An object, a scalar or null unboxes to nothing.
        let r = run_with(
            r#"for $m in collection("t").M[] return $m"#,
            "t",
            &[r#"{"M": {"a": 1}}"#, r#"{"M": 7}"#, r#"{"M": null}"#, r#"{"M": [4]}"#],
        );
        assert_eq!(r, vec![Variant::Int(4)]);
    }

    #[test]
    fn group_by_with_count() {
        let r = run(
            r#"for $x in (1, 2, 3, 4, 5)
               group by $k := $x mod 2
               order by $k
               return {"k": $k, "n": count($x)}"#,
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].get_field("n"), Variant::Int(2)); // evens: 2, 4
        assert_eq!(r[1].get_field("n"), Variant::Int(3)); // odds: 1, 3, 5
    }

    #[test]
    fn order_by_descending() {
        let r = run("for $x in (2, 1, 3) order by $x descending return $x");
        assert_eq!(r, vec![Variant::Int(3), Variant::Int(2), Variant::Int(1)]);
    }

    #[test]
    fn count_clause_numbers_tuples() {
        let r = run("for $x in (10, 20) count $c return $c");
        assert_eq!(r, vec![Variant::Int(1), Variant::Int(2)]);
    }

    #[test]
    fn nested_flwor_in_let_keeps_cardinality() {
        // Paper Listing 4 semantics: the nested query cannot remove parents.
        let r = run_with(
            r#"for $event in collection("adl")
               let $filtered := (
                 for $m in $event.Muon[]
                 where $m gt 10
                 return $m
               )
               return count($filtered)"#,
            "adl",
            &[r#"{"Muon": [5, 20, 30]}"#, r#"{"Muon": []}"#, r#"{"Muon": [1]}"#],
        );
        assert_eq!(r, vec![Variant::Int(2), Variant::Int(0), Variant::Int(0)]);
    }

    #[test]
    fn positional_for_variable() {
        let r = run("for $x at $i in (5, 6) return $i * 100 + $x");
        assert_eq!(r, vec![Variant::Int(105), Variant::Int(206)]);
    }

    #[test]
    fn allowing_empty_emits_empty_binding() {
        let r = run(
            "for $x allowing empty in () return if (exists($x)) then 1 else 0",
        );
        assert_eq!(r, vec![Variant::Int(0)]);
    }

    #[test]
    fn quantified_expressions() {
        let r = run("some $x in (1, 2, 3) satisfies $x gt 2");
        assert_eq!(r, vec![Variant::Bool(true)]);
        let r = run("every $x in (1, 2, 3) satisfies $x gt 2");
        assert_eq!(r, vec![Variant::Bool(false)]);
    }

    #[test]
    fn range_expression() {
        let r = run("for $i in 1 to 3 return $i");
        assert_eq!(r, vec![Variant::Int(1), Variant::Int(2), Variant::Int(3)]);
    }

    #[test]
    fn positional_predicate_selects() {
        let r = run("(for $x in (9, 8, 7) order by $x return $x)[1]");
        assert_eq!(r, vec![Variant::Int(7)]);
        let r = run("(1, 2)[5]");
        assert!(r.is_empty());
    }

    #[test]
    fn aggregates() {
        assert_eq!(run("sum((1, 2, 3))"), vec![Variant::Int(6)]);
        assert_eq!(run("sum(())"), vec![Variant::Int(0)]);
        assert_eq!(run("min((3, 1, 2))"), vec![Variant::Int(1)]);
        assert_eq!(run("max((3.5, 1.0))"), vec![Variant::Float(3.5)]);
        assert_eq!(run("avg((1, 2))"), vec![Variant::Float(1.5)]);
        assert!(run("min(())").is_empty());
    }

    #[test]
    fn empty_sequence_propagates_through_comparison() {
        let r = run("for $x in (1) where ().y lt 1 return $x");
        assert!(r.is_empty());
    }

    #[test]
    fn division_semantics() {
        assert_eq!(run("7 div 2"), vec![Variant::Float(3.5)]);
        assert_eq!(run("7 idiv 2"), vec![Variant::Int(3)]);
        assert_eq!(run("7 mod 2"), vec![Variant::Int(1)]);
    }

    #[test]
    fn object_constructor_wraps_sequences() {
        let r = run(r#"{"a": (1, 2), "b": (), "c": 5}"#);
        let o = r[0].as_object().unwrap();
        assert_eq!(o.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(o.get("b").unwrap().is_null());
        assert_eq!(o.get("c"), Some(&Variant::Int(5)));
    }

    #[test]
    fn string_functions() {
        assert_eq!(run(r#""a" || "b""#), vec![Variant::str("ab")]);
        assert_eq!(run(r#"substring("hello", 2, 3)"#), vec![Variant::str("ell")]);
        assert_eq!(run(r#"string_length("héllo")"#), vec![Variant::Int(5)]);
    }

    #[test]
    fn errors_are_reported() {
        let mem = MemoryCollections::default();
        let it = Interpreter::new(&mem);
        assert!(matches!(it.eval_query("$nope"), Err(JsoniqError::Dynamic(_))));
        assert!(matches!(it.eval_query("1 div 0"), Err(JsoniqError::Dynamic(_))));
        assert!(matches!(
            it.eval_query(r#"for $x in collection("missing") return $x"#),
            Err(JsoniqError::Dynamic(_))
        ));
    }
}
