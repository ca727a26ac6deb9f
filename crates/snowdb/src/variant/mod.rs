//! The `VARIANT` data model: schema-less nested values.
//!
//! Mirrors Snowflake's `VARIANT` semantics as far as the paper relies on them:
//! a value is null, a boolean, a number (integer or double), a string, an array,
//! or an insertion-ordered object. Arrays and objects are reference-counted so that
//! moving values between operators never deep-copies nested payloads.

pub mod codec;
mod json;
mod ops;

pub use json::{parse_json, to_json};
pub use ops::{cmp_f64, cmp_i64_f64, cmp_variants, Key, NumericPair};

use std::fmt;
use std::sync::Arc;

/// A schema-less nested value (Snowflake `VARIANT`).
///
/// `Null` plays the role of both SQL `NULL` and JSON `null`; the engine follows
/// Snowflake in treating a JSON `null` stored in a `VARIANT` column as SQL-null for
/// predicate and aggregation purposes, which is the behaviour the paper's
/// flag-column translation depends on (`NULL`s are skipped by `ARRAY_AGG`).
#[derive(Clone)]
pub enum Variant {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Array(Arc<Vec<Variant>>),
    Object(Arc<Object>),
}

/// An insertion-ordered JSON object.
///
/// Objects in the workloads at hand are small (a handful of particle attributes),
/// so lookup is a linear scan over the field vector; this beats hashing for the
/// sizes involved and keeps serialization order stable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object {
    fields: Vec<(Arc<str>, Variant)>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Self {
        Object { fields: Vec::new() }
    }

    /// Creates an object with pre-reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Object { fields: Vec::with_capacity(n) }
    }

    /// Inserts a field, replacing any existing field with the same key.
    pub fn insert(&mut self, key: impl Into<Arc<str>>, value: Variant) {
        let key = key.into();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| **k == *key) {
            slot.1 = value;
        } else {
            self.fields.push((key, value));
        }
    }

    /// An object of fields whose keys are known to be distinct — a record a
    /// shredded column rebuilds — so no key is compared.
    pub(crate) fn from_distinct(fields: Vec<(Arc<str>, Variant)>) -> Self {
        Object { fields }
    }

    /// The fields with their shared key strings, in insertion order.
    pub(crate) fn entries(&self) -> &[(Arc<str>, Variant)] {
        &self.fields
    }

    /// Looks a field up by key.
    pub fn get(&self, key: &str) -> Option<&Variant> {
        self.fields.iter().find(|(k, _)| &**k == key).map(|(_, v)| v)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the object has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Variant)> {
        self.fields.iter().map(|(k, v)| (&**k, v))
    }
}

impl FromIterator<(Arc<str>, Variant)> for Object {
    fn from_iter<T: IntoIterator<Item = (Arc<str>, Variant)>>(iter: T) -> Self {
        let mut o = Object::new();
        for (k, v) in iter {
            o.insert(k, v);
        }
        o
    }
}

impl Variant {
    /// Convenience constructor for a string variant.
    pub fn str(s: impl AsRef<str>) -> Variant {
        Variant::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for an array variant.
    pub fn array(items: Vec<Variant>) -> Variant {
        Variant::Array(Arc::new(items))
    }

    /// Convenience constructor for an object variant.
    pub fn object(obj: Object) -> Variant {
        Variant::Object(Arc::new(obj))
    }

    /// True when the value is SQL/JSON null.
    pub fn is_null(&self) -> bool {
        matches!(self, Variant::Null)
    }

    /// Human-readable type name, used in error messages and `TYPEOF`.
    pub fn type_name(&self) -> &'static str {
        match self {
            Variant::Null => "NULL",
            Variant::Bool(_) => "BOOLEAN",
            Variant::Int(_) => "INTEGER",
            Variant::Float(_) => "DOUBLE",
            Variant::Str(_) => "VARCHAR",
            Variant::Array(_) => "ARRAY",
            Variant::Object(_) => "OBJECT",
        }
    }

    /// Numeric view of the value, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Variant::Int(i) => Some(*i as f64),
            Variant::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an integer (or an integral double).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Variant::Int(i) => Some(*i),
            Variant::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Variant::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Variant::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Variant]> {
        match self {
            Variant::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Variant::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Field access on objects; `Null` on non-objects or missing fields
    /// (Snowflake `GET` semantics).
    pub fn get_field(&self, key: &str) -> Variant {
        self.field_ref(key).clone()
    }

    /// [`Variant::get_field`] by reference: nothing is cloned.
    pub fn field_ref(&self, key: &str) -> &Variant {
        match self {
            Variant::Object(o) => o.get(key).unwrap_or(&Variant::Null),
            _ => &Variant::Null,
        }
    }

    /// Index access on arrays; `Null` when out of bounds or not an array
    /// (Snowflake `GET` semantics).
    pub fn get_index(&self, idx: i64) -> Variant {
        self.index_ref(idx).clone()
    }

    /// [`Variant::get_index`] by reference: nothing is cloned.
    pub fn index_ref(&self, idx: i64) -> &Variant {
        match (self, usize::try_from(idx)) {
            (Variant::Array(a), Ok(i)) => a.get(i).unwrap_or(&Variant::Null),
            _ => &Variant::Null,
        }
    }

    /// Estimated uncompressed size in bytes, used for micro-partition sizing and
    /// the bytes-scanned accounting of §V-E.
    pub fn estimated_size(&self) -> u64 {
        match self {
            Variant::Null => 1,
            Variant::Bool(_) => 1,
            Variant::Int(_) => 8,
            Variant::Float(_) => 8,
            Variant::Str(s) => s.len() as u64 + 2,
            Variant::Array(a) => 2 + a.iter().map(Variant::estimated_size).sum::<u64>(),
            Variant::Object(o) => {
                2 + o
                    .iter()
                    .map(|(k, v)| k.len() as u64 + 3 + v.estimated_size())
                    .sum::<u64>()
            }
        }
    }
}

impl fmt::Debug for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", to_json(self))
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Bare strings print unquoted, like Snowflake result display.
            Variant::Str(s) => write!(f, "{s}"),
            other => write!(f, "{}", to_json(other)),
        }
    }
}

impl From<bool> for Variant {
    fn from(b: bool) -> Self {
        Variant::Bool(b)
    }
}

impl From<i64> for Variant {
    fn from(i: i64) -> Self {
        Variant::Int(i)
    }
}

impl From<i32> for Variant {
    fn from(i: i32) -> Self {
        Variant::Int(i as i64)
    }
}

impl From<f64> for Variant {
    fn from(f: f64) -> Self {
        Variant::Float(f)
    }
}

impl From<&str> for Variant {
    fn from(s: &str) -> Self {
        Variant::str(s)
    }
}

impl From<String> for Variant {
    fn from(s: String) -> Self {
        Variant::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_insert_replaces_existing_key() {
        let mut o = Object::new();
        o.insert("a", Variant::Int(1));
        o.insert("b", Variant::Int(2));
        o.insert("a", Variant::Int(3));
        assert_eq!(o.len(), 2);
        assert_eq!(o.get("a"), Some(&Variant::Int(3)));
    }

    #[test]
    fn object_preserves_insertion_order() {
        let mut o = Object::new();
        o.insert("z", Variant::Int(1));
        o.insert("a", Variant::Int(2));
        let keys: Vec<&str> = o.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn get_field_on_non_object_is_null() {
        assert!(Variant::Int(1).get_field("x").is_null());
        assert!(Variant::Null.get_field("x").is_null());
    }

    #[test]
    fn get_index_semantics() {
        let a = Variant::array(vec![Variant::Int(10), Variant::Int(20)]);
        assert_eq!(a.get_index(1), Variant::Int(20));
        assert!(a.get_index(5).is_null());
        assert!(a.get_index(-1).is_null());
        assert!(Variant::Int(3).get_index(0).is_null());
    }

    #[test]
    fn as_i64_accepts_integral_floats() {
        assert_eq!(Variant::Float(4.0).as_i64(), Some(4));
        assert_eq!(Variant::Float(4.5).as_i64(), None);
        assert_eq!(Variant::Int(-7).as_i64(), Some(-7));
    }

    #[test]
    fn estimated_size_is_monotone_in_content() {
        let small = Variant::array(vec![Variant::Int(1)]);
        let big = Variant::array(vec![Variant::Int(1), Variant::str("hello world")]);
        assert!(big.estimated_size() > small.estimated_size());
    }
}
