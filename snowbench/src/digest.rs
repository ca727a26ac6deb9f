//! Result checking: a canonical text form per result item, multiset
//! equality between two results, and a compact order-insensitive digest
//! that every timed iteration is checked against.

use snowdb::Variant;

/// Appends the canonical form of `v`. Numbers that are whole print as
/// integers (`3` and `3.0` are the same answer, as in the engine's own
/// equality); other floats keep 12 significant digits, which absorbs the
/// last-bit differences a parallel float sum may show between runs. Objects
/// keep insertion order, the order the engine's equality compares.
pub fn canon(v: &Variant, out: &mut String) {
    use std::fmt::Write;
    match v {
        Variant::Null => out.push_str("null"),
        Variant::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Variant::Int(i) => write!(out, "{i}").expect("write to String"),
        Variant::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => {
            write!(out, "{}", *f as i64).expect("write to String")
        }
        Variant::Float(f) => write!(out, "{f:.11e}").expect("write to String"),
        Variant::Str(s) => write!(out, "{s:?}").expect("write to String"),
        Variant::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canon(item, out);
            }
            out.push(']');
        }
        Variant::Object(obj) => {
            out.push('{');
            for (i, (k, item)) in obj.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "{k:?}:").expect("write to String");
                canon(item, out);
            }
            out.push('}');
        }
    }
}

/// Canonical form of every item, sorted: two results are equal as multisets
/// exactly when these vectors are equal.
pub fn canon_sorted(items: &[Variant]) -> Vec<String> {
    let mut out: Vec<String> = items
        .iter()
        .map(|v| {
            let mut s = String::new();
            canon(v, &mut s);
            s
        })
        .collect();
    out.sort_unstable();
    out
}

/// Row count plus an order-insensitive hash of the canonical items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

/// Digest of a result: each item's FNV-1a hash is scrambled and summed, so
/// the order of items does not matter but their multiplicity does.
pub fn digest(items: &[Variant]) -> Digest {
    let mut hash = 0u64;
    let mut buf = String::new();
    for v in items {
        buf.clear();
        canon(v, &mut buf);
        hash = hash.wrapping_add(scramble(fnv1a(buf.as_bytes())));
    }
    Digest {
        rows: items.len() as u64,
        hash,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The splitmix64 finalizer; also the step function of [`SplitMix`].
fn scramble(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded generator for the writer's rows (splitmix64): the benchmark makes
/// its own inputs from `--seed` and depends on no random-number crate.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        scramble(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowdb::variant::Object;

    fn obj(pairs: &[(&str, Variant)]) -> Variant {
        let mut o = Object::new();
        for (k, v) in pairs {
            o.insert(*k, v.clone());
        }
        Variant::object(o)
    }

    #[test]
    fn digest_ignores_order_but_not_multiplicity() {
        let a = vec![Variant::Int(1), Variant::Int(2), Variant::Int(2)];
        let b = vec![Variant::Int(2), Variant::Int(1), Variant::Int(2)];
        let c = vec![Variant::Int(1), Variant::Int(1), Variant::Int(2)];
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert_ne!(digest(&a), digest(&a[..2]));
        assert_eq!(canon_sorted(&a), canon_sorted(&b));
        assert_ne!(canon_sorted(&a), canon_sorted(&c));
    }

    #[test]
    fn whole_floats_equal_integers_and_nested_values_are_walked() {
        let a = obj(&[("value", Variant::Float(3.0)), ("count", Variant::Int(7))]);
        let b = obj(&[("value", Variant::Int(3)), ("count", Variant::Int(7))]);
        let c = obj(&[("value", Variant::Int(3)), ("count", Variant::Int(8))]);
        assert_eq!(digest(std::slice::from_ref(&a)), digest(&[b]));
        assert_ne!(digest(&[a]), digest(&[c]));
        let nested = Variant::array(vec![Variant::Null, Variant::str("x"), Variant::Bool(true)]);
        let mut s = String::new();
        canon(&nested, &mut s);
        assert_eq!(s, r#"[null,"x",true]"#);
    }

    #[test]
    fn floats_differing_in_the_last_bits_share_a_digest() {
        let x = 0.1 + 0.2;
        let y = 0.3;
        assert_ne!(x, y);
        assert_eq!(digest(&[Variant::Float(x)]), digest(&[Variant::Float(y)]));
        assert_ne!(
            digest(&[Variant::Float(0.3)]),
            digest(&[Variant::Float(0.3001)])
        );
    }

    #[test]
    fn splitmix_repeats_for_a_seed() {
        let (mut a, mut b, mut c) = (SplitMix(7), SplitMix(7), SplitMix(8));
        let xs: Vec<u64> = (0..4).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.next()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(a.below(10) < 10);
    }
}
