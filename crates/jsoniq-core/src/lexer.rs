//! JSONiq tokenizer.
//!
//! JSONiq keywords are contextual (`for`, `where`, `eq`, ... are all plain
//! names); the parser decides. Names are case-sensitive. Strings use JSON
//! double-quote syntax with escapes. Comments are XQuery-style `(: ... :)`.
//!
//! Tokens borrow from the source: a name, a variable and a string literal
//! without escapes are slices of it, so lexing allocates only the token
//! vector and the text of literals that contain escapes.

use std::borrow::Cow;

use crate::ast::{JResult, JsoniqError};

/// One JSONiq token, borrowing from the text it was read from.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok<'a> {
    /// `$name`
    Var(&'a str),
    /// Bare name (identifier or contextual keyword).
    Name(&'a str),
    Int(i64),
    Float(f64),
    /// A string literal's value: the source slice, or its unescaped copy.
    Str(Cow<'a, str>),
    /// Punctuation: `{ } [ ] ( ) , : ; . := [[ ]] + - * = != < <= > >= ||`
    Sym(&'static str),
    Eof,
}

impl Tok<'_> {
    /// True when this token is the given bare name (exact case — JSONiq
    /// keywords are lowercase).
    pub fn is_name(&self, n: &str) -> bool {
        matches!(self, Tok::Name(t) if *t == n)
    }

    pub fn is_sym(&self, s: &str) -> bool {
        matches!(self, Tok::Sym(t) if *t == s)
    }
}

/// Tokenizes JSONiq source.
pub fn tokenize(src: &str) -> JResult<Vec<Tok<'_>>> {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(src.len() / 4);
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            c if c.is_ascii_whitespace() => i += 1,
            b'(' if b.get(i + 1) == Some(&b':') => {
                // Nested (: comments :).
                let mut depth = 1;
                let mut j = i + 2;
                while depth > 0 {
                    if j + 1 >= b.len() {
                        return Err(JsoniqError::Lex("unterminated comment".into()));
                    }
                    if b[j] == b'(' && b[j + 1] == b':' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b':' && b[j + 1] == b')' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            b'$' => {
                i += 1;
                let start = i;
                i = name_end(b, i);
                if start == i {
                    return Err(JsoniqError::Lex(format!("empty variable name at byte {i}")));
                }
                out.push(Tok::Var(&src[start..i]));
            }
            b'"' => {
                let start = i + 1;
                let mut escaped = false;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => {
                            escaped = true;
                            i += 2;
                        }
                        b'"' => break,
                        _ => i += 1,
                    }
                }
                if i >= b.len() {
                    return Err(JsoniqError::Lex("unterminated string literal".into()));
                }
                let body = &src[start..i];
                i += 1;
                out.push(Tok::Str(if escaped {
                    Cow::Owned(unescape(body, start)?)
                } else {
                    Cow::Borrowed(body)
                }));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    is_float = true;
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                    let mut j = i + 1;
                    if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                        j += 1;
                    }
                    if j < b.len() && b[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                if is_float {
                    out.push(Tok::Float(text.parse().map_err(|_| {
                        JsoniqError::Lex(format!("bad number '{text}'"))
                    })?));
                } else {
                    out.push(Tok::Int(text.parse().map_err(|_| {
                        JsoniqError::Lex(format!("integer literal '{text}' overflows"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                i = name_end(b, i);
                out.push(Tok::Name(&src[start..i]));
            }
            _ => {
                let two: &[u8] = if i + 1 < b.len() { &b[i..i + 2] } else { &b[i..i + 1] };
                let sym2: Option<&'static str> = match two {
                    b":=" => Some(":="),
                    b"[[" => Some("[["),
                    b"]]" => Some("]]"),
                    b"!=" => Some("!="),
                    b"<=" => Some("<="),
                    b">=" => Some(">="),
                    b"||" => Some("||"),
                    _ => None,
                };
                if let Some(s) = sym2 {
                    out.push(Tok::Sym(s));
                    i += 2;
                    continue;
                }
                let sym1: Option<&'static str> = match b[i] {
                    b'{' => Some("{"),
                    b'}' => Some("}"),
                    b'[' => Some("["),
                    b']' => Some("]"),
                    b'(' => Some("("),
                    b')' => Some(")"),
                    b',' => Some(","),
                    b':' => Some(":"),
                    b';' => Some(";"),
                    b'.' => Some("."),
                    b'+' => Some("+"),
                    b'-' => Some("-"),
                    b'*' => Some("*"),
                    b'=' => Some("="),
                    b'<' => Some("<"),
                    b'>' => Some(">"),
                    b'/' => Some("/"),
                    b'?' => Some("?"),
                    _ => None,
                };
                match sym1 {
                    Some(s) => {
                        out.push(Tok::Sym(s));
                        i += 1;
                    }
                    None => {
                        // `i` is on a character boundary: every token before
                        // it ended on an ASCII byte.
                        let c = src[i..].chars().next().expect("a character at a boundary");
                        return Err(JsoniqError::Lex(format!(
                            "unexpected character '{c}' at byte {i}"
                        )));
                    }
                }
            }
        }
    }
    out.push(Tok::Eof);
    Ok(out)
}

/// The end of the name (`[A-Za-z0-9_]*`) that starts at `i`.
fn name_end(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    i
}

/// The value of a string literal's body (the text between its quotes, which
/// starts at byte `at` of the source) under JSON's escapes: `\" \\ \/ \b
/// \f \n \r \t` and `\uXXXX`, a surrogate pair as two of them.
fn unescape(body: &str, at: usize) -> JResult<String> {
    let bad = |what: &str, i: usize| {
        JsoniqError::Lex(format!("bad string literal: {what} at byte {}", at + i))
    };
    let b = body.as_bytes();
    let hex4 = |i: usize| -> JResult<u32> {
        body.get(i..i + 4)
            .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad("invalid \\u escape", i))
    };
    let mut out = String::with_capacity(body.len());
    let mut i = 0;
    while let Some(off) = body[i..].find('\\') {
        out.push_str(&body[i..i + off]);
        i += off + 1;
        let c = match b.get(i) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let cp = hex4(i + 1)?;
                i += 4;
                let c = if (0xD800..0xDC00).contains(&cp) {
                    // A high surrogate must be followed by an escaped low one.
                    if !body[i + 1..].starts_with("\\u") {
                        return Err(bad("invalid unicode escape", i));
                    }
                    let lo = hex4(i + 3)?;
                    i += 6;
                    if (0xDC00..0xE000).contains(&lo) {
                        char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                    } else {
                        None
                    }
                } else {
                    char::from_u32(cp)
                };
                c.ok_or_else(|| bad("invalid unicode escape", i))?
            }
            _ => return Err(bad("invalid escape", i)),
        };
        out.push(c);
        i += 1;
    }
    out.push_str(&body[i..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_variables_and_names() {
        let t = tokenize("for $jet in collection").unwrap();
        assert_eq!(t[0], Tok::Name("for"));
        assert_eq!(t[1], Tok::Var("jet"));
        assert_eq!(t[2], Tok::Name("in"));
    }

    #[test]
    fn lexes_unbox_and_lookup_brackets() {
        let t = tokenize("$a[] $b[[1]] $c[2]").unwrap();
        assert!(t[1].is_sym("["));
        assert!(t[2].is_sym("]"));
        assert!(t[4].is_sym("[["));
        assert!(t[6].is_sym("]]"));
    }

    #[test]
    fn nested_comments() {
        let t = tokenize("1 (: outer (: inner :) still :) 2").unwrap();
        assert_eq!(t, vec![Tok::Int(1), Tok::Int(2), Tok::Eof]);
    }

    #[test]
    fn string_escapes() {
        let t = tokenize(r#""a\"b""#).unwrap();
        assert_eq!(t[0], Tok::Str("a\"b".into()));
    }

    #[test]
    fn assignment_symbol() {
        let t = tokenize("let $x := 1").unwrap();
        assert!(t[2].is_sym(":="));
    }

    #[test]
    fn numbers() {
        let t = tokenize("1 2.5 1e2").unwrap();
        assert_eq!(t[0], Tok::Int(1));
        assert_eq!(t[1], Tok::Float(2.5));
        assert_eq!(t[2], Tok::Float(100.0));
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let t = tokenize(r#""plain" "a\u00e9\ud83d\ude00\n""#).unwrap();
        assert!(matches!(&t[0], Tok::Str(Cow::Borrowed("plain"))));
        assert_eq!(t[1], Tok::Str("a\u{e9}\u{1f600}\n".into()));
        for bad in [r#""\q""#, r#""\u12""#, r#""\ud800x""#, r#""\ud800\u0041""#] {
            assert!(matches!(tokenize(bad), Err(JsoniqError::Lex(_))), "{bad}");
        }
    }

    /// A character outside ASCII is reported as itself, at its byte offset —
    /// not as its first UTF-8 byte read as Latin-1.
    #[test]
    fn reports_a_non_ascii_character_and_its_offset() {
        let err = tokenize("1 + é").unwrap_err();
        assert_eq!(err, JsoniqError::Lex("unexpected character 'é' at byte 4".into()));
        let err = tokenize("\"ü\" (: ß :) €").unwrap_err();
        assert_eq!(err, JsoniqError::Lex("unexpected character '€' at byte 14".into()));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(tokenize("$").is_err());
        assert!(tokenize("\"abc").is_err());
        assert!(tokenize("(: never closed").is_err());
        assert!(tokenize("@").is_err());
    }
}
