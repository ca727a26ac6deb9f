//! SQL tokenizer.
//!
//! Follows Snowflake's lexical conventions as far as the workloads need them:
//! unquoted identifiers fold to upper case, `"quoted"` identifiers are exact,
//! strings use single quotes with `''` escaping, `::` is the cast operator, `:`
//! begins a variant path, and `=>` is the named-argument arrow used by
//! `FLATTEN(INPUT => ...)`.

use crate::error::{Result, SnowError};

/// One SQL token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or keyword; `quoted` identifiers keep their exact case.
    Ident { text: String, quoted: bool },
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (already unescaped).
    Str(String),
    /// Punctuation / operator.
    Sym(&'static str),
    /// End of input.
    Eof,
}

impl Token {
    /// True when this token is the given (case-insensitive) keyword.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident { text, quoted: false } if text.eq_ignore_ascii_case(kw))
    }

    /// True when this token is the given symbol.
    pub fn is_sym(&self, s: &str) -> bool {
        matches!(self, Token::Sym(t) if *t == s)
    }
}

/// Tokenizes a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    tokenize_spanned(input).map(|(tokens, _)| tokens)
}

/// [`tokenize`], plus the byte offset each token starts at (`input.len()`
/// for the closing [`Token::Eof`]), so the parser can quote a statement's
/// source without a second notion of where comments and quotes end.
pub(super) fn tokenize_spanned(input: &str) -> Result<(Vec<Token>, Vec<usize>)> {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(input.len() / 4);
    let mut starts = Vec::with_capacity(input.len() / 4);
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(SnowError::Lex(format!(
                            "unterminated block comment at byte {start}"
                        )));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'\'' => {
                let (text, end) = quoted(input, i + 1, b'\'')
                    .ok_or_else(|| SnowError::Lex("unterminated string literal".into()))?;
                out.push(Token::Str(text));
                i = end;
            }
            b'"' => {
                let (text, end) = quoted(input, i + 1, b'"')
                    .ok_or_else(|| SnowError::Lex("unterminated quoted identifier".into()))?;
                out.push(Token::Ident { text, quoted: true });
                i = end;
            }
            b'0'..=b'9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                // A '.' is part of the number only when followed by a digit, so
                // `1.x` path syntax never arises here (paths use ':' roots).
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = std::str::from_utf8(&bytes[start..i]).unwrap();
                if is_float {
                    out.push(Token::Float(text.parse().map_err(|_| {
                        SnowError::Lex(format!("invalid number '{text}'"))
                    })?));
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => out.push(Token::Int(v)),
                        Err(_) => out.push(Token::Float(text.parse().map_err(|_| {
                            SnowError::Lex(format!("invalid number '{text}'"))
                        })?)),
                    }
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                let text = std::str::from_utf8(&bytes[start..i]).unwrap().to_ascii_uppercase();
                out.push(Token::Ident { text, quoted: false });
            }
            _ => {
                let two = if i + 1 < bytes.len() { &bytes[i..i + 2] } else { &bytes[i..i + 1] };
                let sym: Option<&'static str> = match two {
                    b"::" => Some("::"),
                    b"<=" => Some("<="),
                    b">=" => Some(">="),
                    b"<>" => Some("<>"),
                    b"!=" => Some("!="),
                    b"=>" => Some("=>"),
                    b"||" => Some("||"),
                    _ => match b {
                        b'(' => Some("("),
                        b')' => Some(")"),
                        b',' => Some(","),
                        b'.' => Some("."),
                        b';' => Some(";"),
                        b':' => Some(":"),
                        b'[' => Some("["),
                        b']' => Some("]"),
                        b'+' => Some("+"),
                        b'-' => Some("-"),
                        b'*' => Some("*"),
                        b'/' => Some("/"),
                        b'%' => Some("%"),
                        b'=' => Some("="),
                        b'<' => Some("<"),
                        b'>' => Some(">"),
                        _ => None,
                    },
                };
                match sym {
                    Some(s) => {
                        out.push(Token::Sym(s));
                        i += s.len();
                    }
                    None => {
                        return Err(SnowError::Lex(format!(
                            "unexpected character '{}' at byte {i}",
                            b as char
                        )))
                    }
                }
            }
        }
        // Whitespace and comments push no token and record no start.
        if starts.len() < out.len() {
            starts.push(start);
        }
    }
    starts.push(bytes.len());
    out.push(Token::Eof);
    Ok((out, starts))
}

/// The body of a string literal or quoted identifier whose opening `quote`
/// ends just before byte `i`; a doubled quote stands for one. Returns the
/// unescaped text and the offset after the closing quote, `None` when the
/// input ends first.
fn quoted(input: &str, mut i: usize, quote: u8) -> Option<(String, usize)> {
    let mut text = String::new();
    loop {
        // An ASCII quote is never part of a multi-byte character, so the run
        // up to it is cut on character boundaries.
        let run = input.as_bytes()[i..].iter().position(|&b| b == quote)?;
        text.push_str(&input[i..i + run]);
        i += run + 1;
        if input.as_bytes().get(i) != Some(&quote) {
            return Some((text, i));
        }
        text.push(quote as char);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_unquoted_idents_keeps_quoted() {
        let toks = tokenize(r#"select "Mixed" from tbl"#).unwrap();
        assert_eq!(toks[0], Token::Ident { text: "SELECT".into(), quoted: false });
        assert_eq!(toks[1], Token::Ident { text: "Mixed".into(), quoted: true });
        assert_eq!(toks[3], Token::Ident { text: "TBL".into(), quoted: false });
    }

    #[test]
    fn lexes_numbers() {
        let toks = tokenize("1 2.5 1e3 10.25e-2 9223372036854775807").unwrap();
        assert_eq!(toks[0], Token::Int(1));
        assert_eq!(toks[1], Token::Float(2.5));
        assert_eq!(toks[2], Token::Float(1000.0));
        assert_eq!(toks[3], Token::Float(0.1025));
        assert_eq!(toks[4], Token::Int(i64::MAX));
    }

    #[test]
    fn distinguishes_colon_and_cast() {
        let toks = tokenize("a:b::int").unwrap();
        assert!(toks[1].is_sym(":"));
        assert!(toks[3].is_sym("::"));
    }

    #[test]
    fn string_escape_doubling() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks[0], Token::Str("it's".into()));
        // Doubled quotes at either end and beside multi-byte characters, in
        // both kinds of quoted token; the empty string.
        let toks = tokenize("'''\u{e9}''\u{4e16}' \"a\"\"\u{754c}\"\"\" ''").unwrap();
        assert_eq!(toks[0], Token::Str("'\u{e9}'\u{4e16}".into()));
        assert_eq!(toks[1], Token::Ident { text: "a\"\u{754c}\"".into(), quoted: true });
        assert_eq!(toks[2], Token::Str(String::new()));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("select -- hi\n 1 /* block */ + 2").unwrap();
        let syms = toks.iter().filter(|t| t.is_sym("+")).count();
        assert_eq!(syms, 1);
        assert_eq!(toks.len(), 5); // SELECT, 1, +, 2, EOF
    }

    #[test]
    fn arrow_and_comparison_operators() {
        let toks = tokenize("=> <= >= <> != = ||").unwrap();
        let expect = ["=>", "<=", ">=", "<>", "!=", "=", "||"];
        for (t, e) in toks.iter().zip(expect) {
            assert!(t.is_sym(e), "{t:?} vs {e}");
        }
    }

    #[test]
    fn quoted_identifiers_decode_utf8() {
        let toks = tokenize("\"caf\u{e9} \u{4e16}\u{754c}\"").unwrap();
        assert_eq!(
            toks[0],
            Token::Ident { text: "caf\u{e9} \u{4e16}\u{754c}".into(), quoted: true }
        );
    }

    #[test]
    fn rejects_unterminated_tokens() {
        assert!(tokenize("'abc").is_err());
        assert!(tokenize("\"abc").is_err());
        assert!(tokenize("/* abc").is_err());
        assert!(tokenize("select #").is_err());
    }

    #[test]
    fn malformed_input_is_a_typed_lex_error_never_a_panic() {
        // Every rejection must surface as SnowError::Lex so callers (REPL,
        // governed queries) can render it; none may unwind.
        for bad in [
            "'abc",                 // unterminated string
            "'it''",                // escape doubling then EOF inside string
            "\"abc",                // unterminated quoted identifier
            "/* abc",               // unterminated block comment
            "/* abc *",             // block comment ending mid-terminator
            "select #",             // unexpected symbol
            "select \u{7}",         // control byte
            "select \u{1F600}",     // non-ASCII outside quotes
        ] {
            match tokenize(bad) {
                Err(SnowError::Lex(msg)) => assert!(!msg.is_empty(), "{bad}"),
                other => panic!("expected Lex error for {bad:?}, got {other:?}"),
            }
        }
        // Numeric edge cases lex without panicking: overflow falls back to
        // float, huge exponents saturate to infinity.
        assert!(matches!(
            tokenize("9999999999999999999999999").unwrap()[0],
            Token::Float(_)
        ));
        assert!(matches!(tokenize("1e999999").unwrap()[0], Token::Float(_)));
    }

    #[test]
    fn number_then_dot_then_ident_is_not_a_float() {
        // `1.e` must not lex as a float followed by garbage.
        let toks = tokenize("x[1].y").unwrap();
        assert_eq!(toks[2], Token::Int(1));
        assert!(toks[4].is_sym("."));
    }
}
