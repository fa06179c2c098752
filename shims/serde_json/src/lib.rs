//! Offline stand-in for `serde_json`: prints and parses JSON through the
//! `serde` shim's [`Value`] data model. Supports the full JSON grammar
//! this workspace emits (objects, arrays, strings with escapes, numbers,
//! booleans, null); numbers round-trip exactly for integers below 2^53.

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON encoding/decoding failure.
#[derive(Clone, Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.0)
    }
}

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(x: &T) -> Result<String, Error> {
    let mut out = String::new();
    print_value(&x.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serialize a value to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(x: &T) -> Result<String, Error> {
    let mut out = String::new();
    print_value(&x.to_value(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Deserialize a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

fn print_value(
    v: &Value,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => {
            if !x.is_finite() {
                return Err(Error(format!("non-finite number {x} is not JSON")));
            }
            if x.fract() == 0.0 && x.abs() < 9.0e15 {
                // Integral and below 2^53, so the cast is exact.
                #[allow(clippy::cast_possible_truncation)]
                out.push_str(&format!("{}", *x as i64));
            } else {
                // Rust's f64 Display is the shortest round-tripping form.
                out.push_str(&format!("{x}"));
            }
        }
        Value::Str(s) => print_string(s, out),
        Value::Arr(items) => {
            print_seq(items.iter(), indent, depth, out, |item, ind, d, o| {
                print_value(item, ind, d, o)
            })?;
        }
        Value::Obj(fields) => {
            out.push('{');
            print_elems(fields.iter(), indent, depth, out, |(k, val), ind, d, o| {
                print_string(k, o);
                o.push(':');
                if ind.is_some() {
                    o.push(' ');
                }
                print_value(val, ind, d, o)
            })?;
            out.push('}');
        }
    }
    Ok(())
}

fn print_seq<'a, I, F>(
    items: I,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    f: F,
) -> Result<(), Error>
where
    I: ExactSizeIterator<Item = &'a Value>,
    F: Fn(&Value, Option<usize>, usize, &mut String) -> Result<(), Error>,
{
    out.push('[');
    print_elems(items, indent, depth, out, f)?;
    out.push(']');
    Ok(())
}

/// Shared body printer for arrays and objects: handles separators and
/// pretty-mode newlines/indentation between the open and close brackets.
fn print_elems<T, I, F>(
    items: I,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    f: F,
) -> Result<(), Error>
where
    I: ExactSizeIterator<Item = T>,
    F: Fn(T, Option<usize>, usize, &mut String) -> Result<(), Error>,
{
    let len = items.len();
    if len == 0 {
        return Ok(());
    }
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        f(item, indent, depth + 1, out)?;
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    Ok(())
}

fn print_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest value nesting the parser accepts (serde_json's default
/// recursion limit): deeper input is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b" \t\r\n".contains(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error("unexpected end of JSON".into()))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = self.parse_nested();
        self.depth -= 1;
        v
    }

    fn parse_nested(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        c => {
                            return Err(Error(format!("expected `,` or `]`, got `{}`", c as char)))
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.expect(b':')?;
                    fields.push((key, self.parse_value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        c => {
                            return Err(Error(format!("expected `,` or `}}`, got `{}`", c as char)))
                        }
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.parse_number(),
            c => Err(Error(format!(
                "unexpected `{}` at byte {}",
                c as char, self.pos
            ))),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b"+-.eE".contains(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("non-utf8 number".into()))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error(format!("bad number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(Error(format!("expected string at byte {}", self.pos)));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (non-quote, non-escape) bytes at once
            // so multi-byte UTF-8 sequences pass through untouched.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("non-utf8 string".into()))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                        }
                        c => return Err(Error(format!("bad escape `\\{}`", c as char))),
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("opteron \"L1\"\n".into())),
            ("p".into(), Value::Num(4.0)),
            ("ghz".into(), Value::Num(2.2)),
            (
                "flags".into(),
                Value::Arr(vec![Value::Bool(true), Value::Null]),
            ),
            ("empty".into(), Value::Arr(vec![])),
        ]);
        for text in [to_string(&VWrap(v.clone())).unwrap(), {
            let pretty = to_string_pretty(&VWrap(v.clone())).unwrap();
            assert!(pretty.contains('\n'));
            pretty
        }] {
            let mut p = Parser {
                bytes: text.as_bytes(),
                pos: 0,
                depth: 0,
            };
            assert_eq!(p.parse_value().unwrap(), v);
        }
    }

    #[test]
    fn parses_numbers() {
        for (s, x) in [
            ("0", 0.0),
            ("-12", -12.0),
            ("3.5e2", 350.0),
            ("1e-3", 0.001),
        ] {
            assert_eq!(from_str::<f64>(s).unwrap(), x);
        }
        assert!(from_str::<f64>("1.2.3").is_err());
        assert!(from_str::<f64>("[1,").is_err());
        let deep = "[".repeat(100_000);
        let err = from_str::<Value>(&deep).unwrap_err();
        assert!(err.0.contains("nesting deeper than"), "{err}");
    }

    struct VWrap(Value);
    impl Serialize for VWrap {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
}
