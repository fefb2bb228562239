//! The workspace's JSON module: one value type, one total parser, one
//! compact writer and one string escaper.
//!
//! - Objects keep document order; [`Value::get`] returns the *last*
//!   value of a duplicated key.
//! - Numbers keep their validated RFC 8259 lexeme and are read through
//!   [`Value::as_u64`], [`Value::as_i64`] or [`Value::as_f64`], so a u64
//!   above 2^53 and a negative integer both read back exactly.
//! - [`parse`] is total: any input returns `Ok` or `Err`, never a panic,
//!   and nesting deeper than [`MAX_DEPTH`] is an error, not a recursion.
//! - `Display` on [`Value`] writes compact JSON (no whitespace). Pretty
//!   layouts stay with the types that own them and call [`escape`] for
//!   their strings.

use std::fmt::{self, Write as _};

/// Nesting depth past which [`parse`] returns an error instead of
/// recursing. The deepest document the workspace writes has 6 levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON number, kept as its validated lexeme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (duplicate keys kept).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(key, value)| (key.to_string(), value)).collect())
    }

    /// The value of `key` if this is an object; the last one if the key
    /// repeats.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a u64, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.lexeme()?.parse().ok()
    }

    /// The number as an i64, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        self.lexeme()?.parse().ok()
    }

    /// The number as the nearest f64.
    pub fn as_f64(&self) -> Option<f64> {
        self.lexeme()?.parse().ok()
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn lexeme(&self) -> Option<&str> {
        match self {
            Value::Num(Number(lexeme)) => Some(lexeme),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(value: u64) -> Value {
        Value::Num(Number(value.to_string()))
    }
}

impl From<usize> for Value {
    fn from(value: usize) -> Value {
        Value::Num(Number(value.to_string()))
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Value {
        Value::Str(value.to_string())
    }
}

/// Compact JSON: no whitespace, strings through [`escape`].
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(Number(lexeme)) => f.write_str(lexeme),
            Value::Str(s) => write!(f, "\"{}\"", escape(s)),
            Value::Arr(items) => {
                f.write_char('[')?;
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Value::Obj(fields) => {
                f.write_char('{')?;
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "\"{}\":{value}", escape(key))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// A string's JSON escaping (without the surrounding quotes), written on
/// display: `"`, `\` and every control character are escaped, `\n`, `\r`
/// and `\t` in their short forms, the rest as `\u00xx`.
pub fn escape(text: &str) -> Escape<'_> {
    Escape(text)
}

/// The [`Display`](fmt::Display) adapter returned by [`escape`].
pub struct Escape<'a>(&'a str);

impl fmt::Display for Escape<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = self.0;
        let mut start = 0;
        for (index, byte) in text.bytes().enumerate() {
            let short = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            f.write_str(&text[start..index])?;
            if short.is_empty() {
                write!(f, "\\u{byte:04x}")?;
            } else {
                f.write_str(short)?;
            }
            start = index + 1;
        }
        f.write_str(&text[start..])
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A message naming the first syntax error and its byte offset, including
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    match parser.peek() {
        None => Ok(value),
        Some(_) => Err(parser.error("trailing bytes after the document")),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it comes next.
    fn bump(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        self.bump(byte)
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.eat(byte) {
            true => Ok(()),
            false => Err(self.error(&format!("expected `{}`", byte as char))),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.bump(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut valid = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.bump(b'.') {
            valid &= self.digits() > 0;
        }
        if self.bump(b'e') || self.bump(b'E') {
            let _ = self.bump(b'+') || self.bump(b'-');
            valid &= self.digits() > 0;
        }
        if !valid {
            return Err(self.error("malformed number"));
        }
        Ok(Value::Num(Number(self.text[start..self.pos].to_string())))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                Some(byte @ (b'"' | b'\\')) => {
                    // Runs end on ASCII bytes, so the slice is on char
                    // boundaries.
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    if byte == b'"' {
                        return Ok(out);
                    }
                    out.push(self.escape_sequence()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.error("raw control character in string")),
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a `\`, including surrogate pairs.
    fn escape_sequence(&mut self) -> Result<char, String> {
        let byte = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                // Lone surrogates are not chars.
                char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?
            }
            _ => return Err(self.error("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let unit = digits.and_then(|d| u32::from_str_radix(d, 16).ok());
        self.pos += 4;
        unit.ok_or_else(|| self.error("expected 4 hex digits"))
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // `[`
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // `{`
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value(depth)?));
            if self.eat(b'}') {
                return Ok(Value::Obj(fields));
            }
            self.expect(b',')?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_in_order() {
        let value = parse(r#" {"a":[1,-2,{"b":"x"}],"c":true,"d":null,"a":3.5e-1} "#).unwrap();
        let keys: Vec<&str> = value.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "c", "d", "a"]);
        assert_eq!(value.get("a").and_then(Value::as_f64), Some(0.35), "last duplicate wins");
        assert_eq!(value.get("c"), Some(&Value::Bool(true)));
        assert_eq!(value.get("d"), Some(&Value::Null));
        let first = &value.as_object().unwrap()[0].1;
        let items = first.as_array().unwrap();
        assert_eq!(items[1].as_i64(), Some(-2));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[2].get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn numbers_keep_their_lexeme() {
        let big = parse("18446744073709551615").unwrap();
        assert_eq!(big.as_u64(), Some(u64::MAX));
        assert_eq!(big.to_string(), "18446744073709551615");
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(parse("23750.3882").unwrap().as_f64(), Some(23750.3882));
        assert_eq!(parse("1E+2").unwrap().to_string(), "1E+2");
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-0").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            " ",
            "{",
            "{\"a\":}",
            "[1,]",
            "[,1]",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "{a:1}",
            "tru",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"a\nb\"",
            "\"open",
            "[1 2]",
            "nul",
            "[1 .5]",
            "[1 e5]",
            "[- 1]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        assert!(parse(&"[".repeat(50_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(50_000)).is_err());
    }

    #[test]
    fn writer_and_parser_round_trip_every_string() {
        let mut text: String = (0u8..0x20).map(char::from).collect();
        text.push_str("\"\\/ é — 😀 plain");
        let value = Value::object([
            ("s", Value::from(text.as_str())),
            (text.as_str(), Value::Arr(vec![Value::from(u64::MAX), Value::Null])),
            ("b", Value::Bool(false)),
        ]);
        let rendered = value.to_string();
        assert!(rendered.contains("\\u0001") && rendered.contains("\\n"), "{rendered}");
        assert_eq!(parse(&rendered), Ok(value));
        // Escapes the writer never emits still decode.
        assert_eq!(
            parse(r#""\ud83d\ude00\/\b\f\u00e9""#).unwrap().as_str(),
            Some("😀/\u{8}\u{c}é")
        );
        assert_eq!(parse("\"😀\"").unwrap().as_str().unwrap().chars().count(), 1);
        assert_eq!(parse("\"é\"").unwrap().as_str(), Some("é"));
    }

    #[test]
    fn compact_writer_layout() {
        let value = Value::object([
            ("ok", Value::Bool(true)),
            ("jobs", Value::Arr(vec![Value::object([("id", Value::from(7u64))])])),
            ("empty", Value::object([])),
        ]);
        assert_eq!(value.to_string(), r#"{"ok":true,"jobs":[{"id":7}],"empty":{}}"#);
        assert_eq!(escape("a\"b\\c\td\u{1}").to_string(), "a\\\"b\\\\c\\td\\u0001");
    }
}
