//! Minimal JSON model: a value type, a writer and a recursive-descent
//! parser. Enough for [`RunReport`](crate::RunReport) serialization and
//! for tests to read reports back; deliberately not a general-purpose
//! JSON library (no `\u` surrogate pairs in the writer, numbers are
//! `f64`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order is not required for
/// reports, so a `BTreeMap` keeps output deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts into an object; panics on non-objects (construction bug).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(m) => {
                m.insert(key.to_string(), value);
            }
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// Looks up a key in an object, `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Walks a `/`-separated path of object keys.
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for part in path.split('/') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes with `indent` spaces per nesting level.
    pub fn to_string_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(a) => {
                if a.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(m) => {
                if m.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Compact (no-whitespace) JSON serialization; `to_string()` comes for
/// free via `ToString`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-surprising encoding.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Containers may nest at most this deep. The parser is recursive
/// descent, so without a cap adversarial input (`[[[[…`) converts
/// directly into stack exhaustion — a process abort, not a catchable
/// error. 128 levels is far beyond any report this workspace writes.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: where, and why. `TooDeep` is its own variant so
/// callers (and tests) can tell resource-limit rejection apart from
/// malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Container nesting exceeded [`MAX_DEPTH`] at this byte offset.
    TooDeep { offset: usize },
    /// Malformed input: byte offset and description.
    Syntax { offset: usize, message: String },
}

impl JsonError {
    fn syntax(offset: usize, message: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            offset,
            message: message.into(),
        }
    }

    /// Byte offset of the failure.
    pub fn offset(&self) -> usize {
        match self {
            JsonError::TooDeep { offset } => *offset,
            JsonError::Syntax { offset, .. } => *offset,
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::TooDeep { offset } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {offset}")
            }
            JsonError::Syntax { offset, message } => write!(f, "{message} at byte {offset}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document. Returns a typed [`JsonError`] (with a byte
/// offset) on malformed input, trailing garbage, or nesting beyond
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError::syntax(pos, "trailing data"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::syntax(*pos, format!("expected '{}'", c as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(JsonError::syntax(*pos, "unexpected end of input")),
        Some(b'{') => {
            if depth >= MAX_DEPTH {
                return Err(JsonError::TooDeep { offset: *pos });
            }
            parse_object(b, pos, depth + 1)
        }
        Some(b'[') => {
            if depth >= MAX_DEPTH {
                return Err(JsonError::TooDeep { offset: *pos });
            }
            parse_array(b, pos, depth + 1)
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::syntax(*pos, "bad literal"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| JsonError::syntax(start, "bad number"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(JsonError::syntax(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| JsonError::syntax(*pos, "bad \\u escape"))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::syntax(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run of unescaped bytes up to the next
                // quote or backslash. Both are ASCII, so the run ends on a
                // char boundary; validating each run once keeps the parse
                // linear in the input.
                let start = *pos;
                *pos = b[start..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |i| start + i);
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| JsonError::syntax(start, "invalid utf-8"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::syntax(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        map.insert(key, parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(JsonError::syntax(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn deep_arrays_are_rejected_not_overflowed() {
        // Far deeper than any thread's stack could recurse through.
        let deep = "[".repeat(200_000);
        match parse(&deep) {
            Err(JsonError::TooDeep { offset }) => assert_eq!(offset, MAX_DEPTH),
            other => panic!("expected TooDeep, got {other:?}"),
        }
    }

    #[test]
    fn deep_objects_are_rejected_not_overflowed() {
        let deep = "{\"a\":".repeat(200_000);
        match parse(&deep) {
            Err(JsonError::TooDeep { .. }) => {}
            other => panic!("expected TooDeep, got {other:?}"),
        }
    }

    #[test]
    fn mixed_nesting_just_under_the_cap_parses() {
        // MAX_DEPTH alternating containers: legal, and round-trips.
        let mut doc = String::new();
        for i in 0..MAX_DEPTH {
            doc.push_str(if i % 2 == 0 { "[" } else { "{\"k\":" });
        }
        doc.push_str("null");
        for i in (0..MAX_DEPTH).rev() {
            doc.push_str(if i % 2 == 0 { "]" } else { "}" });
        }
        let v = parse(&doc).expect("depth == MAX_DEPTH parses");
        let back = parse(&v.to_string()).expect("round trip");
        assert_eq!(v, back);
        // One deeper is rejected.
        let over = format!("[{doc}]");
        assert!(matches!(parse(&over), Err(JsonError::TooDeep { .. })));
    }

    #[test]
    fn error_offsets_and_display() {
        let e = parse("[1, x]").unwrap_err();
        assert!(matches!(e, JsonError::Syntax { .. }));
        assert!(e.to_string().contains("byte"));
        assert!(e.offset() > 0);
    }
}
