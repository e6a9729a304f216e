//! A minimal JSON reader/writer, so the workspace carries no external
//! serialization dependency.
//!
//! It backs the transcript format in `dprep-llm` (which re-exports this
//! module), the JSONL trace parser in [`crate::export`], and the
//! [`crate::report`] renderers. Supports the full JSON value grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null).
//! Numbers round-trip through Rust's shortest-representation float
//! formatting. Input is untrusted (daemon request frames, crash-torn
//! journals, hand-edited traces), so every malformed document — including
//! one nested too deeply — is a [`JsonError`], never a panic or a stack
//! overflow.

use std::fmt;

/// Deepest array/object nesting the parser accepts. The documents the
/// workspace writes nest a few levels deep; the limit stops a hostile
/// input from recursing the parser off the end of its thread's stack.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// The value under `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view (numbers with no fractional part).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(JsonError {
                at: pos,
                message: "trailing characters after value".into(),
            });
        }
        Ok(value)
    }
}

fn write_number(n: f64, out: &mut String) {
    if n.is_finite() {
        if n.fract() == 0.0 && n.abs() < 1e15 {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n}"));
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err(at: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        at,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected {lit:?}")))
    }
}

/// Parses one value whose enclosing arrays/objects are `depth` deep.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'[' | b'{') if depth >= MAX_DEPTH => {
            Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // piece. Both are ASCII, so the run ends on a char
                // boundary of the already-valid input.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(&text[*pos..run]);
                *pos = run;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("invalid number {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "42", "-3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn round_trips_structures() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("line\nbreak \"quoted\"".into())),
            (
                "items".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Null]),
            ),
            ("ok".into(), Json::Bool(true)),
        ]);
        let text = v.to_json();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("bell\u{7}".into());
        let text = v.to_json();
        assert!(text.contains("\\u0007"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    /// Escapes `s` as a JSON string body the way a foreign writer might:
    /// any BMP character may come as a `\uXXXX` escape, chosen by `pick`.
    fn foreign_escape(s: &str, mut pick: impl FnMut() -> bool) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 || ((c as u32) < 0x10000 && pick()) => {
                    out.push_str(&format!("\\u{:04X}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn strings_round_trip_utf8_escapes_and_unicode_escapes() {
        // Multi-byte UTF-8 (2, 3 and 4 bytes), every short escape, and
        // control characters, in seeded random mixes.
        let pieces = [
            "a", "Z", " ", "é", "€", "漢", "𝄞", "\"", "\\", "/", "\n", "\r", "\t", "\u{8}",
            "\u{c}", "\u{1}", "\u{7f}",
        ];
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let len = (next() % 40) as usize;
            let s: String = (0..len)
                .map(|_| pieces[(next() % pieces.len() as u64) as usize])
                .collect();
            let ours = Json::Str(s.clone()).to_json();
            assert_eq!(Json::parse(&ours).unwrap(), Json::Str(s.clone()), "{ours}");
            let foreign = foreign_escape(&s, || next() % 3 == 0);
            assert_eq!(Json::parse(&foreign).unwrap(), Json::Str(s), "{foreign}");
        }
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        // Re-validating the rest of the input at every character would make
        // this quadratic: minutes for 1 MiB instead of milliseconds.
        let value: String = "journal entry é€𝄞 \"quoted\"\n"
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let text = Json::Obj(vec![("v".into(), Json::Str(value.clone()))]).to_json();
        let started = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "parsing {} bytes took {:?}",
            text.len(),
            started.elapsed()
        );
        assert_eq!(parsed.get("v").and_then(Json::as_str), Some(value.as_str()));
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // One `[` per recursion level used to overflow the stack and abort
        // the process; 100,000 of them fit in one daemon frame.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        // The limit itself is inclusive, for arrays and objects alike.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let deeper = format!("[{deepest}]");
        assert_eq!(Json::parse(&deeper).unwrap_err().at, MAX_DEPTH);
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(1_000_000.0).to_json(), "1000000");
        assert_eq!(Json::Num(0.004).to_json(), "0.004");
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"a\": [1, \"two\"], \"b\": 3}").unwrap();
        assert_eq!(v.get("b").and_then(Json::as_usize), Some(3));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].as_str(), Some("two"));
        assert_eq!(v.get("missing"), None);
    }
}
