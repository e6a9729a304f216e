//! The contextualization grammar of §3.3 of the paper.
//!
//! LLMs intake raw text, so each data instance is rendered as
//!
//! ```text
//! [name: "value", name: "value", attr: ???]
//! ```
//!
//! with `???` (unquoted) marking a missing cell. Inside quoted values, `"`
//! and `\` are escaped with a backslash so the format round-trips.
//!
//! This module is deliberately symmetric: [`contextualize_into`] writes
//! a record into a prompt under construction, and [`parse_instance`] reads
//! the text back into `(name, value)` pairs. The prompt builder uses the
//! former; the simulated LLM uses the latter to *comprehend* prompts —
//! which is how the simulation stays honest (it only ever sees the same
//! characters a real API would).
//!
//! Both directions copy as little as they can. The writer appends each
//! cell straight into the caller's buffer, with no per-value string. The
//! reader borrows names and values from the text it parses; a value is
//! owned only when it held an escape that had to be removed.

use std::borrow::Cow;
use std::fmt::Write;

use crate::error::TabularError;
use crate::record::Record;
use crate::value::Value;

/// A parsed contextualized instance: attribute names with their values
/// (`None` for missing cells), borrowed from the text they were parsed
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedInstance<'a> {
    /// `(attribute name, value)` pairs in serialization order. A value is
    /// [`Cow::Owned`] only when its text held an escape.
    pub fields: Vec<(&'a str, Option<Cow<'a, str>>)>,
}

impl<'a> ParsedInstance<'a> {
    /// Looks up a field by attribute name: `None` when there is no such
    /// field, `Some(None)` when its cell is missing.
    pub fn get(&self, name: &str) -> Option<Option<&str>> {
        self.fields
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_deref())
    }

    /// Names of all fields, in order.
    pub fn names(&self) -> Vec<&'a str> {
        self.fields.iter().map(|(n, _)| *n).collect()
    }

    /// The non-missing values, in serialization order: an instance's text.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().filter_map(|(_, v)| v.as_deref())
    }

    /// All non-missing values concatenated — handy for embedding and
    /// similarity computations over whole instances.
    pub fn flat_text(&self) -> String {
        let mut out = String::new();
        for v in self.values() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(v);
        }
        out
    }
}

/// A cell the grammar can write: a [`Value`], or text that is always
/// present.
pub trait Cell {
    /// Appends the cell as the grammar writes it: `???` (unquoted) when
    /// missing, otherwise the value in quotes with `"` and `\` escaped.
    fn write_cell(&self, out: &mut String);
}

impl Cell for str {
    fn write_cell(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl Cell for Value {
    fn write_cell(&self, out: &mut String) {
        match self {
            Value::Missing => out.push_str("???"),
            Value::Text(text) => text.write_cell(out),
            // Numbers and booleans print neither `"` nor `\`: nothing to
            // escape, so they are formatted straight into the buffer.
            other => {
                out.push('"');
                let _ = write!(out, "{other}");
                out.push('"');
            }
        }
    }
}

/// Appends `raw` with `"` and `\` escaped, copying the runs between them
/// whole.
fn escape_into(out: &mut String, raw: &str) {
    let mut run = 0;
    for (i, b) in raw.bytes().enumerate() {
        if b == b'"' || b == b'\\' {
            out.push_str(&raw[run..i]);
            out.push('\\');
            // The escaped character opens the next run.
            run = i;
        }
    }
    out.push_str(&raw[run..]);
}

/// Appends `[name: "value", …]` for `pairs` to `out`. This is the single
/// source of truth for the grammar: every other writer here wraps it.
pub fn contextualize_into<'a, C: Cell + ?Sized + 'a>(
    out: &mut String,
    pairs: impl IntoIterator<Item = (&'a str, &'a C)>,
) {
    out.push('[');
    for (i, (name, cell)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(name);
        out.push_str(": ");
        cell.write_cell(out);
    }
    out.push(']');
}

/// Serializes a record to the `[name: "value", …]` contextualization format.
pub fn contextualize(record: &Record) -> String {
    let mut out = String::new();
    contextualize_into(&mut out, record.named_values());
    out
}

/// Appends only the attributes at `indices`, in that order — feature
/// selection (§3.4). Indices past the schema are skipped.
pub fn contextualize_selected_into(
    out: &mut String,
    record: &Record,
    indices: impl IntoIterator<Item = usize>,
) {
    let schema = record.schema();
    contextualize_into(
        out,
        indices.into_iter().filter_map(|i| {
            let name = schema.attribute(i)?.name.as_str();
            Some((name, record.get(i)?))
        }),
    );
}

/// Parses a contextualized instance back into `(name, value)` pairs,
/// borrowed from `text`.
///
/// Accepts exactly the output of [`contextualize`]; leading/trailing
/// whitespace around the brackets is tolerated. The grammar's
/// metacharacters (`[`, `]`, `:`, `,`, `"`, `\`, `?`, space) are all
/// ASCII, and a UTF-8 continuation byte never equals one, so the walk
/// reads bytes and every index it cuts at is a character boundary.
pub fn parse_instance(text: &str) -> Result<ParsedInstance<'_>, TabularError> {
    let err = |reason: &str| TabularError::ContextParse {
        reason: reason.to_string(),
    };
    let body = text.trim();
    let body = body
        .strip_prefix('[')
        .ok_or_else(|| err("missing opening '['"))?;
    let body = body
        .strip_suffix(']')
        .ok_or_else(|| err("missing closing ']'"))?;
    let bytes = body.as_bytes();

    let mut fields = Vec::new();
    let mut at = 0;
    loop {
        // Skip separators / whitespace between fields.
        while matches!(bytes.get(at), Some(b' ' | b',')) {
            at += 1;
        }
        if at == bytes.len() {
            break;
        }
        // Attribute name: everything up to the first ':'.
        let colon = bytes[at..]
            .iter()
            .position(|&b| b == b':')
            .ok_or_else(|| err("attribute name not followed by ':'"))?;
        let name = body[at..at + colon].trim();
        if name.is_empty() {
            return Err(err("empty attribute name"));
        }
        at += colon + 1;
        while bytes.get(at) == Some(&b' ') {
            at += 1;
        }
        // Value: either a quoted string or the ??? placeholder.
        match bytes.get(at) {
            Some(b'"') => {
                let (value, end) = quoted_value(body, at + 1).map_err(err)?;
                fields.push((name, Some(value)));
                at = end;
            }
            Some(b'?') => {
                if !body[at..].starts_with("???") {
                    return Err(err("malformed missing-value placeholder"));
                }
                fields.push((name, None));
                at += 3;
            }
            Some(_) => {
                let c = body[at..].chars().next().unwrap_or_default();
                return Err(err(&format!(
                    "unexpected character {c:?} at value position"
                )));
            }
            None => return Err(err("missing value after ':'")),
        }
    }

    if fields.is_empty() {
        return Err(err("instance has no fields"));
    }
    Ok(ParsedInstance { fields })
}

/// The quoted value whose text starts at `start` (just past its opening
/// quote), and the index just past its closing quote. The value is
/// borrowed unless it holds an escape: a backslash keeps the character
/// after it, whatever its width, and is itself dropped.
fn quoted_value(body: &str, start: usize) -> Result<(Cow<'_, str>, usize), &'static str> {
    let bytes = body.as_bytes();
    let stop = |from: usize| {
        bytes[from..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map(|i| from + i)
            .ok_or("unterminated quoted value")
    };
    let mut at = stop(start)?;
    if bytes[at] == b'"' {
        return Ok((Cow::Borrowed(&body[start..at]), at + 1));
    }
    let mut value = String::from(&body[start..at]);
    loop {
        // `bytes[at]` is a backslash.
        let escaped = body[at + 1..]
            .chars()
            .next()
            .ok_or("dangling escape at end of value")?;
        value.push(escaped);
        let run = at + 1 + escaped.len_utf8();
        at = stop(run)?;
        value.push_str(&body[run..at]);
        if bytes[at] == b'"' {
            return Ok((Cow::Owned(value), at + 1));
        }
    }
}

/// Finds every contextualized instance (`[...]` group) embedded in a larger
/// text, parsing each. Used by the simulated LLM to extract data instances
/// from a full prompt. Unparseable groups are skipped.
pub fn extract_instances(text: &str) -> Vec<ParsedInstance<'_>> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            // Scan to the matching ']' respecting quotes and escapes.
            let mut j = i + 1;
            let mut in_quote = false;
            let mut escaped = false;
            let mut end = None;
            while j < bytes.len() {
                let c = bytes[j];
                if escaped {
                    escaped = false;
                } else if in_quote {
                    match c {
                        b'\\' => escaped = true,
                        b'"' => in_quote = false,
                        _ => {}
                    }
                } else {
                    match c {
                        b'"' => in_quote = true,
                        b']' => {
                            end = Some(j);
                            break;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            if let Some(end) = end {
                if let Ok(inst) = parse_instance(&text[i..=end]) {
                    out.push(inst);
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use dprep_rng::Rng;

    fn restaurant() -> Record {
        let schema = Schema::all_text(&["name", "addr", "phone", "type", "city"])
            .unwrap()
            .shared();
        Record::new(
            schema,
            vec![
                Value::text("carey's corner"),
                Value::text("1215 powers ferry rd."),
                Value::text("770-933-0909"),
                Value::text("hamburgers"),
                Value::Missing,
            ],
        )
        .unwrap()
    }

    #[test]
    fn serialization_matches_paper_format() {
        let text = contextualize(&restaurant());
        assert_eq!(
            text,
            "[name: \"carey's corner\", addr: \"1215 powers ferry rd.\", \
             phone: \"770-933-0909\", type: \"hamburgers\", city: ???]"
        );
    }

    #[test]
    fn round_trip() {
        let r = restaurant();
        let text = contextualize(&r);
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(parsed.fields.len(), 5);
        assert_eq!(parsed.get("phone"), Some(Some("770-933-0909")));
        assert_eq!(parsed.get("city"), Some(None));
    }

    #[test]
    fn escaping_round_trips() {
        let schema = Schema::all_text(&["quote"]).unwrap().shared();
        let r = Record::new(schema, vec![Value::text(r#"he said "hi\" to me"#)]).unwrap();
        let text = contextualize(&r);
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(parsed.get("quote"), Some(Some(r#"he said "hi\" to me"#)));
    }

    #[test]
    fn selected_attributes_only() {
        let r = restaurant();
        let mut text = String::new();
        contextualize_selected_into(&mut text, &r, [2, 1, 9]);
        assert_eq!(
            text,
            "[phone: \"770-933-0909\", addr: \"1215 powers ferry rd.\"]"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_instance("no brackets").is_err());
        assert!(parse_instance("[]").is_err());
        assert!(parse_instance("[a: unquoted]").is_err());
        assert!(parse_instance("[a: \"open").is_err());
        assert!(parse_instance("[a: ?]").is_err());
        assert!(parse_instance("[: \"v\"]").is_err());
    }

    #[test]
    fn extract_finds_multiple_instances() {
        let text = format!(
            "Question 1: Record is {}. What is the city?\nQuestion 2: Record is {}.",
            contextualize(&restaurant()),
            contextualize(&restaurant())
        );
        let found = extract_instances(&text);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].get("type"), Some(Some("hamburgers")));
    }

    #[test]
    fn extract_skips_unparseable_brackets() {
        let text = "see [1] and [name: \"ok\"] and [broken";
        let found = extract_instances(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get("name"), Some(Some("ok")));
    }

    /// The char-walking parser that built owned strings, as it read before
    /// the parser borrowed from its text: the reference the byte walk
    /// must match, result and error alike.
    fn owned_parse_instance(text: &str) -> Result<Vec<(String, Option<String>)>, TabularError> {
        let err = |reason: &str| TabularError::ContextParse {
            reason: reason.to_string(),
        };
        let body = text.trim();
        let body = body
            .strip_prefix('[')
            .ok_or_else(|| err("missing opening '['"))?;
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| err("missing closing ']'"))?;
        let mut fields = Vec::new();
        let mut chars = body.chars().peekable();
        loop {
            while matches!(chars.peek(), Some(' ') | Some(',')) {
                chars.next();
            }
            if chars.peek().is_none() {
                break;
            }
            let mut name = String::new();
            loop {
                match chars.next() {
                    Some(':') => break,
                    Some(c) => name.push(c),
                    None => return Err(err("attribute name not followed by ':'")),
                }
            }
            let name = name.trim().to_string();
            if name.is_empty() {
                return Err(err("empty attribute name"));
            }
            while matches!(chars.peek(), Some(' ')) {
                chars.next();
            }
            match chars.peek() {
                Some('"') => {
                    chars.next();
                    let mut value = String::new();
                    loop {
                        match chars.next() {
                            Some('\\') => match chars.next() {
                                Some(c) => value.push(c),
                                None => return Err(err("dangling escape at end of value")),
                            },
                            Some('"') => break,
                            Some(c) => value.push(c),
                            None => return Err(err("unterminated quoted value")),
                        }
                    }
                    fields.push((name, Some(value)));
                }
                Some('?') => {
                    for _ in 0..3 {
                        if chars.next() != Some('?') {
                            return Err(err("malformed missing-value placeholder"));
                        }
                    }
                    fields.push((name, None));
                }
                Some(c) => {
                    return Err(err(&format!(
                        "unexpected character {c:?} at value position"
                    )))
                }
                None => return Err(err("missing value after ':'")),
            }
        }
        if fields.is_empty() {
            return Err(err("instance has no fields"));
        }
        Ok(fields)
    }

    /// The bracket scan over the owned parser.
    fn owned_extract_instances(text: &str) -> Vec<Vec<(String, Option<String>)>> {
        let mut out = Vec::new();
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'[' {
                let mut j = i + 1;
                let (mut in_quote, mut escaped, mut end) = (false, false, None);
                while j < bytes.len() {
                    let c = bytes[j];
                    if escaped {
                        escaped = false;
                    } else if in_quote {
                        match c {
                            b'\\' => escaped = true,
                            b'"' => in_quote = false,
                            _ => {}
                        }
                    } else if c == b'"' {
                        in_quote = true;
                    } else if c == b']' {
                        end = Some(j);
                        break;
                    }
                    j += 1;
                }
                if let Some(end) = end {
                    if let Ok(inst) = owned_parse_instance(&text[i..=end]) {
                        out.push(inst);
                    }
                    i = end + 1;
                    continue;
                }
            }
            i += 1;
        }
        out
    }

    fn owned(instance: &ParsedInstance<'_>) -> Vec<(String, Option<String>)> {
        instance
            .fields
            .iter()
            .map(|(n, v)| (n.to_string(), v.as_deref().map(str::to_string)))
            .collect()
    }

    /// The render that cloned each value and formatted it with
    /// `to_string` before escaping it char by char.
    fn cloned_render(pairs: &[(&str, Value)]) -> String {
        let mut out = String::from("[");
        for (i, (name, value)) in pairs.iter().cloned().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(name);
            out.push_str(": ");
            if value.is_missing() {
                out.push_str("???");
            } else {
                out.push('"');
                for c in value.to_string().chars() {
                    if matches!(c, '"' | '\\') {
                        out.push('\\');
                    }
                    out.push(c);
                }
                out.push('"');
            }
        }
        out.push(']');
        out
    }

    /// Grammar fragments that stress the parser: escapes (one before a
    /// multi-byte character), the placeholder and its near misses,
    /// unterminated quotes, stray brackets, non-ASCII and control
    /// characters (`\x0B` among them, whitespace to `char` but not to
    /// `u8::is_ascii_whitespace`).
    const FRAGMENTS: &[&str] = &[
        "[",
        "]",
        "\"",
        "\\",
        "\\é",
        "\\\"",
        "\\\\",
        "???",
        "??",
        "?",
        ":",
        ": ",
        ", ",
        ",",
        " ",
        "name",
        "a b",
        "é",
        "东京",
        "\u{b}",
        "\u{0}",
        "\t",
        "\n",
        "\r",
        "\u{a0}",
        "x",
        "42",
        "[a: \"v\"]",
        "[a: ???]",
        "[k: \"q\\\"r\"]",
    ];

    fn random_value(rng: &mut Rng) -> Value {
        match rng.range_usize(0, 8) {
            0 => Value::Missing,
            1 => Value::Int(rng.next_u64() as i64 >> rng.range_usize(0, 64)),
            2 => Value::Float(
                *rng.choose(&[
                    0.0,
                    -0.0,
                    4.0,
                    2.5,
                    1e15,
                    1e20,
                    -3e-9,
                    f64::NAN,
                    f64::INFINITY,
                ])
                .expect("nonempty"),
            ),
            3 => Value::Bool(rng.bool(0.5)),
            _ => Value::Text(
                (0..rng.range_incl(0usize, 6))
                    .map(|_| *rng.choose(FRAGMENTS).expect("nonempty"))
                    .collect(),
            ),
        }
    }

    #[test]
    fn byte_walk_matches_the_owned_char_walk_and_the_render_matches_its_clone() {
        let mut rng = Rng::seed_from_u64(0xc0_7e47);
        let (mut parsed, mut owned_values, mut rejected) = (0usize, 0usize, 0usize);
        for case in 0..4_000 {
            // Half the texts are renders of random pairs, perturbed or
            // embedded in prose; half are fragment soup.
            let text = if case % 2 == 0 {
                let names = ["name", "a b", "é", "x\u{b}y", "q"];
                let pairs: Vec<(&str, Value)> = (0..rng.range_incl(0usize, 5))
                    .map(|_| {
                        (
                            *rng.choose(&names).expect("nonempty"),
                            random_value(&mut rng),
                        )
                    })
                    .collect();
                let mut rendered = String::new();
                contextualize_into(&mut rendered, pairs.iter().map(|(n, v)| (*n, v)));
                assert_eq!(rendered, cloned_render(&pairs));
                match rng.range_usize(0, 4) {
                    0 => rendered,
                    1 => format!("Record is {rendered}. Is there an error?"),
                    _ => {
                        let mut bytes = rendered.into_bytes();
                        let cut = rng.range_incl(0, bytes.len());
                        bytes.truncate(cut);
                        String::from_utf8_lossy(&bytes).into_owned()
                    }
                }
            } else {
                (0..rng.range_incl(0usize, 24))
                    .map(|_| *rng.choose(FRAGMENTS).expect("nonempty"))
                    .collect()
            };
            let got = parse_instance(&text);
            let want = owned_parse_instance(&text);
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(&owned(got), want, "{text:?}");
                    parsed += 1;
                    owned_values += got
                        .fields
                        .iter()
                        .filter(|(_, v)| matches!(v, Some(Cow::Owned(_))))
                        .count();
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "{text:?}");
                    rejected += 1;
                }
                _ => panic!("{text:?}: {got:?} vs {want:?}"),
            }
            let found: Vec<_> = extract_instances(&text).iter().map(owned).collect();
            assert_eq!(found, owned_extract_instances(&text), "{text:?}");
        }
        assert!(
            parsed > 400 && owned_values > 100 && rejected > 400,
            "parsed {parsed}, owned values {owned_values}, rejected {rejected}"
        );
    }

    #[test]
    fn flat_text_skips_missing() {
        let parsed = parse_instance("[a: \"x\", b: ???, c: \"y z\"]").unwrap();
        assert_eq!(parsed.flat_text(), "x y z");
        assert_eq!(parsed.names(), vec!["a", "b", "c"]);
    }
}
