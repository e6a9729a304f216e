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
//! This module is deliberately symmetric: [`contextualize`] serializes a
//! [`Record`], and [`parse_instance`] parses the text back into
//! `(name, value)` pairs. The prompt builder uses the former; the simulated
//! LLM uses the latter to *comprehend* prompts — which is how the simulation
//! stays honest (it only ever sees the same characters a real API would).

use crate::error::TabularError;
use crate::record::Record;
use crate::value::Value;

/// A parsed contextualized instance: attribute names with their raw string
/// values (`None` for missing cells).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedInstance {
    /// `(attribute name, value)` pairs in serialization order.
    pub fields: Vec<(String, Option<String>)>,
}

impl ParsedInstance {
    /// Looks up a field by attribute name.
    pub fn get(&self, name: &str) -> Option<&Option<String>> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Names of all fields, in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|(n, _)| n.as_str()).collect()
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

fn escape_into(out: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            _ => out.push(c),
        }
    }
}

/// Serializes a record to the `[name: "value", …]` contextualization format.
pub fn contextualize(record: &Record) -> String {
    contextualize_pairs(record.named_values().map(|(n, v)| (n, v.clone())))
}

/// Serializes only the attributes at `indices` — feature selection (§3.4).
pub fn contextualize_selected(record: &Record, indices: &[usize]) -> String {
    let schema = record.schema();
    contextualize_pairs(indices.iter().filter_map(|&i| {
        let name = schema.attribute(i)?.name.as_str();
        let value = record.get(i)?.clone();
        Some((name, value))
    }))
}

/// Serializes arbitrary `(name, value)` pairs in the contextualization
/// format. This is the single source of truth for the grammar.
pub fn contextualize_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> String {
    let mut out = String::from("[");
    for (i, (name, value)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(name);
        out.push_str(": ");
        if value.is_missing() {
            out.push_str("???");
        } else {
            out.push('"');
            escape_into(&mut out, &value.to_string());
            out.push('"');
        }
    }
    out.push(']');
    out
}

/// Parses a contextualized instance back into `(name, value)` pairs.
///
/// Accepts exactly the output of [`contextualize`]; leading/trailing
/// whitespace around the brackets is tolerated.
pub fn parse_instance(text: &str) -> Result<ParsedInstance, TabularError> {
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
        // Skip separators / whitespace between fields.
        while matches!(chars.peek(), Some(' ') | Some(',')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        // Attribute name: everything up to the first ':'.
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
        // Value: either a quoted string or the ??? placeholder.
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
    Ok(ParsedInstance { fields })
}

/// Finds every contextualized instance (`[...]` group) embedded in a larger
/// text, parsing each. Used by the simulated LLM to extract data instances
/// from a full prompt. Unparseable groups are skipped.
pub fn extract_instances(text: &str) -> Vec<ParsedInstance> {
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
        let parsed = parse_instance(&contextualize(&r)).unwrap();
        assert_eq!(parsed.fields.len(), 5);
        assert_eq!(parsed.get("phone"), Some(&Some("770-933-0909".to_string())));
        assert_eq!(parsed.get("city"), Some(&None));
    }

    #[test]
    fn escaping_round_trips() {
        let schema = Schema::all_text(&["quote"]).unwrap().shared();
        let r = Record::new(schema, vec![Value::text(r#"he said "hi\" to me"#)]).unwrap();
        let text = contextualize(&r);
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(
            parsed.get("quote"),
            Some(&Some(r#"he said "hi\" to me"#.to_string()))
        );
    }

    #[test]
    fn selected_attributes_only() {
        let r = restaurant();
        let text = contextualize_selected(&r, &[2, 1]);
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
        assert_eq!(found[0].get("type"), Some(&Some("hamburgers".to_string())));
    }

    #[test]
    fn extract_skips_unparseable_brackets() {
        let text = "see [1] and [name: \"ok\"] and [broken";
        let found = extract_instances(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get("name"), Some(&Some("ok".to_string())));
    }

    #[test]
    fn flat_text_skips_missing() {
        let parsed = parse_instance("[a: \"x\", b: ???, c: \"y z\"]").unwrap();
        assert_eq!(parsed.flat_text(), "x y z");
        assert_eq!(parsed.names(), vec!["a", "b", "c"]);
    }
}
