//! Minimal RFC-4180-style CSV reading and writing for [`Table`]s.
//!
//! Implemented from scratch (no external CSV crate): quoted fields, embedded
//! commas/newlines, doubled-quote escaping. The first row is the header and
//! becomes the schema (all-text by default; callers can type columns with
//! [`read_csv_typed`]).

use crate::error::TabularError;
use crate::schema::{AttrType, Attribute, Schema};
use crate::table::Table;
use crate::value::Value;

/// Parses a CSV document into raw string rows, handing each row to
/// `row_done` as it ends, so no more than one row's fields are held.
fn parse_rows(
    input: &str,
    mut row_done: impl FnMut(Vec<String>) -> Result<(), TabularError>,
) -> Result<(), TabularError> {
    let mut field = String::new();
    let mut row: Vec<String> = Vec::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut chars = input.chars().peekable();

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    field.push('\n');
                    line += 1;
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(TabularError::CsvParse {
                            line,
                            reason: "quote in the middle of an unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    row_done(std::mem::take(&mut row))?;
                    line += 1;
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(TabularError::CsvParse {
            line,
            reason: "unterminated quoted field".into(),
        });
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        row_done(row)?;
    }
    Ok(())
}

/// Reads a CSV document whose header row defines an all-text schema.
pub fn read_csv(input: &str) -> Result<Table, TabularError> {
    read_csv_with(input, |_, raw| {
        if raw.is_empty() || raw == "???" {
            Value::Missing
        } else {
            Value::Text(raw)
        }
    })
}

/// Reads a CSV document, inferring each cell's type with [`Value::infer`]
/// as its row is read. A column whose non-missing cells are all numeric is
/// typed numeric in the schema; every other column is text.
pub fn read_csv_typed(input: &str) -> Result<Table, TabularError> {
    let mut numeric: Vec<bool> = Vec::new();
    let table = read_csv_with(input, |column, raw| {
        let value = Value::infer(&raw);
        if column >= numeric.len() {
            numeric.resize(column + 1, true);
        }
        if !value.is_missing() && value.as_f64().is_none() {
            numeric[column] = false;
        }
        value
    })?;
    Ok(table.retyped(|column| {
        if numeric.get(column).copied().unwrap_or(true) {
            AttrType::Numeric
        } else {
            AttrType::Text
        }
    }))
}

/// Reads a CSV document whose header row names an all-text schema, each
/// cell's value made by `cell(column index, raw field)` as its row is read:
/// the table is built row by row, with no copy of the document's fields.
fn read_csv_with(
    input: &str,
    mut cell: impl FnMut(usize, String) -> Value,
) -> Result<Table, TabularError> {
    let mut table: Option<Table> = None;
    parse_rows(input, |row| {
        if let Some(table) = table.as_mut() {
            if row.len() != table.schema().len() {
                return Err(TabularError::CsvParse {
                    line: table.len() + 2,
                    reason: format!(
                        "row has {} fields but header has {}",
                        row.len(),
                        table.schema().len()
                    ),
                });
            }
            let values = row
                .into_iter()
                .enumerate()
                .map(|(column, raw)| cell(column, raw))
                .collect();
            return table.push_values(values);
        }
        let attrs: Vec<Attribute> = row
            .into_iter()
            .map(|name| Attribute {
                name,
                description: None,
                dtype: AttrType::Text,
            })
            .collect();
        table = Some(Table::new(Schema::new(attrs)?.shared()));
        Ok(())
    })?;
    table.ok_or(TabularError::CsvParse {
        line: 1,
        reason: "empty document".into(),
    })
}

fn write_field(out: &mut String, field: &str) {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serializes a table to CSV text (header + rows, `\n` line endings,
/// missing cells rendered as empty fields).
pub fn write_csv(table: &Table) -> String {
    let mut out = String::new();
    for (i, name) in table.schema().names().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, name);
    }
    out.push('\n');
    for row in table.rows() {
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if !v.is_missing() {
                write_field(&mut out, &v.to_string());
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_round_trip() {
        let csv = "name,city\nann,tokyo\nbob,osaka\n";
        let t = read_csv(csv).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().names(), vec!["name", "city"]);
        assert_eq!(write_csv(&t), csv);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "a,b\n\"x, y\",\"say \"\"hi\"\"\"\n";
        let t = read_csv(csv).unwrap();
        assert_eq!(t.row(0).unwrap().get(0), Some(&Value::text("x, y")));
        assert_eq!(t.row(0).unwrap().get(1), Some(&Value::text("say \"hi\"")));
        // Round-trips through writer.
        let back = read_csv(&write_csv(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let csv = "a\n\"line1\nline2\"\n";
        let t = read_csv(csv).unwrap();
        assert_eq!(t.row(0).unwrap().get(0), Some(&Value::text("line1\nline2")));
    }

    #[test]
    fn missing_cells() {
        let csv = "a,b\n,x\n???,y\n";
        let t = read_csv(csv).unwrap();
        assert!(t.row(0).unwrap().get(0).unwrap().is_missing());
        assert!(t.row(1).unwrap().get(0).unwrap().is_missing());
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = read_csv("a,b\n1\n").unwrap_err();
        assert!(matches!(err, TabularError::CsvParse { line: 2, .. }));
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(read_csv("a\n\"open\n").is_err());
    }

    #[test]
    fn empty_document_rejected() {
        assert!(read_csv("").is_err());
    }

    #[test]
    fn typed_reader_infers_numeric_columns() {
        let t = read_csv_typed("age,name\n30,ann\n40,bob\n").unwrap();
        assert_eq!(t.schema().attribute(0).unwrap().dtype, AttrType::Numeric);
        assert_eq!(t.schema().attribute(1).unwrap().dtype, AttrType::Text);
        assert_eq!(t.row(0).unwrap().get(0), Some(&Value::Int(30)));
    }

    #[test]
    fn typed_reader_mixed_column_stays_text() {
        let t = read_csv_typed("x\n1\nabc\n").unwrap();
        assert_eq!(t.schema().attribute(0).unwrap().dtype, AttrType::Text);
    }

    #[test]
    fn crlf_line_endings() {
        let t = read_csv("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0).unwrap().get(1), Some(&Value::text("2")));
    }

    #[test]
    fn no_trailing_newline() {
        let t = read_csv("a\nlast").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0).unwrap().get(0), Some(&Value::text("last")));
    }
}
