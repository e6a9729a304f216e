//! Property-style tests for the tabular substrate: contextualization and
//! CSV are lossless round trips for arbitrary content.
//!
//! Cases are generated with the in-tree [`dprep_rng`] generator from a
//! fixed seed, so every run exercises the same inputs.

use std::sync::Arc;

use dprep_rng::Rng;
use dprep_tabular::context::{contextualize, parse_instance};
use dprep_tabular::csv::{read_csv, write_csv};
use dprep_tabular::{Record, Schema, Value};

const CASES: usize = 256;

/// Attribute names: nonempty, no grammar metacharacters (`:,"[]` and
/// newline are reserved by the contextualization grammar). Mirrors the
/// old proptest regex `[a-z][a-z0-9_ -]{0,14}[a-z0-9]`.
fn attr_name(rng: &mut Rng) -> String {
    let first: Vec<u8> = (b'a'..=b'z').collect();
    let mid: Vec<u8> = (b'a'..=b'z')
        .chain(b'0'..=b'9')
        .chain([b'_', b' ', b'-'])
        .collect();
    let last: Vec<u8> = (b'a'..=b'z').chain(b'0'..=b'9').collect();
    let mut s = rng.ascii_string(&first, 1);
    let len = rng.range_incl(0usize, 14);
    s.push_str(&rng.ascii_string(&mid, len));
    s.push_str(&rng.ascii_string(&last, 1));
    s
}

/// Cell text: anything printable, including quotes and backslashes (the
/// grammar escapes them).
fn cell_text(rng: &mut Rng) -> String {
    let alphabet: Vec<u8> = (b' '..=b'~').collect();
    let len = rng.range_incl(0usize, 30);
    rng.ascii_string(&alphabet, len)
}

/// 1-5 (name, optional cell) pairs with unique names, order preserved.
fn random_record(rng: &mut Rng) -> (Vec<String>, Vec<Option<String>>) {
    let mut names = Vec::new();
    let mut values = Vec::new();
    for _ in 0..rng.range_incl(1usize, 5) {
        let n = attr_name(rng);
        let v = if rng.bool(0.5) {
            Some(cell_text(rng))
        } else {
            None
        };
        if !names.contains(&n) {
            names.push(n);
            values.push(v);
        }
    }
    (names, values)
}

#[test]
fn contextualization_round_trips() {
    let mut rng = Rng::seed_from_u64(0x7ab_0001);
    for _ in 0..CASES {
        let (names, values) = random_record(&mut rng);
        let schema = Schema::all_text(&names.iter().map(String::as_str).collect::<Vec<_>>())
            .expect("unique names")
            .shared();
        let record = Record::new(
            Arc::clone(&schema),
            values
                .iter()
                .map(|v| match v {
                    // The grammar renders both missing and the literal "???"
                    // as ???, so normalize the expectation.
                    Some(s) if s != "???" => Value::text(s.clone()),
                    _ => Value::Missing,
                })
                .collect(),
        )
        .expect("arity");
        let text = contextualize(&record);
        let parsed = parse_instance(&text).expect("own output parses");
        assert_eq!(parsed.fields.len(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(&parsed.fields[i].0, name);
            match record.get(i).unwrap() {
                Value::Missing => assert_eq!(parsed.fields[i].1, None),
                Value::Text(s) => assert_eq!(parsed.fields[i].1.as_deref(), Some(s.as_str())),
                _ => unreachable!("all-text schema"),
            }
        }
    }
}

#[test]
fn csv_round_trips() {
    let mut rng = Rng::seed_from_u64(0x7ab_0002);
    for _ in 0..CASES {
        let (names, values) = random_record(&mut rng);
        let schema = Schema::all_text(&names.iter().map(String::as_str).collect::<Vec<_>>())
            .expect("unique names")
            .shared();
        let mut table = dprep_tabular::Table::new(Arc::clone(&schema));
        table
            .push_values(
                values
                    .iter()
                    .map(|v| match v {
                        // Empty strings and "???" read back as missing.
                        Some(s) if !s.is_empty() && s != "???" => Value::text(s.clone()),
                        _ => Value::Missing,
                    })
                    .collect(),
            )
            .expect("arity");
        let csv = write_csv(&table);
        let back = read_csv(&csv).expect("own output parses");
        assert_eq!(back.schema().names(), table.schema().names());
        assert_eq!(
            back.row(0).unwrap().values(),
            table.row(0).unwrap().values()
        );
    }
}

#[test]
fn parse_instance_never_panics() {
    let mut rng = Rng::seed_from_u64(0x7ab_0003);
    // Arbitrary garbage may fail to parse, but must never panic: printable
    // ASCII, control characters (`\x0B` among them), and multi-byte
    // characters, which the byte walk must never cut inside — after a
    // backslash, before a quote, at the end of the text.
    let alphabet: Vec<char> = (' '..='~')
        .chain([
            '\n',
            '\t',
            '\u{b}',
            '\u{0}',
            '\r',
            'é',
            '东',
            '\u{a0}',
            '\u{1f600}',
        ])
        .collect();
    let grammar: Vec<char> = "[]:,\"\\? é东\u{b}".chars().collect();
    for case in 0..CASES * 8 {
        let len = rng.range_incl(0usize, 120);
        // Every other case draws from the grammar's own characters, where
        // near misses of well-formed instances are dense.
        let pool = if case % 2 == 0 { &alphabet } else { &grammar };
        let text: String = (0..len)
            .map(|_| *rng.choose(pool).expect("nonempty"))
            .collect();
        let _ = parse_instance(&text);
        let _ = dprep_tabular::context::extract_instances(&text);
    }
}
