//! Seeded equivalence suite: the index-based answer scanner must match the
//! legacy `parse_response` implementation byte-for-byte on every completion,
//! and the per-position `parse_batch` must match `parse_response` looked up
//! by position.
//!
//! The legacy parser (retained as `parse_response_legacy`) is the oracle; the
//! fuzzer assembles completions from the fragment classes the serving layer
//! actually sees — well-formed `Answer N:` segments, duplicate and
//! out-of-order numbers, number 0 (reserved/skipped), empty segments,
//! markers without colons, markers embedded mid-line, rambling filler, CRLF
//! endings, and whitespace-only lines — plus pure random ASCII noise.

use dprep_prompt::{parse_batch, parse_response, parse_response_legacy, ExtractedAnswer};
use dprep_rng::Rng;

/// Builds one fuzzed completion from `rng`: a random mix of fragments that
/// cover every branch of the segment grammar.
fn fuzz_completion(rng: &mut Rng) -> (String, bool) {
    let expect_reason = rng.bool(0.5);
    let fragments = rng.range_usize(0, 12);
    let mut text = String::new();
    for _ in 0..fragments {
        match rng.range_usize(0, 10) {
            // Well-formed segment, 1-3 content lines.
            0..=3 => {
                let number = rng.range_usize(0, 7); // 0 is the skipped sentinel
                text.push_str(&format!("Answer {number}:"));
                let lines = rng.range_usize(0, 4);
                for _ in 0..lines {
                    let word_count = rng.range_usize(1, 4);
                    for _ in 0..word_count {
                        let len = rng.range_usize(1, 8);
                        text.push(' ');
                        text.push_str(&rng.ascii_string(b"abcdeyn ", len));
                    }
                    text.push(if rng.bool(0.2) { '\r' } else { ' ' });
                    text.push('\n');
                }
            }
            // Marker missing its colon (invalid, scanner must skip).
            4 => text.push_str("Answer 3 maybe\n"),
            // Marker with no digits (invalid).
            5 => text.push_str("Answer : unclear\n"),
            // Marker embedded mid-line inside a previous segment.
            6 => text.push_str("see Answer 2: embedded verdict\n"),
            // Rambling filler with no marker.
            7 => text.push_str("Well, regarding the question, hard to say.\n"),
            // Whitespace-only lines and blank runs.
            8 => text.push_str(" \t \n\n  \r\n"),
            // Random ASCII noise, may contain partial markers.
            _ => {
                let len = rng.range_usize(0, 24);
                text.push_str(&rng.ascii_string(b"Answer 123:\n ", len));
            }
        }
    }
    (text, expect_reason)
}

#[test]
fn scanner_matches_legacy_on_fuzzed_completions() {
    let mut rng = Rng::seed_from_u64(0x5eed_9a75);
    for case in 0..4000 {
        let (text, expect_reason) = fuzz_completion(&mut rng);
        let new = parse_response(&text, expect_reason);
        let old = parse_response_legacy(&text, expect_reason);
        assert_eq!(
            new, old,
            "case {case}: scanner diverged from legacy on {text:?} (expect_reason={expect_reason})"
        );
    }
}

#[test]
fn scanner_matches_legacy_on_handwritten_edges() {
    for text in HANDWRITTEN {
        for expect_reason in [false, true] {
            assert_eq!(
                parse_response(text, expect_reason),
                parse_response_legacy(text, expect_reason),
                "diverged on {text:?} (expect_reason={expect_reason})"
            );
        }
    }
}

/// Completions at the grammar's edges.
const HANDWRITTEN: &[&str] = &[
    "",
    "Answer 1:",
    "Answer 1: \n",
    "Answer 0: skipped\nAnswer 1: kept\n",
    "Answer 1: yes\nAnswer 1: no\n",
    "Answer 2: no\nAnswer 1: yes\n",
    "Answer 1: reason line\nvalue\n",
    "Answer 1: a\nb\nc\n",
    "Answer 1: trailing marker Answer ",
    "Answer 1: see Answer 2: nested\n",
    "Answer 12: multi digit\n",
    "Answer 99999999999999999999999999: overflow digits\n",
    "Answer 1:no leading space\n",
    "Answer 1: crlf line\r\nvalue\r\n",
    "prefix Answer 1: indented\n  padded value  \n",
    "Answer 1: only\n\n\n  \nAnswer 2: second\n",
    "AnswerAnswer 1: stutter\n",
    "Answer 1: Answer 1: dup inline\n",
    "Answer 7: only past the batch\n",
    "Answer 0: only the reserved number\n",
    "Answer 1:\nAnswer 1: late\n",
    "Answer 2: x\nAnswer 2: y\nAnswer 9: far\n",
];

/// `parse_batch(text, reason, k)` against `parse_response(text, reason)`:
/// position `p` holds the map's answer `p + 1`, for every `k` from 0 past
/// the largest number drawn, and `nothing_parsed` is the map's emptiness.
/// Every string is exactly its length.
fn assert_batch_matches_map(text: &str, expect_reason: bool) {
    let map = parse_response(text, expect_reason);
    for k in 0..=9 {
        let batch = parse_batch(text, expect_reason, k);
        let at = format!("{text:?} (expect_reason={expect_reason}, k={k})");
        assert_eq!(batch.answers.len(), k, "{at}");
        for (p, answer) in batch.answers.iter().enumerate() {
            assert_eq!(answer.as_ref(), map.get(&(p + 1)), "{at}: position {p}");
        }
        assert_eq!(batch.nothing_parsed, map.is_empty(), "{at}");
        let strings = batch
            .answers
            .iter()
            .flatten()
            .flat_map(|a: &ExtractedAnswer| std::iter::once(&a.value).chain(a.reason.as_ref()));
        for s in strings {
            assert_eq!(s.len(), s.capacity(), "{at}: {s:?} is not exact-size");
        }
    }
}

#[test]
fn batch_parse_matches_the_map_by_position() {
    let mut rng = Rng::seed_from_u64(0x5eed_ba7c);
    for _ in 0..2000 {
        let (text, expect_reason) = fuzz_completion(&mut rng);
        assert_batch_matches_map(&text, expect_reason);
    }
    for text in HANDWRITTEN {
        for expect_reason in [false, true] {
            assert_batch_matches_map(text, expect_reason);
        }
    }
    // Duplicates keep the first answer; an answer past the batch still
    // says something parsed, and an empty text parses nothing.
    let batch = parse_batch("Answer 1: yes\nAnswer 1: no\nAnswer 5: far\n", false, 2);
    assert_eq!(
        batch.answers[0].as_ref().map(|a| a.value.as_str()),
        Some("yes")
    );
    assert_eq!(batch.answers[1], None);
    assert!(!parse_batch("Answer 5: far\n", true, 2).nothing_parsed);
    assert!(parse_batch("", true, 3).nothing_parsed);
    assert!(parse_batch("Answer 0: reserved\nAnswer 1:\n", false, 3).nothing_parsed);
}

/// The duplicate-number rule is first-wins in both implementations, even when
/// the first occurrence's segment is empty (both then skip it, letting a
/// later duplicate land — replicated behavior, pinned here on purpose).
#[test]
fn empty_first_duplicate_lets_second_land_in_both() {
    let text = "Answer 1:\nAnswer 1: late\n";
    let new = parse_response(text, false);
    let old = parse_response_legacy(text, false);
    assert_eq!(new, old);
    assert_eq!(new[&1].value, "late");
}
