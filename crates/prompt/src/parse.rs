//! Parses completions back into per-question answers.
//!
//! The framework instructs models to emit `Answer N:` segments. This parser
//! recovers them, tolerating reordered numbering; questions whose segment is
//! missing or malformed come back as `None` (the "unparseable" outcomes
//! that, at high rates, the paper reports as N/A).

use std::collections::BTreeMap;

/// One extracted answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedAnswer {
    /// The reasoning line(s), when the two-line format was used.
    pub reason: Option<String>,
    /// The final answer value, trimmed.
    pub value: String,
}

impl ExtractedAnswer {
    /// Interprets the value as a yes/no verdict, `None` when it is neither:
    /// after trimming it and any trailing `.`, one of `yes`, `y`, `true`
    /// or `no`, `n`, `false`, in any case.
    ///
    /// The words are ASCII, so the value is compared ASCII
    /// case-insensitively, without a lowercased copy. That reads exactly
    /// what Unicode lowercasing would: the one non-ASCII char that
    /// lowercases to a lone ASCII letter, U+212A KELVIN SIGN, becomes `k`,
    /// which none of the words contains.
    pub fn as_yes_no(&self) -> Option<bool> {
        let v = self.value.trim().trim_end_matches('.');
        let is_any = |words: [&str; 3]| words.iter().any(|w| v.eq_ignore_ascii_case(w));
        if is_any(["yes", "y", "true"]) {
            Some(true)
        } else if is_any(["no", "n", "false"]) {
            Some(false)
        } else {
            None
        }
    }
}

/// A completion parsed for one batch of `k` questions, by position: what
/// [`parse_response`] finds under the numbers `1..=k`, without the map.
/// Each answer is an [`ExtractedAnswer`], or what [`parse_batch_with`]
/// keeps of one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAnswers<A = ExtractedAnswer> {
    /// Question `p + 1`'s answer at index `p`, `None` when none parsed.
    pub answers: Vec<Option<A>>,
    /// Whether nothing parsed under any number, `1..=k` or past it: the
    /// map [`parse_response`] returns would be empty. A miss in a
    /// response that answered nothing is a format violation.
    pub nothing_parsed: bool,
}

/// The `Answer N:` marker prefix both scanners look for.
const MARKER: &str = "Answer ";

/// Index-based scanner over `Answer N:` markers.
///
/// Yields `(number, segment)` pairs where `segment` borrows from the raw
/// completion — no intermediate `Vec` of line slices and no per-segment
/// `String` copies. A segment runs from the byte after the marker's colon to
/// the start of the next valid marker (or end of text), trimmed.
struct AnswerScanner<'a> {
    text: &'a str,
    cursor: usize,
    /// The next valid marker, pre-scanned while delimiting the previous
    /// segment: `(marker_start, number, content_start)`.
    pending: Option<(usize, usize, usize)>,
    done: bool,
}

impl<'a> AnswerScanner<'a> {
    fn new(text: &'a str) -> Self {
        AnswerScanner {
            text,
            cursor: 0,
            pending: None,
            done: false,
        }
    }

    /// Finds the next valid `Answer N:` marker at or after `self.cursor`,
    /// advancing the cursor past it. Returns `(marker_start, number,
    /// content_start)`; numbers that overflow `usize` come back as 0 (and
    /// are skipped by the caller, matching the legacy parser).
    fn next_marker(&mut self) -> Option<(usize, usize, usize)> {
        while let Some(found) = self.text[self.cursor..].find(MARKER) {
            let at = self.cursor + found;
            let after = &self.text[at + MARKER.len()..];
            let digits_len = after
                .as_bytes()
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            let rest = &after[digits_len..];
            if digits_len > 0 && rest.starts_with(':') {
                let content_start = at + MARKER.len() + digits_len + 1;
                let number = after[..digits_len].parse().unwrap_or(0);
                self.cursor = content_start;
                return Some((at, number, content_start));
            }
            self.cursor = at + MARKER.len();
        }
        None
    }
}

impl<'a> Iterator for AnswerScanner<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let (_, number, start) = match self.pending.take() {
            Some(marker) => marker,
            None => match self.next_marker() {
                Some(marker) => marker,
                None => {
                    self.done = true;
                    return None;
                }
            },
        };
        let end = match self.next_marker() {
            Some(next) => {
                self.pending = Some(next);
                next.0
            }
            None => {
                self.done = true;
                self.text.len()
            }
        };
        Some((number, self.text[start..end].trim()))
    }
}

/// Parses a completion into answers keyed by question number (1-based).
///
/// `expect_reason` says whether the prompt requested the two-line format:
/// when true, the last line of a segment is the value and the earlier lines
/// are the reason; when false, the whole segment is the value. Duplicate
/// numbers keep the first occurrence that holds an answer.
///
/// It walks the completion once with an index-based scanner and allocates
/// only the map and each answer's `reason`/`value` `String`s — no
/// intermediate line vectors or segment copies. [`parse_batch`] is the
/// same parse by position, for a caller that knows the batch size.
pub fn parse_response(text: &str, expect_reason: bool) -> BTreeMap<usize, ExtractedAnswer> {
    let mut answers = BTreeMap::new();
    for (number, segment) in AnswerScanner::new(text) {
        // A trimmed segment holds a non-empty line exactly when it is not
        // empty itself, so an empty one is the only segment with no value.
        if number == 0 || segment.is_empty() || answers.contains_key(&number) {
            continue;
        }
        answers.insert(number, extract(segment, expect_reason));
    }
    answers
}

/// [`parse_response`] for a batch of `questions` questions, by position:
/// question `p + 1`'s answer lands at index `p`, answers numbered past the
/// batch are dropped, and the one thing the map said about them — whether
/// anything parsed at all — is kept as [`BatchAnswers::nothing_parsed`].
/// The vector and every string are allocated at their final size.
pub fn parse_batch(text: &str, expect_reason: bool, questions: usize) -> BatchAnswers {
    parse_batch_with(text, expect_reason, questions, |answer| answer)
}

/// [`parse_batch`], keeping of each answer only what `keep` makes of it,
/// as soon as it is extracted: a caller that needs less than the whole
/// answer never holds every answer's strings at once.
pub fn parse_batch_with<A>(
    text: &str,
    expect_reason: bool,
    questions: usize,
    mut keep: impl FnMut(ExtractedAnswer) -> A,
) -> BatchAnswers<A> {
    let mut answers: Vec<Option<A>> = Vec::with_capacity(questions);
    answers.resize_with(questions, || None);
    let mut nothing_parsed = true;
    for (number, segment) in AnswerScanner::new(text) {
        if number == 0 || segment.is_empty() {
            continue;
        }
        nothing_parsed = false;
        if let Some(slot @ None) = answers.get_mut(number - 1) {
            *slot = Some(keep(extract(segment, expect_reason)));
        }
    }
    BatchAnswers {
        answers,
        nothing_parsed,
    }
}

/// The answer in one non-empty, trimmed `Answer N:` segment. With
/// `expect_reason`, its last non-empty line is the value and the lines
/// before it, joined by spaces, the reason; without, all its lines joined
/// are the value. Lines are trimmed, and empty ones skipped.
fn extract(segment: &str, expect_reason: bool) -> ExtractedAnswer {
    let lines = segment
        .split('\n')
        .map(str::trim)
        .filter(|line| !line.is_empty());
    if !expect_reason {
        return ExtractedAnswer {
            reason: None,
            value: joined(lines),
        };
    }
    let count = lines.clone().count();
    let value = lines.clone().next_back().unwrap_or_default().to_string();
    ExtractedAnswer {
        reason: (count > 1).then(|| joined(lines.take(count - 1))),
        value,
    }
}

/// `lines` joined by single spaces, in a string of exactly that length.
fn joined<'a>(lines: impl Iterator<Item = &'a str> + Clone) -> String {
    let (count, bytes) = lines
        .clone()
        .fold((0usize, 0usize), |(n, b), line| (n + 1, b + line.len()));
    let mut out = String::with_capacity(bytes + count.saturating_sub(1));
    for line in lines {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(line);
    }
    out
}

/// The pre-scanner implementation of [`parse_response`], retained verbatim as
/// the reference oracle for the seeded equivalence suite
/// (`tests/parse_equivalence.rs`). Not for production use.
#[doc(hidden)]
pub fn parse_response_legacy(text: &str, expect_reason: bool) -> BTreeMap<usize, ExtractedAnswer> {
    fn split_answers(text: &str) -> Vec<(usize, String)> {
        let mut out: Vec<(usize, usize, usize)> = Vec::new(); // (number, content_start, marker_start)
        let mut cursor = 0;
        while let Some(found) = text[cursor..].find(MARKER) {
            let at = cursor + found;
            let after = &text[at + MARKER.len()..];
            let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
            let rest = &after[digits.len()..];
            if !digits.is_empty() && rest.starts_with(':') {
                let content_start = at + MARKER.len() + digits.len() + 1;
                out.push((digits.parse().unwrap_or(0), content_start, at));
                cursor = content_start;
            } else {
                cursor = at + MARKER.len();
            }
        }
        let mut segments = Vec::with_capacity(out.len());
        for (i, &(number, start, _)) in out.iter().enumerate() {
            let end = out
                .get(i + 1)
                .map_or(text.len(), |&(_, _, next_marker)| next_marker);
            segments.push((number, text[start..end].trim().to_string()));
        }
        segments
    }

    let mut answers = BTreeMap::new();
    for (number, segment) in split_answers(text) {
        if number == 0 || answers.contains_key(&number) {
            continue;
        }
        let lines: Vec<&str> = segment
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        let extracted = match (expect_reason, lines.as_slice()) {
            (_, []) => continue,
            (false, all) => ExtractedAnswer {
                reason: None,
                value: all.join(" "),
            },
            (true, [only]) => ExtractedAnswer {
                reason: None,
                value: (*only).to_string(),
            },
            (true, [reason @ .., value]) => ExtractedAnswer {
                reason: Some(reason.join(" ")),
                value: (*value).to_string(),
            },
        };
        answers.insert(number, extracted);
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_two_line_answers() {
        let text = "Answer 1: The area code suggests Marietta.\nmarietta\n\
                    Answer 2: The brand token is Sony.\nsony\n";
        let answers = parse_response(text, true);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[&1].value, "marietta");
        assert_eq!(
            answers[&1].reason.as_deref(),
            Some("The area code suggests Marietta.")
        );
        assert_eq!(answers[&2].value, "sony");
    }

    #[test]
    fn parses_single_line_answers() {
        let text = "Answer 1: yes\nAnswer 2: no\n";
        let answers = parse_response(text, false);
        assert_eq!(answers[&1].value, "yes");
        assert_eq!(answers[&1].reason, None);
        assert_eq!(answers[&2].as_yes_no(), Some(false));
    }

    #[test]
    fn missing_segments_are_absent() {
        let text = "Answer 1: yes\nWell, the second question is hard to say.\n";
        let answers = parse_response(text, false);
        assert_eq!(answers.len(), 1);
        assert!(!answers.contains_key(&2));
    }

    #[test]
    fn tolerates_out_of_order_numbers() {
        let text = "Answer 2: no\nAnswer 1: yes\n";
        let answers = parse_response(text, false);
        assert_eq!(answers[&1].value, "yes");
        assert_eq!(answers[&2].value, "no");
    }

    #[test]
    fn yes_no_interpretation() {
        let yes = ExtractedAnswer {
            reason: None,
            value: "Yes.".into(),
        };
        assert_eq!(yes.as_yes_no(), Some(true));
        let unclear = ExtractedAnswer {
            reason: None,
            value: "possibly".into(),
        };
        assert_eq!(unclear.as_yes_no(), None);
    }

    /// `as_yes_no` as it was, through a Unicode-lowercased copy.
    fn as_yes_no_oracle(value: &str) -> Option<bool> {
        match value.trim().trim_end_matches('.').to_lowercase().as_str() {
            "yes" | "y" | "true" => Some(true),
            "no" | "n" | "false" => Some(false),
            _ => None,
        }
    }

    #[test]
    fn yes_no_reads_what_the_lowercased_copy_read() {
        // Letters of the six words in both cases, the Kelvin sign (which
        // lowercases to `k`), the dotted capital I (to `i` + U+0307), and
        // the trimmed and stripped decorations.
        let alphabet: Vec<char> = "yesnotrufaYESNOTRUFAk\u{212a}\u{130}i. \t\u{a0}"
            .chars()
            .collect();
        let words = [
            "yes", "no", "y", "n", "true", "false", "YeS.", "nO..", " Y ", "x",
        ];
        let mut rng = dprep_rng::Rng::seed_from_u64(0x07e5_00a0);
        for case in 0..20_000 {
            let value: String = if case % 2 == 0 {
                let len = rng.range_usize(0, 7);
                (0..len)
                    .map(|_| *rng.choose(&alphabet).expect("alphabet"))
                    .collect()
            } else {
                // A word with one char swapped for a random one.
                let word = *rng.choose(&words).expect("words");
                let mut chars: Vec<char> = word.chars().collect();
                let at = rng.range_usize(0, chars.len());
                chars[at] = *rng.choose(&alphabet).expect("alphabet");
                chars.into_iter().collect()
            };
            let answer = ExtractedAnswer {
                reason: None,
                value: value.clone(),
            };
            assert_eq!(answer.as_yes_no(), as_yes_no_oracle(&value), "{value:?}");
        }
        for value in [
            "\u{212a}",
            "yes\u{130}",
            "TRUE.",
            " no. ",
            "\u{130}",
            "n\u{212a}",
        ] {
            let answer = ExtractedAnswer {
                reason: None,
                value: value.into(),
            };
            assert_eq!(answer.as_yes_no(), as_yes_no_oracle(value), "{value:?}");
        }
    }

    #[test]
    fn two_line_with_single_line_fallback() {
        // Model ignored the reasoning request; the single line is the value.
        let answers = parse_response("Answer 1: marietta\n", true);
        assert_eq!(answers[&1].value, "marietta");
        assert_eq!(answers[&1].reason, None);
    }

    #[test]
    fn rambling_without_markers_parses_to_nothing() {
        let text = "Well, regarding the first question, it is hard to say.";
        assert!(parse_response(text, true).is_empty());
    }

    #[test]
    fn duplicate_numbers_keep_first() {
        let answers = parse_response("Answer 1: yes\nAnswer 1: no\n", false);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[&1].value, "yes");
    }

    #[test]
    fn multi_line_reason_joined() {
        let text = "Answer 1: First consideration.\nSecond consideration.\nno\n";
        let answers = parse_response(text, true);
        assert_eq!(
            answers[&1].reason.as_deref(),
            Some("First consideration. Second consideration.")
        );
        assert_eq!(answers[&1].value, "no");
    }
}
