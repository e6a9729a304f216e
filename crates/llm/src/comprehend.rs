//! Prompt comprehension: how the simulated model reads a prompt.
//!
//! A real LLM infers what is being asked from the prompt text alone. The
//! simulator does the same, with a small natural-language reader instead of
//! a transformer: it detects the task from instruction keywords, finds the
//! target attribute in quoted form, notices whether a reasoning/answer
//! format was requested, parses few-shot example turns, and extracts every
//! batched question with its contextualized data instances (via the shared
//! grammar in [`dprep_tabular::context`]).
//!
//! Nothing here consults ground truth or any out-of-band channel — only the
//! characters of the request. What the reader finds, it borrows from
//! those characters: names, target attributes, values and answers are
//! slices of the request's messages, and a value is owned only when an
//! escape had to be removed from it.

use std::borrow::Cow;

use dprep_tabular::context::{extract_instances, ParsedInstance};

use crate::chat::{ChatRequest, Message, Role};

/// The task the model believes it was asked to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Detect an error in one attribute of a record.
    ErrorDetection,
    /// Infer a missing cell value.
    Imputation,
    /// Decide whether two attributes are the same.
    SchemaMatching,
    /// Decide whether two records are the same entity.
    EntityMatching,
}

/// One few-shot example reconstructed from a user/assistant turn pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Example<'a> {
    /// Data instances appearing in the question.
    pub instances: Vec<ParsedInstance<'a>>,
    /// Target attribute named in the question, if any.
    pub target_attribute: Option<&'a str>,
    /// Reasoning line of the answer, when present (several reasoning
    /// lines are joined by spaces, the one case that owns its text).
    pub reason: Option<Cow<'a, str>>,
    /// Final answer line.
    pub answer: &'a str,
}

/// One question in the (possibly batched) final user message.
#[derive(Debug, Clone, PartialEq)]
pub struct Question<'a> {
    /// 1-based question number as written in the prompt.
    pub number: usize,
    /// Data instances in the question (1 for ED/DI, 2 for SM/EM).
    pub instances: Vec<ParsedInstance<'a>>,
    /// Target attribute named in the question, if any.
    pub target_attribute: Option<&'a str>,
}

/// Everything the model understood about a request.
#[derive(Debug, Clone, PartialEq)]
pub struct ComprehendedPrompt<'a> {
    /// Detected task, if any instruction matched.
    pub task: Option<TaskKind>,
    /// Prompt-level target attribute (per-question attributes override it).
    /// Borrowed when the request has one system message; several are read
    /// as one joined text, which owns what is found in it.
    pub target_attribute: Option<Cow<'a, str>>,
    /// Whether the prompt demands a reasoning line (chain of thought).
    pub wants_reason: bool,
    /// Whether the prompt asks to confirm the target attribute (the ED
    /// safeguard of §3.1).
    pub confirm_target: bool,
    /// A data-type hint for imputation (e.g. "a range of integers"), held
    /// as the target attribute is.
    pub type_hint: Option<Cow<'a, str>>,
    /// Few-shot examples.
    pub examples: Vec<Example<'a>>,
    /// Questions to answer.
    pub questions: Vec<Question<'a>>,
}

/// First `"quoted"` substring after `marker`, on the same line — scanning
/// across lines would pick up quotes from unrelated instructions (e.g. the
/// `[attribute: "value"]` format description).
fn quoted_after<'a>(text: &'a str, marker: &str) -> Option<&'a str> {
    let at = text.find(marker)? + marker.len();
    let rest = &text[at..];
    let line_end = rest.find('\n').unwrap_or(rest.len());
    let line = &rest[..line_end];
    let open = line.find('"')?;
    let after_open = &line[open + 1..];
    let close = after_open.find('"')?;
    Some(&after_open[..close])
}

/// The task named by an instruction, read from its lowercased text.
fn detect_task(lower: &str) -> Option<TaskKind> {
    if lower.contains("error") {
        Some(TaskKind::ErrorDetection)
    } else if lower.contains("infer the value") || lower.contains("impute") {
        Some(TaskKind::Imputation)
    } else if lower.contains("same attribute") {
        Some(TaskKind::SchemaMatching)
    } else if lower.contains("same entity") {
        Some(TaskKind::EntityMatching)
    } else {
        None
    }
}

fn detect_target_attribute(text: &str) -> Option<&str> {
    [
        "error in the",
        "value of the",
        "infer the value of the",
        "the target attribute is",
    ]
    .into_iter()
    .find_map(|marker| quoted_after(text, marker))
}

/// The data-type hint of an instruction: the quoted text after
/// `attribute can be`, or else the rest of the first line that says it.
fn detect_type_hint(text: &str) -> Option<&str> {
    quoted_after(text, "attribute can be").or_else(|| {
        text.lines().find_map(|l| {
            let l = l.trim();
            l.contains("attribute can be").then(|| {
                l.split("can be")
                    .nth(1)
                    .unwrap_or("")
                    .trim()
                    .trim_end_matches('.')
            })
        })
    })
}

/// Splits a message body on `"{marker}{number}:"` markers (`marker`
/// carries its trailing space), returning `(number, segment)` pairs, each
/// segment trimmed. Text before the first marker is ignored; if no marker
/// exists the whole body is one segment numbered 1. A number too large for
/// `usize` reads as 0.
fn split_numbered<'a>(body: &'a str, marker: &str) -> Vec<(usize, &'a str)> {
    let mut segments: Vec<(usize, &str)> = Vec::new();
    let mut cursor = 0usize;
    let mut current: Option<(usize, usize)> = None; // (number, start)
    while let Some(found) = body[cursor..].find(marker) {
        let at = cursor + found;
        // Parse "<number>:" directly after the marker.
        let after = &body[at + marker.len()..];
        let digits = after.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 && after[digits..].starts_with(':') {
            if let Some((num, start)) = current.take() {
                segments.push((num, body[start..at].trim()));
            }
            let number: usize = after[..digits].parse().unwrap_or(0);
            let content_start = at + marker.len() + digits + 1;
            current = Some((number, content_start));
            cursor = content_start;
        } else {
            cursor = at + marker.len();
        }
    }
    if let Some((num, start)) = current {
        segments.push((num, body[start..].trim()));
    }
    if segments.is_empty() {
        let trimmed = body.trim();
        if !trimmed.is_empty() {
            segments.push((1, trimmed));
        }
    }
    segments
}

/// An answer segment's reasoning (every nonblank line but the last,
/// trimmed and joined by spaces) and its answer (the last such line).
fn parse_answer_segment(segment: &str) -> (Option<Cow<'_, str>>, &str) {
    let mut lines = segment.lines().map(str::trim).filter(|l| !l.is_empty());
    let Some(mut last) = lines.next() else {
        return (None, "");
    };
    let mut reason: Option<Cow<'_, str>> = None;
    for line in lines {
        reason = Some(match reason {
            None => Cow::Borrowed(last),
            Some(joined) => {
                let mut joined = joined.into_owned();
                joined.push(' ');
                joined.push_str(last);
                Cow::Owned(joined)
            }
        });
        last = line;
    }
    (reason, last)
}

/// Reads a chat request into a [`ComprehendedPrompt`] that borrows from it.
pub fn comprehend(request: &ChatRequest) -> ComprehendedPrompt<'_> {
    // The instruction: the system messages' text. One message (what the
    // prompt builder sends) is read in place; several are joined by
    // newlines. Every marker the reader looks for lies within one line,
    // so the join finds what the messages would.
    let mut system = request.messages.iter().filter(|m| m.role == Role::System);
    let instruction: Cow<'_, str> = match (system.next(), system.next()) {
        (None, _) => Cow::Borrowed(""),
        (Some(only), None) => Cow::Borrowed(&only.content),
        (Some(first), Some(second)) => {
            let mut joined = first.content.clone();
            for m in std::iter::once(second).chain(system) {
                joined.push('\n');
                joined.push_str(&m.content);
            }
            Cow::Owned(joined)
        }
    };
    let lower = instruction.to_lowercase();
    let task = detect_task(&lower);
    let wants_reason = lower.contains("reason");
    let confirm_target = lower.contains("confirm the target attribute");
    let (target_attribute, type_hint) = match &instruction {
        Cow::Borrowed(text) => (
            detect_target_attribute(text).map(Cow::Borrowed),
            detect_type_hint(text).map(Cow::Borrowed),
        ),
        Cow::Owned(text) => (
            detect_target_attribute(text).map(|t| Cow::Owned(t.to_string())),
            detect_type_hint(text).map(|t| Cow::Owned(t.to_string())),
        ),
    };

    // Few-shot examples: every (user, assistant) adjacent pair.
    let non_system: Vec<&Message> = request
        .messages
        .iter()
        .filter(|m| m.role != Role::System)
        .collect();
    let mut examples = Vec::new();
    let mut i = 0;
    while i + 1 < non_system.len() {
        if non_system[i].role == Role::User && non_system[i + 1].role == Role::Assistant {
            let questions = split_numbered(&non_system[i].content, "Question ");
            let answers = split_numbered(&non_system[i + 1].content, "Answer ");
            for (q, a) in questions.iter().zip(answers.iter()) {
                let (reason, answer) = parse_answer_segment(a.1);
                examples.push(Example {
                    instances: extract_instances(q.1),
                    target_attribute: detect_target_attribute(q.1),
                    reason,
                    answer,
                });
            }
            i += 2;
        } else {
            i += 1;
        }
    }

    // Batch questions: the last user message (if it is not part of a
    // question/answer example pair, i.e. it is the final message).
    let mut questions = Vec::new();
    if let Some(last) = request.messages.last() {
        if last.role == Role::User {
            let segments = split_numbered(&last.content, "Question ");
            questions.reserve_exact(segments.len());
            questions.extend(segments.into_iter().map(|(number, text)| Question {
                number,
                instances: extract_instances(text),
                target_attribute: detect_target_attribute(text),
            }));
        }
    }

    ComprehendedPrompt {
        task,
        target_attribute,
        wants_reason,
        confirm_target,
        type_hint,
        examples,
        questions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::Message;

    fn di_request() -> ChatRequest {
        ChatRequest::new(vec![
            Message::system(
                "You are a database engineer.\n\
                 You are requested to infer the value of the \"city\" attribute \
                 based on the values of other attributes.\n\
                 MUST answer each question in two lines. In the first line, you \
                 give the reason for the inference. In the second line, you ONLY \
                 give the value of the \"city\" attribute.",
            ),
            Message::user(
                "Question 1: Record is [name: \"carey's corner\", phone: \"770-933-0909\", city: ???]. \
                 What is the value of the \"city\" attribute?",
            ),
            Message::assistant(
                "Answer 1: The phone number \"770\" suggests Marietta in Georgia.\nmarietta",
            ),
            Message::user(
                "Question 1: Record is [name: \"blue moon cafe\", phone: \"404-555-1234\", city: ???]. \
                 What is the value of the \"city\" attribute?\n\
                 Question 2: Record is [name: \"dixie grill\", phone: \"770-111-2222\", city: ???]. \
                 What is the value of the \"city\" attribute?",
            ),
        ])
    }

    #[test]
    fn detects_di_task_and_target() {
        let request = di_request();
        let c = comprehend(&request);
        assert_eq!(c.task, Some(TaskKind::Imputation));
        assert_eq!(c.target_attribute.as_deref(), Some("city"));
        assert!(c.wants_reason);
        assert!(!c.confirm_target);
    }

    #[test]
    fn parses_few_shot_examples() {
        let request = di_request();
        let c = comprehend(&request);
        assert_eq!(c.examples.len(), 1);
        let ex = &c.examples[0];
        assert_eq!(ex.answer, "marietta");
        assert!(ex.reason.as_deref().unwrap().contains("770"));
        assert_eq!(ex.instances.len(), 1);
        assert_eq!(ex.instances[0].get("phone"), Some(Some("770-933-0909")));
    }

    #[test]
    fn parses_batched_questions() {
        let request = di_request();
        let c = comprehend(&request);
        assert_eq!(c.questions.len(), 2);
        assert_eq!(c.questions[0].number, 1);
        assert_eq!(c.questions[1].number, 2);
        assert_eq!(
            c.questions[1].instances[0].get("phone"),
            Some(Some("770-111-2222"))
        );
    }

    #[test]
    fn detects_ed_with_confirmation() {
        let req = ChatRequest::new(vec![
            Message::system(
                "You are requested to detect whether there is an error in the \
                 given attribute of the record. Please confirm the target \
                 attribute in your reason for inference.",
            ),
            Message::user(
                "Question 1: Record is [age: \"250\", sex: \"male\"]. \
                 Is there an error in the \"age\" attribute?",
            ),
        ]);
        let c = comprehend(&req);
        assert_eq!(c.task, Some(TaskKind::ErrorDetection));
        assert!(c.confirm_target);
        assert_eq!(c.questions[0].target_attribute, Some("age"));
    }

    #[test]
    fn detects_matching_tasks() {
        let em = ChatRequest::new(vec![
            Message::system("Decide whether the two given records refer to the same entity."),
            Message::user(
                "Question 1: Record A is [title: \"iphone 12\"]. Record B is \
                 [title: \"apple iphone 12\"]. Do they refer to the same entity?",
            ),
        ]);
        let c = comprehend(&em);
        assert_eq!(c.task, Some(TaskKind::EntityMatching));
        assert_eq!(c.questions[0].instances.len(), 2);

        let sm = ChatRequest::new(vec![
            Message::system("Decide whether the two given attributes refer to the same attribute."),
            Message::user(
                "Question 1: Attribute A is [name: \"zip\", description: \"postal code\"]. \
                 Attribute B is [name: \"postcode\", description: \"zip code of address\"]. \
                 Do they refer to the same attribute?",
            ),
        ]);
        assert_eq!(comprehend(&sm).task, Some(TaskKind::SchemaMatching));
    }

    /// Several system messages read as one text, their join; what is
    /// found in the join is owned, what is found in one message borrowed.
    #[test]
    fn several_system_messages_read_as_their_join() {
        let user = Message::user("Question 1: Record is [hoursperweek: ???].");
        let one = ChatRequest::new(vec![
            Message::system(
                "You are requested to infer the value of the \"hoursperweek\" attribute.\n\
                 The \"hoursperweek\" attribute can be a range of integers.\n\
                 Give the reason first.",
            ),
            user.clone(),
        ]);
        let split = ChatRequest::new(vec![
            Message::system(
                "You are requested to infer the value of the \"hoursperweek\" attribute.",
            ),
            Message::system(
                "The \"hoursperweek\" attribute can be a range of integers.\n\
                 Give the reason first.",
            ),
            user,
        ]);
        let (joined, parts) = (comprehend(&one), comprehend(&split));
        assert_eq!(joined, parts);
        assert_eq!(joined.task, Some(TaskKind::Imputation));
        assert!(joined.wants_reason);
        assert!(matches!(
            joined.target_attribute,
            Some(Cow::Borrowed("hoursperweek"))
        ));
        assert!(matches!(parts.target_attribute, Some(Cow::Owned(_))));
        assert_eq!(parts.type_hint.as_deref(), Some("a range of integers"));
    }

    #[test]
    fn type_hint_extraction() {
        let req = ChatRequest::new(vec![
            Message::system(
                "You are requested to infer the value of the \"hoursperweek\" attribute.\n\
                 The \"hoursperweek\" attribute can be a range of integers.",
            ),
            Message::user("Question 1: Record is [age: \"30\", hoursperweek: ???]."),
        ]);
        let c = comprehend(&req);
        assert_eq!(c.type_hint.as_deref(), Some("a range of integers"));
    }

    #[test]
    fn unnumbered_single_question() {
        let req = ChatRequest::new(vec![
            Message::system("Decide whether the two given records refer to the same entity."),
            Message::user("Record A is [t: \"x\"]. Record B is [t: \"y\"]. Same entity?"),
        ]);
        let c = comprehend(&req);
        assert_eq!(c.questions.len(), 1);
        assert_eq!(c.questions[0].number, 1);
        assert_eq!(c.questions[0].instances.len(), 2);
    }

    #[test]
    fn no_reason_requested() {
        let req = ChatRequest::new(vec![
            Message::system("Answer each question in one line with only \"yes\" or \"no\"."),
            Message::user("Question 1: Record A is [a: \"1\"]. Record B is [a: \"1\"]."),
        ]);
        assert!(!comprehend(&req).wants_reason);
    }

    #[test]
    fn answer_without_reason_parses_single_line() {
        let (reason, answer) = parse_answer_segment("yes");
        assert_eq!(reason, None);
        assert_eq!(answer, "yes");
        let (reason, answer) = parse_answer_segment("Because of X.\nBecause of Y.\nno");
        assert_eq!(reason.as_deref(), Some("Because of X. Because of Y."));
        assert_eq!(answer, "no");
    }

    #[test]
    fn split_numbered_handles_noise() {
        let segs = split_numbered("preamble Question 1: first Question 2: second", "Question ");
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], (1, "first"));
        assert_eq!(segs[1], (2, "second"));
        // "Question" not followed by "<digits>:" is not a marker.
        let segs = split_numbered("the Question here Question 1: real", "Question ");
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 1);
        assert_eq!(segs[0].1, "real");
    }
}
