//! Response rendering and mechanistic failure injection.
//!
//! Real LLMs fail in structured ways the paper has to engineer around:
//! they break the requested answer format, drift onto the wrong attribute,
//! misalign answers within a batch, or skip questions. This module injects
//! those failures with probabilities derived from the model profile, then
//! renders the final completion text.

use crate::comprehend::TaskKind;
use crate::profile::ModelProfile;
use crate::rng::Rng;
use crate::solvers::SolvedAnswer;

/// One answer slot in the completion.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerSegment {
    /// Question number this segment answers.
    pub number: usize,
    /// The (possibly failure-mutated) solved answer.
    pub solved: SolvedAnswer,
    /// When true the segment is rendered as free-form rambling without the
    /// `Answer N:` marker, making it unparseable downstream.
    pub garbled: bool,
}

/// Per-task format adherence from the profile.
fn format_adherence(profile: &ModelProfile, task: Option<TaskKind>) -> f64 {
    match task {
        Some(TaskKind::ErrorDetection) => profile.format_adherence.ed,
        Some(TaskKind::Imputation) => profile.format_adherence.di,
        Some(TaskKind::SchemaMatching) => profile.format_adherence.sm,
        Some(TaskKind::EntityMatching) => profile.format_adherence.em,
        None => profile.format_adherence.em.min(profile.format_adherence.ed),
    }
}

/// Builds answer segments from solved answers, injecting failures:
///
/// * **format violations** — per-question, probability
///   `(1 - adherence) × (0.6 + 0.8 × context_fill)`: small models degrade
///   further as the prompt approaches their context window,
/// * **batch misalignment** — adjacent answer swap, probability
///   `(1 - instruction_following) × (k - 1) × 0.08` per request,
/// * **skipped answers** — the trailing question is dropped with
///   probability `(1 - instruction_following) × k × 0.02`.
pub fn plan_response(
    profile: &ModelProfile,
    task: Option<TaskKind>,
    mut answers: Vec<(usize, SolvedAnswer)>,
    context_fill: f64,
    rng: &mut Rng,
) -> Vec<AnswerSegment> {
    let k = answers.len();
    let miss_instr = 1.0 - profile.instruction_following;

    // Batch misalignment: swap one adjacent pair.
    if k >= 2 {
        let p_swap = (miss_instr * (k as f64 - 1.0) * 0.08).min(0.5);
        if rng.f64() < p_swap {
            let at = rng.range_usize(0, k - 1);
            let (left, right) = (answers[at].0, answers[at + 1].0);
            answers.swap(at, at + 1);
            answers[at].0 = left;
            answers[at + 1].0 = right;
        }
    }

    // Skipped trailing answer.
    if k >= 2 {
        let p_skip = (miss_instr * k as f64 * 0.02).min(0.3);
        if rng.f64() < p_skip {
            answers.pop();
        }
    }

    let adherence = format_adherence(profile, task);
    let p_garble =
        ((1.0 - adherence) * (0.6 + 0.8 * context_fill.clamp(0.0, 1.0))).clamp(0.0, 0.98);

    answers
        .into_iter()
        .map(|(number, solved)| AnswerSegment {
            number,
            solved,
            garbled: rng.f64() < p_garble,
        })
        .collect()
}

/// The rambling that stands in for a garbled segment's answer, around its
/// ordinal and its answer.
const RAMBLE: [&str; 3] = [
    "Well, regarding the ",
    " question, it is hard to say definitively without more context. \
     One might lean toward ",
    " but several caveats apply, and overall I would want to verify further.\n",
];

/// Renders the final completion text.
///
/// Well-formed segments follow the requested format (`Answer N:` plus a
/// reasoning line when chain-of-thought was requested). Garbled segments
/// ramble without the marker so downstream parsing fails, as a misbehaving
/// model's output would.
pub fn render(wants_reason: bool, segments: &[AnswerSegment]) -> String {
    use std::fmt::Write;
    // Writing segments straight into one buffer, sized for every line up
    // front, keeps this on the dispatch hot path free of per-answer
    // temporaries and of regrowth: a million-row run renders tens of
    // millions of answer lines through here. `Answer N: ` and the line
    // ends fit in 24 bytes for any N below 10^13, and an ordinal in 22.
    let ramble: usize = RAMBLE.iter().map(|piece| piece.len()).sum();
    let capacity = segments
        .iter()
        .map(|s| {
            let answer = s.solved.answer.len();
            if s.garbled {
                ramble + 22 + answer
            } else if wants_reason {
                24 + s.solved.reason.len() + answer
            } else {
                24 + answer
            }
        })
        .sum();
    let mut out = String::with_capacity(capacity);
    // Rambling about garbled questions comes first, as unstructured
    // preamble: text before the first `Answer N:` marker is ignored by
    // parsers, so a garble costs exactly its own answer slot. (Appended
    // after a well-formed segment it would be absorbed into *that*
    // segment and corrupt a correctly answered question.)
    for seg in segments.iter().filter(|s| s.garbled) {
        let [opening, middle, closing] = RAMBLE;
        let _ = write!(
            out,
            "{opening}{}{middle}{}{closing}",
            Ordinal(seg.number),
            seg.solved.answer
        );
    }
    for seg in segments.iter().filter(|s| !s.garbled) {
        if wants_reason {
            let _ = writeln!(
                out,
                "Answer {}: {}\n{}",
                seg.number, seg.solved.reason, seg.solved.answer
            );
        } else {
            let _ = writeln!(out, "Answer {}: {}", seg.number, seg.solved.answer);
        }
    }
    if out.is_empty() {
        out.push_str("I could not find any questions to answer in the prompt.\n");
    }
    out
}

/// `Display` for an ordinal word ("first") or suffix form ("7th"),
/// formatted in place without allocating.
struct Ordinal(usize);

impl std::fmt::Display for Ordinal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            1 => f.write_str("first"),
            2 => f.write_str("second"),
            3 => f.write_str("third"),
            n => write!(f, "{n}th"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::{ChatRequest, Message};
    use crate::comprehend::comprehend;
    use crate::rng::rng_for;

    fn em_request(reason: bool) -> ChatRequest {
        let system = if reason {
            "Decide whether the two given records refer to the same entity. \
             MUST answer in two lines; give the reason first."
        } else {
            "Decide whether the two given records refer to the same entity."
        };
        ChatRequest::new(vec![
            Message::system(system),
            Message::user("Question 1: Record A is [t: \"x\"]. Record B is [t: \"x\"]."),
        ])
    }

    fn solved(answer: &str) -> SolvedAnswer {
        SolvedAnswer {
            answer: answer.into(),
            reason: "Because.".into(),
        }
    }

    #[test]
    fn renders_two_line_format_with_reasoning() {
        let request = em_request(true);
        let prompt = comprehend(&request);
        let segs = vec![AnswerSegment {
            number: 1,
            solved: solved("yes"),
            garbled: false,
        }];
        let text = render(prompt.wants_reason, &segs);
        assert_eq!(text, "Answer 1: Because.\nyes\n");
    }

    #[test]
    fn renders_single_line_without_reasoning() {
        let request = em_request(false);
        let prompt = comprehend(&request);
        let segs = vec![AnswerSegment {
            number: 2,
            solved: solved("no"),
            garbled: false,
        }];
        assert_eq!(render(prompt.wants_reason, &segs), "Answer 2: no\n");
    }

    #[test]
    fn garble_does_not_corrupt_the_neighboring_answer() {
        // A garbled slot must cost exactly its own answer: the adjacent
        // well-formed answers still parse to their solved values.
        let request = em_request(true);
        let prompt = comprehend(&request);
        let segs = vec![
            AnswerSegment {
                number: 1,
                solved: solved("yes"),
                garbled: false,
            },
            AnswerSegment {
                number: 2,
                solved: solved("no"),
                garbled: true,
            },
            AnswerSegment {
                number: 3,
                solved: solved("no"),
                garbled: false,
            },
        ];
        let text = render(prompt.wants_reason, &segs);
        let parsed = dprep_prompt::parse_response(&text, true);
        assert_eq!(parsed.len(), 2, "{text}");
        assert_eq!(parsed[&1].value, "yes");
        assert_eq!(parsed[&3].value, "no");
        assert!(!parsed.contains_key(&2));
    }

    #[test]
    fn garbled_segments_lack_the_marker() {
        let request = em_request(true);
        let prompt = comprehend(&request);
        let segs = vec![AnswerSegment {
            number: 1,
            solved: solved("yes"),
            garbled: true,
        }];
        let text = render(prompt.wants_reason, &segs);
        assert!(!text.contains("Answer 1:"));
    }

    #[test]
    fn reliable_model_rarely_garbles() {
        let profile = crate::profile::ModelProfile::gpt4();
        let request = em_request(true);
        let prompt = comprehend(&request);
        let mut garbled = 0;
        for i in 0..200 {
            let mut rng = rng_for(i, "seed");
            let segs = plan_response(
                &profile,
                prompt.task,
                vec![(1, solved("yes"))],
                0.1,
                &mut rng,
            );
            if segs.iter().any(|s| s.garbled) {
                garbled += 1;
            }
        }
        assert!(garbled <= 4, "garbled {garbled}/200");
    }

    #[test]
    fn weak_model_garbles_freeform_tasks() {
        let profile = crate::profile::ModelProfile::vicuna13b();
        let request = ChatRequest::new(vec![
            Message::system(
                "You are requested to infer the value of the \"city\" attribute. \
                 MUST answer in two lines; give the reason first.",
            ),
            Message::user("Question 1: Record is [city: ???]."),
        ]);
        let prompt = comprehend(&request);
        let mut garbled = 0;
        for i in 0..200 {
            let mut rng = rng_for(i, "seed");
            let segs = plan_response(
                &profile,
                prompt.task,
                vec![(1, solved("atlanta"))],
                0.3,
                &mut rng,
            );
            if segs.iter().any(|s| s.garbled) {
                garbled += 1;
            }
        }
        assert!(garbled > 100, "garbled {garbled}/200");
    }

    #[test]
    fn empty_answers_render_fallback() {
        let request = em_request(false);
        let prompt = comprehend(&request);
        let text = render(prompt.wants_reason, &[]);
        assert!(text.contains("could not find"));
    }

    #[test]
    fn context_pressure_increases_garbling() {
        let profile = crate::profile::ModelProfile::vicuna13b();
        let request = em_request(false);
        let prompt = comprehend(&request);
        let count_garbled = |fill: f64| {
            (0..300)
                .filter(|&i| {
                    let mut rng = rng_for(i, "fill");
                    plan_response(
                        &profile,
                        prompt.task,
                        vec![(1, solved("yes"))],
                        fill,
                        &mut rng,
                    )
                    .iter()
                    .any(|s| s.garbled)
                })
                .count()
        };
        assert!(count_garbled(0.9) > count_garbled(0.05));
    }
}
