//! Per-task internal solvers.
//!
//! Each solver turns one comprehended [`Question`] into an answer plus a
//! natural-language reason, using only:
//!
//! * the question's parsed instances (text the model was shown),
//! * the model's memorized subset of the world-knowledge corpus,
//! * criteria *learned from the few-shot examples in the prompt* (ranges of
//!   clean values, imputation exemplars, matching thresholds),
//! * decision noise scaled by the model's skill, the sampling temperature,
//!   batching, and whether chain-of-thought reasoning was requested.
//!
//! This is where the paper's ablation effects come from mechanistically:
//! few-shot examples calibrate criteria/thresholds, the reasoning
//! instruction enables multi-evidence combination (and makes zero-shot
//! entity matching conservative), and batching adds a small attention
//! penalty offset by intra-batch homogeneity.

pub mod di;
pub mod ed;
pub mod em;
pub mod sm;

use std::sync::OnceLock;

use crate::comprehend::{ComprehendedPrompt, Question, TaskKind};
use crate::knowledge::{KnowledgeBase, KnownMember, LexiconView, Memorizer};
use crate::profile::ModelProfile;
use crate::rng::gaussian;
use crate::rng::Rng;
use dprep_tabular::context::ParsedInstance;
use dprep_text::WordSet;

/// One solved question: the final answer line and the reasoning line.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedAnswer {
    /// Final answer ("yes"/"no" for ED/SM/EM, a value for DI).
    pub answer: String,
    /// One-sentence reasoning used when the prompt requests it.
    pub reason: String,
}

/// Everything a solver needs besides the question itself.
pub struct SolverContext<'a> {
    /// The model's capability profile.
    pub profile: &'a ModelProfile,
    /// The model's memorization filter over the corpus.
    pub memorizer: Memorizer,
    /// The world-knowledge corpus.
    pub kb: &'a KnowledgeBase,
    /// The model's view of its memorized lexicons, built on first use by
    /// [`known_lexicon`](SolverContext::known_lexicon).
    pub lexicons: &'a OnceLock<LexiconView>,
    /// The comprehended prompt (components, examples).
    pub prompt: &'a ComprehendedPrompt,
    /// Effective decision-noise standard deviation for this request.
    pub sigma: f64,
    /// Mean pairwise similarity of the batch's questions (see
    /// [`batch_homogeneity`]). Homogeneous batches make the model answer
    /// familiar structure confidently, relaxing its zero-shot conservatism.
    pub homogeneity: f64,
    /// Per-request wander of the model's error criteria when no few-shot
    /// examples anchor them: zero-shot prompts leave "what counts as an
    /// error" to the model's mood of the moment, so its internal bar
    /// drifts from request to request. Zero when examples are present.
    pub criteria_wander: f64,
}

impl SolverContext<'_> {
    /// A Gaussian noise sample with the context's sigma.
    pub fn noise(&self, rng: &mut Rng) -> f64 {
        gaussian(rng) * self.sigma
    }

    /// True when few-shot examples are present.
    pub fn has_examples(&self) -> bool {
        !self.prompt.examples.is_empty()
    }

    /// The model's memorized members of `domain`, in corpus order, each
    /// normalized. The first call builds the model's lexicon view.
    pub fn known_lexicon(&self, domain: &str) -> &[KnownMember] {
        self.lexicons
            .get_or_init(|| self.kb.lexicon_view(&self.memorizer))
            .members(domain)
    }
}

/// Solves a request's questions in order, each by the task solver
/// detected from the prompt, and pairs every answer with its question
/// number. Questions under an unrecognized task produce a refusal answer.
pub fn solve(
    ctx: &SolverContext<'_>,
    questions: &[Question],
    rng: &mut Rng,
) -> Vec<(usize, SolvedAnswer)> {
    // The matching tasks' bar depends on the request alone: its few-shot
    // pairs are scored once per request, not once per question.
    let bar = std::cell::OnceCell::new();
    questions
        .iter()
        .map(|question| {
            let answer = match ctx.prompt.task {
                Some(TaskKind::ErrorDetection) => ed::solve(ctx, question, rng),
                Some(TaskKind::Imputation) => di::solve(ctx, question, rng),
                Some(TaskKind::SchemaMatching) => {
                    sm::solve(ctx, question, *bar.get_or_init(|| sm::match_bar(ctx)), rng)
                }
                Some(TaskKind::EntityMatching) => {
                    em::solve(ctx, question, *bar.get_or_init(|| em::match_bar(ctx)), rng)
                }
                None => SolvedAnswer {
                    answer: "unclear".into(),
                    reason: "The request does not specify a recognizable task.".into(),
                },
            };
            (question.number, answer)
        })
        .collect()
}

/// Calibrates a yes/no decision threshold from few-shot examples.
///
/// `score_of` computes the solver's own similarity/evidence score for an
/// example; examples answered "yes" should score above the threshold and
/// "no" below. When the examples are separable the threshold is the
/// midpoint of the separating gap; otherwise (or with one-sided examples)
/// the default is nudged toward the observed side.
pub fn calibrate_threshold(
    default: f64,
    examples: &[(f64, bool)], // (score, is_positive)
) -> f64 {
    let mut pos: Vec<f64> = Vec::new();
    let mut neg: Vec<f64> = Vec::new();
    for &(score, positive) in examples {
        if positive {
            pos.push(score);
        } else {
            neg.push(score);
        }
    }
    pos.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    neg.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // Robustify: with four or more examples on a side, ignore its single
    // most extreme one (a lone freak example should not wreck the bar).
    let min_pos: Option<f64> = match pos.len() {
        0 => None,
        1..=3 => Some(pos[0]),
        _ => Some(pos[1]),
    };
    let max_neg: Option<f64> = match neg.len() {
        0 => None,
        1..=3 => Some(neg[neg.len() - 1]),
        _ => Some(neg[neg.len() - 2]),
    };
    match (max_neg, min_pos) {
        (Some(n), Some(p)) if n < p => (n + p) / 2.0,
        (Some(n), Some(p)) => {
            // Overlapping examples: average, pulled toward the default.
            0.5 * ((n + p) / 2.0) + 0.5 * default
        }
        (Some(n), None) => default.max(n + 0.05),
        (None, Some(p)) => default.min(p - 0.05),
        (None, None) => default,
    }
}

/// Mean pairwise token-Jaccard similarity of the questions' instance texts —
/// the "homogeneity" of a batch. Cluster batching raises this, which lowers
/// effective noise (the paper observes the LLM "identifies commonalities in
/// questions and generates consistent solutions").
///
/// Each question's word set is built once per request — `k` builds for a
/// batch of `k` questions, not two per pair — and each pair is one merge of
/// two sorted word lists, so the normalizing and allocating work of a
/// request is linear in its batch.
pub fn batch_homogeneity(questions: &[Question]) -> f64 {
    if questions.len() < 2 {
        return 0.0;
    }
    let sets: Vec<WordSet> = questions
        .iter()
        .map(|q| WordSet::from_texts(q.instances.iter().flat_map(ParsedInstance::values)))
        .collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    for (i, a) in sets.iter().enumerate() {
        for b in &sets[i + 1..] {
            total += a.jaccard(b);
            pairs += 1;
        }
    }
    total / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprep_tabular::context::parse_instance;
    use dprep_text::normalize::normalized_words;
    use dprep_text::{jaccard_tokens, overlap_tokens};
    use std::collections::HashSet;

    /// Word-set Jaccard built from two hash sets per call: the reference
    /// the sorted-merge form must match bit for bit.
    fn hash_set_jaccard(a: &str, b: &str) -> f64 {
        let sa: HashSet<String> = normalized_words(a).into_iter().collect();
        let sb: HashSet<String> = normalized_words(b).into_iter().collect();
        if sa.is_empty() && sb.is_empty() {
            return 1.0;
        }
        sa.intersection(&sb).count() as f64 / sa.union(&sb).count() as f64
    }

    /// Word-set overlap coefficient built from two hash sets per call.
    fn hash_set_overlap(a: &str, b: &str) -> f64 {
        let sa: HashSet<String> = normalized_words(a).into_iter().collect();
        let sb: HashSet<String> = normalized_words(b).into_iter().collect();
        if sa.is_empty() && sb.is_empty() {
            return 1.0;
        }
        if sa.is_empty() || sb.is_empty() {
            return 0.0;
        }
        sa.intersection(&sb).count() as f64 / sa.len().min(sb.len()) as f64
    }

    /// Homogeneity as the pairwise formula: each question's instance texts
    /// joined, and both texts of every `i < j` pair re-normalized.
    fn pairwise_homogeneity(questions: &[Question]) -> f64 {
        if questions.len() < 2 {
            return 0.0;
        }
        let texts = question_texts(questions);
        let mut total = 0.0;
        let mut pairs = 0usize;
        for i in 0..texts.len() {
            for j in (i + 1)..texts.len() {
                total += hash_set_jaccard(&texts[i], &texts[j]);
                pairs += 1;
            }
        }
        total / pairs as f64
    }

    fn question_texts(questions: &[Question]) -> Vec<String> {
        questions
            .iter()
            .map(|q| {
                q.instances
                    .iter()
                    .map(ParsedInstance::flat_text)
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }

    /// A seeded batch of `k` questions: one or two instances each, fields
    /// missing at random, values drawn with repetition from words with
    /// case, punctuation and multi-byte variants, and some questions
    /// repeating an earlier one verbatim.
    fn random_batch(rng: &mut Rng, k: usize) -> Vec<Question> {
        const WORDS: &str = "apple|Apple|APPLE!|iphone|12|12gb|café|CAFÉ|cafe|东京|东|é|É|St.|\
                             John's|a-b|new york|New-York|x||  |...|İstanbul|straße";
        let words: Vec<&str> = WORDS.split('|').collect();
        let mut batch: Vec<Question> = Vec::with_capacity(k);
        for number in 1..=k {
            let instances = match batch.get(rng.range_usize(0, batch.len().max(1))) {
                Some(earlier) if rng.bool(0.2) => earlier.instances.clone(),
                _ => (0..rng.range_incl(1usize, 2))
                    .map(|_| ParsedInstance {
                        fields: (0..rng.range_incl(0usize, 4))
                            .map(|f| {
                                let value = (!rng.bool(0.2)).then(|| {
                                    (0..rng.range_incl(0usize, 5))
                                        .map(|_| *rng.choose(&words).expect("words"))
                                        .collect::<Vec<_>>()
                                        .join(" ")
                                });
                                (format!("a{f}"), value)
                            })
                            .collect(),
                    })
                    .collect(),
            };
            batch.push(Question {
                number,
                instances,
                target_attribute: None,
                text: String::new(),
            });
        }
        batch
    }

    #[test]
    fn homogeneity_is_bit_equal_to_the_pairwise_hash_set_formula() {
        let mut rng = Rng::seed_from_u64(0x4f0d_7a11);
        for k in 0..=20 {
            for _ in 0..6 {
                let batch = random_batch(&mut rng, k);
                assert_eq!(
                    batch_homogeneity(&batch).to_bits(),
                    pairwise_homogeneity(&batch).to_bits(),
                    "k = {k}: {batch:?}"
                );
                let texts = question_texts(&batch);
                for a in &texts {
                    for b in &texts {
                        assert_eq!(
                            jaccard_tokens(a, b).to_bits(),
                            hash_set_jaccard(a, b).to_bits(),
                            "{a:?} vs {b:?}"
                        );
                        assert_eq!(
                            overlap_tokens(a, b).to_bits(),
                            hash_set_overlap(a, b).to_bits(),
                            "{a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_midpoint_when_separable() {
        let t = calibrate_threshold(0.5, &[(0.2, false), (0.3, false), (0.8, true), (0.9, true)]);
        assert!((t - 0.55).abs() < 1e-12);
    }

    #[test]
    fn threshold_one_sided() {
        assert!(calibrate_threshold(0.5, &[(0.7, true)]) <= 0.65);
        assert!(calibrate_threshold(0.5, &[(0.6, false)]) >= 0.65);
        assert_eq!(calibrate_threshold(0.5, &[]), 0.5);
    }

    #[test]
    fn threshold_overlapping_blends_with_default() {
        let t = calibrate_threshold(0.5, &[(0.8, false), (0.4, true)]);
        assert!(t > 0.4 && t < 0.8);
    }

    #[test]
    fn homogeneity_of_similar_batch_is_high() {
        let make_q = |text: &str| Question {
            number: 1,
            instances: vec![parse_instance(text).unwrap()],
            target_attribute: None,
            text: text.to_string(),
        };
        let similar = vec![
            make_q("[title: \"apple iphone 12 black\"]"),
            make_q("[title: \"apple iphone 12 white\"]"),
        ];
        let diverse = vec![
            make_q("[title: \"apple iphone 12 black\"]"),
            make_q("[title: \"garden hose fifty feet\"]"),
        ];
        assert!(batch_homogeneity(&similar) > batch_homogeneity(&diverse));
        assert_eq!(batch_homogeneity(&similar[..1]), 0.0);
    }
}
