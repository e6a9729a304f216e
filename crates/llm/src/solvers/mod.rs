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

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::OnceLock;

use crate::comprehend::{ComprehendedPrompt, Question, TaskKind};
use crate::knowledge::{KnowledgeBase, KnownMember, LexiconView, Memorizer};
use crate::profile::ModelProfile;
use crate::rng::gaussian;
use crate::rng::Rng;
use dprep_rng::StableHasher;
use dprep_tabular::context::ParsedInstance;
use dprep_text::normalize_into;

/// One solved question: the final answer line and the reasoning line.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedAnswer {
    /// Final answer ("yes"/"no" for ED/SM/EM, a value for DI).
    pub answer: String,
    /// One-sentence reasoning used when the prompt requests it.
    pub reason: String,
}

/// What one read of a request's prefix (its system and few-shot turns:
/// every message before the questions turn) yields: the instruction, and
/// what the task's solver learns from the examples.
///
/// It owns what it holds, so one reading serves every request whose
/// prefix is byte-identical; a model keeps the last one it built. What the
/// examples teach depends on the model's memorized corpus as well as on
/// the prefix, so a reading is valid for the model that built it.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixReading {
    /// Detected task, if any instruction matched.
    pub task: Option<TaskKind>,
    /// Prompt-level target attribute (per-question attributes override it).
    pub target_attribute: Option<String>,
    /// A data-type hint for imputation (e.g. "a range of integers").
    pub type_hint: Option<String>,
    /// Whether the prompt demands a reasoning line (chain of thought).
    pub wants_reason: bool,
    /// Whether the prompt asks to confirm the target attribute (the ED
    /// safeguard of §3.1).
    pub confirm_target: bool,
    /// Whether the prefix holds few-shot examples.
    pub has_examples: bool,
    lessons: Lessons,
}

/// What the examples teach the solver of the reading's task.
#[derive(Debug, Clone, PartialEq)]
enum Lessons {
    /// No task, so nothing to learn.
    Nothing,
    /// Error detection: the criteria learned for each target the examples
    /// name, in order of first mention.
    Criteria(Vec<(String, ed::LearnedCriteria)>),
    /// Schema or entity matching: the bar the example pairs calibrate.
    Bar(CalibratedBar),
    /// Imputation: the answer prior for each target the examples name.
    Priors(Vec<(String, di::AnswerPrior)>),
}

/// A matching task's yes/no bar as its few-shot pairs calibrate it,
/// before the request's batch shifts it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CalibratedBar {
    /// The calibrated bar.
    pub(crate) bar: f64,
    /// Whether any example pair was scored.
    pub(crate) scored: bool,
}

impl PrefixReading {
    /// What `prefix` (a comprehended prompt; its questions are not read)
    /// teaches a model that memorized `mem`'s share of `kb`.
    pub(crate) fn new(
        prefix: &ComprehendedPrompt<'_>,
        kb: &KnowledgeBase,
        mem: &Memorizer,
    ) -> PrefixReading {
        let examples = &prefix.examples;
        let lessons = match prefix.task {
            Some(TaskKind::ErrorDetection) => Lessons::Criteria(ed::learn_criteria(examples)),
            Some(TaskKind::Imputation) => Lessons::Priors(di::answer_priors(examples)),
            Some(TaskKind::SchemaMatching) => {
                Lessons::Bar(sm::calibrate(kb, mem, examples, prefix.wants_reason))
            }
            Some(TaskKind::EntityMatching) => Lessons::Bar(em::calibrate(kb, mem, examples)),
            None => Lessons::Nothing,
        };
        PrefixReading {
            task: prefix.task,
            target_attribute: prefix.target_attribute.as_deref().map(str::to_string),
            type_hint: prefix.type_hint.as_deref().map(str::to_string),
            wants_reason: prefix.wants_reason,
            confirm_target: prefix.confirm_target,
            has_examples: !examples.is_empty(),
            lessons,
        }
    }

    /// The error criteria the examples teach for `target`: none unless
    /// they name it.
    fn criteria(&self, target: &str) -> Option<&ed::LearnedCriteria> {
        match &self.lessons {
            Lessons::Criteria(learned) => learned
                .iter()
                .find_map(|(t, criteria)| (t == target).then_some(criteria)),
            _ => None,
        }
    }

    /// The matching bar the example pairs calibrate, when the reading's
    /// task is a matching task.
    fn calibrated_bar(&self) -> Option<CalibratedBar> {
        match self.lessons {
            Lessons::Bar(bar) => Some(bar),
            _ => None,
        }
    }

    /// The imputation prior the examples teach for `target`, if any.
    fn answer_prior(&self, target: &str) -> Option<&di::AnswerPrior> {
        match &self.lessons {
            Lessons::Priors(priors) => priors
                .iter()
                .find_map(|(t, prior)| (t == target).then_some(prior)),
            _ => None,
        }
    }
}

/// Everything a solver needs besides the question itself.
pub struct SolverContext<'a> {
    /// The model's capability profile.
    pub profile: &'a ModelProfile,
    /// The model's memorization filter over the corpus.
    pub memorizer: &'a Memorizer,
    /// The world-knowledge corpus.
    pub kb: &'a KnowledgeBase,
    /// The model's view of its memorized lexicons, built on first use by
    /// [`known_lexicon`](SolverContext::known_lexicon).
    pub lexicons: &'a OnceLock<LexiconView>,
    /// The reading of the request's prefix: its instruction and what its
    /// examples teach.
    pub reading: &'a PrefixReading,
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
        self.reading.has_examples
    }

    /// The model's memorized members of `domain`, in corpus order, each
    /// normalized. The first call builds the model's lexicon view.
    pub fn known_lexicon(&self, domain: &str) -> &[KnownMember] {
        self.lexicons
            .get_or_init(|| self.kb.lexicon_view(self.memorizer))
            .members(domain)
    }
}

/// Solves a request's questions in order, each by the task solver
/// detected from the prompt, and pairs every answer with its question
/// number. Questions under an unrecognized task produce a refusal answer.
pub fn solve(
    ctx: &SolverContext<'_>,
    questions: &[Question<'_>],
    rng: &mut Rng,
) -> Vec<(usize, SolvedAnswer)> {
    // The matching tasks' bar depends on the reading and the batch alone,
    // so a request computes it once for all its questions.
    let bar = std::cell::OnceCell::new();
    questions
        .iter()
        .map(|question| {
            let answer = match ctx.reading.task {
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
/// The request's instance values are normalized once, into one buffer.
/// Each distinct word gets an id and each question one bitset row over
/// those ids, so a pair's intersection is a few `AND`s and popcounts. The
/// pairs are summed in the same order, with the same integer counts, as
/// [`WordSet::jaccard`](dprep_text::WordSet::jaccard) over each question's
/// word set, so the result is bit-identical to that form. Word ids are
/// given in order of first occurrence, whatever the map's hasher.
pub fn batch_homogeneity(questions: &[Question<'_>]) -> f64 {
    if questions.len() < 2 {
        return 0.0;
    }
    // Question `q`'s words are the space-separated words of
    // `text[ends[q - 1]..ends[q]]`. Normalizing rarely lengthens a value,
    // so the values' own lengths size the buffer.
    let mut text = String::with_capacity(
        questions
            .iter()
            .flat_map(|q| &q.instances)
            .flat_map(ParsedInstance::values)
            .map(|v| v.len() + 1)
            .sum(),
    );
    let mut ends = Vec::with_capacity(questions.len());
    for question in questions {
        for value in question.instances.iter().flat_map(ParsedInstance::values) {
            normalize_into(value, &mut text);
            text.push(' ');
        }
        ends.push(text.len());
    }
    // Every word is followed by a space, so the spaces bound the words,
    // and the distinct words the map holds. Its keys are short words, on
    // which the workspace's FNV hasher is cheaper than the default SipHash.
    // They come from the request, but only from what fits the model's
    // context window, so words crafted to collide cost at most quadratic
    // time in that many words.
    let words = text.bytes().filter(|&b| b == b' ').count();
    let mut ids: HashMap<&str, usize, BuildHasherDefault<StableHasher>> =
        HashMap::with_capacity_and_hasher(words, BuildHasherDefault::default());
    let mut word_ids = Vec::with_capacity(words);
    let mut id_ends = Vec::with_capacity(questions.len());
    let mut start = 0;
    for &end in &ends {
        for word in text[start..end].split(' ').filter(|w| !w.is_empty()) {
            let next = ids.len();
            word_ids.push(*ids.entry(word).or_insert(next));
        }
        id_ends.push(word_ids.len());
        start = end;
    }
    let width = ids.len().div_ceil(64);
    let mut rows = vec![0u64; questions.len() * width];
    let mut start = 0;
    for (q, &end) in id_ends.iter().enumerate() {
        let row = &mut rows[q * width..(q + 1) * width];
        for &id in &word_ids[start..end] {
            row[id / 64] |= 1 << (id % 64);
        }
        start = end;
    }
    let row = |q: usize| &rows[q * width..(q + 1) * width];
    let sizes: Vec<usize> = (0..questions.len())
        .map(|q| row(q).iter().map(|w| w.count_ones() as usize).sum())
        .collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..questions.len() {
        for j in i + 1..questions.len() {
            total += if sizes[i] == 0 && sizes[j] == 0 {
                1.0
            } else {
                let shared: usize = row(i)
                    .iter()
                    .zip(row(j))
                    .map(|(a, b)| (a & b).count_ones() as usize)
                    .sum();
                shared as f64 / (sizes[i] + sizes[j] - shared) as f64
            };
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
    use std::borrow::Cow;
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
    pub(crate) fn hash_set_overlap(a: &str, b: &str) -> f64 {
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

    /// Jaro-Winkler as it was before its bit-parallel path: both strings'
    /// chars collected, and four more vectors built, per call. The matching
    /// solvers' oracles score with it.
    pub(crate) fn vec_jaro_winkler(a: &str, b: &str) -> f64 {
        let jaro = {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            if a.is_empty() && b.is_empty() {
                1.0
            } else if a.is_empty() || b.is_empty() {
                0.0
            } else {
                let window = (a.len().max(b.len()) / 2).saturating_sub(1);
                let mut b_used = vec![false; b.len()];
                let mut a_matched = vec![false; a.len()];
                let mut matches = 0usize;
                for (i, ca) in a.iter().enumerate() {
                    let lo = i.saturating_sub(window);
                    let hi = (i + window + 1).min(b.len());
                    for j in lo..hi {
                        if !b_used[j] && b[j] == *ca {
                            b_used[j] = true;
                            a_matched[i] = true;
                            matches += 1;
                            break;
                        }
                    }
                }
                if matches == 0 {
                    0.0
                } else {
                    let seq = |s: &[char], m: &[bool]| -> Vec<char> {
                        s.iter()
                            .zip(m)
                            .filter_map(|(c, &m)| m.then_some(*c))
                            .collect()
                    };
                    let (a_seq, b_seq) = (seq(&a, &a_matched), seq(&b, &b_used));
                    let t = a_seq.iter().zip(&b_seq).filter(|(x, y)| x != y).count() / 2;
                    let m = matches as f64;
                    (m / a.len() as f64 + m / b.len() as f64 + (m - t as f64) / m) / 3.0
                }
            }
        };
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        jaro + prefix as f64 * 0.1 * (1.0 - jaro)
    }

    /// A seeded attribute value for the matching solvers' oracles: empty,
    /// a number, or words drawn with repetition from a vocabulary of
    /// aliases, digit-bearing tokens, repeated and non-ASCII characters,
    /// and punctuation, sometimes past 64 bytes.
    pub(crate) fn oracle_value(rng: &mut Rng) -> String {
        const WORDS: &[&str] = &[
            "ipa", "india", "pale", "ale", "co", "company", "v2", "2019", "12gb", "12", "aaaa",
            "a", "bière", "東京", "St.", "O'Hare", "zip", "postal", "code", "birth", "date", "-",
            "(64GB)",
        ];
        match rng.range_usize(0, 10) {
            0 => String::new(),
            1 => format!("{}", rng.range_usize(0, 300)),
            2 => format!("{}.{}", rng.range_usize(0, 9), rng.range_usize(0, 99)),
            _ => (0..rng.range_incl(1usize, 14))
                .map(|_| *rng.choose(WORDS).expect("nonempty"))
                .collect::<Vec<_>>()
                .join(" "),
        }
    }

    /// Homogeneity as the pairwise formula: each question's instance texts
    /// joined, and both texts of every `i < j` pair re-normalized.
    fn pairwise_homogeneity(questions: &[Question<'_>]) -> f64 {
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

    fn question_texts(questions: &[Question<'_>]) -> Vec<String> {
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
    /// missing at random, and values drawn with repetition from words with
    /// case, punctuation and multi-byte variants and from numbered tokens,
    /// so that a large batch holds more than 64, or more than 128, distinct
    /// words (one, two or three bitset words per question). Some questions
    /// repeat an earlier one verbatim.
    fn random_batch(rng: &mut Rng, k: usize) -> Vec<Question<'static>> {
        const NAMES: [&str; 7] = ["a0", "a1", "a2", "a3", "a4", "a5", "a6"];
        const WORDS: &str = "apple|Apple|APPLE!|iphone|12|12gb|café|CAFÉ|cafe|东京|东|é|É|St.|\
                             John's|a-b|new york|New-York|x||  |...|İstanbul|straße";
        let words: Vec<&str> = WORDS.split('|').collect();
        let word = |rng: &mut Rng| {
            if rng.bool(0.7) {
                format!("Tok{}", rng.range_usize(0, 1000))
            } else {
                rng.choose(&words).expect("words").to_string()
            }
        };
        let mut batch: Vec<Question<'static>> = Vec::with_capacity(k);
        for number in 1..=k {
            let instances = match batch.get(rng.range_usize(0, batch.len().max(1))) {
                Some(earlier) if rng.bool(0.2) => earlier.instances.clone(),
                _ => (0..rng.range_incl(1usize, 2))
                    .map(|_| ParsedInstance {
                        fields: (0..rng.range_incl(0usize, 6))
                            .map(|f| {
                                let value = (!rng.bool(0.2)).then(|| {
                                    Cow::Owned(
                                        (0..rng.range_incl(0usize, 8))
                                            .map(|_| word(rng))
                                            .collect::<Vec<_>>()
                                            .join(" "),
                                    )
                                });
                                (NAMES[f], value)
                            })
                            .collect(),
                    })
                    .collect(),
            };
            batch.push(Question {
                number,
                instances,
                target_attribute: None,
            });
        }
        batch
    }

    #[test]
    fn homogeneity_is_bit_equal_to_the_pairwise_hash_set_formula() {
        let mut rng = Rng::seed_from_u64(0x4f0d_7a11);
        // Batches by distinct-word count: up to 64, 65..=128, over 128.
        let mut widths = [0usize; 3];
        for k in 0..=20 {
            for _ in 0..6 {
                let batch = random_batch(&mut rng, k);
                assert_eq!(
                    batch_homogeneity(&batch).to_bits(),
                    pairwise_homogeneity(&batch).to_bits(),
                    "k = {k}: {batch:?}"
                );
                let texts = question_texts(&batch);
                let distinct: HashSet<String> =
                    texts.iter().flat_map(|t| normalized_words(t)).collect();
                widths[(distinct.len().saturating_sub(1) / 64).min(2)] += 1;
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
        assert!(
            widths.iter().all(|&n| n >= 10),
            "batches by width: {widths:?}"
        );
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
        fn make_q(text: &str) -> Question<'_> {
            Question {
                number: 1,
                instances: vec![parse_instance(text).unwrap()],
                target_attribute: None,
            }
        }
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
