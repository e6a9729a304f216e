//! Error-detection solver.
//!
//! Evidence paths, gated by prompt components (this gating is what produces
//! the paper's Table 2 ablation shape for ED):
//!
//! * **generic suspicion** — always available: blatant garbage strings and
//!   wildly implausible numbers. Weak; alone it yields the low zero-shot F1
//!   the paper reports (25.9 on Adult, 18.4 on Hospital).
//! * **few-shot value sets** — with examples in the prompt, values seen
//!   labeled clean/erroneous are recognized associatively.
//! * **plausible-range / lexicon reasoning** — only when the prompt requests
//!   reasoning (chain of thought): the model checks numeric values against a
//!   memorized or example-derived plausible range, and text values against a
//!   memorized lexicon with typo detection (nearest-member edit distance).
//!
//! The deliberate checks run on every cell, so they are kept cheap. The
//! spell-check compares each word with the common words by an
//! allocation-free one-edit test ([`within_one_edit`]), not an edit-distance
//! table. The lexicon check reads the model's lexicon view, built once per
//! model with every memorized member already normalized
//! ([`SolverContext::known_lexicon`]): it tests membership first, and only a
//! non-member takes one pass over the members for both its most similar
//! member and the one-edit test.
//!
//! Each evidence signal carries its score and a phrase: the values its
//! sentence names, not the sentence. The signals are scored first; only
//! the decisive one's phrase is written, into the one buffer that also
//! holds the target line, with the target and value borrowed from the
//! request.

use std::collections::HashSet;
use std::fmt::Write;

use dprep_text::{normalize, normalized_levenshtein, within_one_edit};

use crate::comprehend::Question;
use crate::knowledge::KnownMember;
use crate::rng::Rng;
use crate::solvers::{SolvedAnswer, SolverContext};

/// Criteria learned from few-shot examples for one target attribute.
#[derive(Debug, Default)]
struct LearnedCriteria {
    clean_values: HashSet<String>,
    error_values: HashSet<String>,
    clean_range: Option<(f64, f64)>,
}

fn learn_criteria(ctx: &SolverContext<'_>, target: &str) -> LearnedCriteria {
    let mut crit = LearnedCriteria::default();
    let mut numeric_clean: Vec<f64> = Vec::new();
    for ex in &ctx.prompt.examples {
        let Some(ex_target) = ex.target_attribute else {
            continue;
        };
        if ex_target != target {
            continue;
        }
        let value = ex
            .instances
            .first()
            .and_then(|i| i.get(ex_target))
            .flatten();
        let Some(value) = value else { continue };
        let is_error = ex.answer.to_lowercase().starts_with('y');
        let norm = normalize(value);
        if is_error {
            crit.error_values.insert(norm);
        } else {
            if let Ok(n) = value.trim().parse::<f64>() {
                numeric_clean.push(n);
            }
            crit.clean_values.insert(norm);
        }
    }
    if numeric_clean.len() >= 2 {
        let min = numeric_clean.iter().copied().fold(f64::INFINITY, f64::min);
        let max = numeric_clean
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        // Generalize beyond the observed examples by a 30% margin.
        let span = (max - min).max(1.0);
        crit.clean_range = Some((min - 0.3 * span, max + 0.3 * span));
    }
    crit
}

/// Heuristic "this string looks like garbage" detector: placeholder junk,
/// lone characters, heavy symbol content, digits inside an alphabetic value.
fn looks_garbage(raw: &str) -> bool {
    let trimmed = raw.trim();
    let Some(first) = trimmed.chars().next() else {
        return false;
    };
    let chars = || trimmed.chars();
    let len = chars().count();
    if len == 1 && first.is_alphabetic() {
        return true;
    }
    // Placeholder symbols; comparison/format characters (<, >, =, %, $, _)
    // are ordinary in data values and do not count.
    let symbolish = chars()
        .filter(|c| matches!(c, '#' | '@' | '!' | '*' | '?' | '^' | '~' | '|'))
        .count();
    if symbolish as f64 / len as f64 > 0.25 {
        return true;
    }
    // Repeated single character ("xxxxx", "#####").
    if len >= 3 && chars().all(|c| c == first) {
        return true;
    }
    let letters = chars().filter(|c| c.is_alphabetic()).count();
    let digits = chars().filter(|c| c.is_ascii_digit()).count();
    // Digits embedded in a mostly alphabetic token (e.g. "mari3tta") —
    // hyphenated or coded labels like "7th-8th" and "ga_pn-3" are ordinary.
    if letters >= 3
        && (1..=2).contains(&digits)
        && !trimmed.contains(' ')
        && !trimmed.contains('-')
        && !trimmed.contains('_')
    {
        return true;
    }
    false
}

/// Common English words any language model can spell-check against.
/// Curated for length (≥ 5 letters) so single-typo neighbourhoods rarely
/// collide with legitimate rare words.
const COMMON_WORDS: &[&str] = &[
    "patients",
    "medical",
    "center",
    "hospital",
    "regional",
    "health",
    "clinic",
    "heart",
    "attack",
    "failure",
    "surgery",
    "surgical",
    "pneumonia",
    "given",
    "discharge",
    "instructions",
    "aspirin",
    "arrival",
    "antibiotics",
    "within",
    "assessment",
    "assessed",
    "influenza",
    "vaccination",
    "received",
    "reliever",
    "medication",
    "hospitalized",
    "oxygenation",
    "blocker",
    "treatment",
    "prevent",
    "blood",
    "clots",
    "children",
    "company",
    "wireless",
    "professional",
    "software",
    "private",
    "county",
    "general",
    "memorial",
    "university",
    "providence",
    "baptist",
    "samaritan",
    "sacred",
    "riverside",
    "mercy",
    "emergency",
    "service",
    "government",
    "proprietary",
    "voluntary",
    "church",
    "access",
    "critical",
    "acute",
    "care",
    "hospitals",
];

/// True when `word` is one character-edit away from a common English word
/// (and is not itself one) — the universal spell-check a language model
/// performs without any dataset-specific knowledge.
fn misspelled_common_word(word: &str) -> bool {
    if word.len() < 4 || COMMON_WORDS.contains(&word) {
        return false;
    }
    // `word` is not a common word, so one edit away means exactly one.
    COMMON_WORDS
        .iter()
        .filter(|c| c.len() >= 5 && c.len().abs_diff(word.len()) <= 1)
        .any(|c| within_one_edit(c, word))
}

/// Universal format checks: `Some(true)` = format violated, `Some(false)` =
/// format satisfied, `None` = no known format applies.
fn format_violation(target: &str, raw: &str) -> Option<bool> {
    // Phone numbers: digits and separators only, 10 digits. The target
    // names a phone when its lowercase form holds "phone"; no non-ASCII
    // character lowercases to one of those letters, so an ASCII
    // case-insensitive search over the bytes is that test.
    if target
        .as_bytes()
        .windows(5)
        .any(|w| w.eq_ignore_ascii_case(b"phone"))
    {
        let digits = raw.chars().filter(char::is_ascii_digit).count();
        let ok = digits == 10
            && raw
                .chars()
                .all(|c| c.is_ascii_digit() || c == '-' || c == ' ' || c == '(' || c == ')');
        return Some(!ok);
    }
    // Percentages: a number (integer or decimal) immediately followed by a
    // trailing % sign.
    if raw.contains('%') {
        let trimmed = raw.trim();
        let ok = trimmed
            .strip_suffix('%')
            .map(|prefix| !prefix.is_empty() && prefix.parse::<f64>().is_ok())
            .unwrap_or(false);
        return Some(!ok);
    }
    None
}

/// Generic plausibility suspicion for a numeric value, with no knowledge of
/// the attribute: only order-of-magnitude weirdness registers.
fn generic_numeric_suspicion(n: f64) -> f64 {
    if !(n.is_finite()) {
        return 0.9;
    }
    if !(0.0..=1.0e6).contains(&n) {
        return 0.70;
    }
    0.15
}

/// What a piece of evidence says, as the values its sentence names.
/// [`Phrase::write`] renders it about the checked value `raw` of the
/// attribute `target`; only the decisive signal's phrase is ever written.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phrase<'a> {
    /// The prior for a number.
    PlausibleNumber(f64),
    /// The prior for garbage.
    Malformed,
    /// The prior for ordinary text.
    OrdinaryText,
    /// The value was labeled erroneous in a few-shot example.
    LabeledErroneous,
    /// The value was labeled clean in a few-shot example.
    LabeledClean,
    /// A universal format check failed.
    FormatViolated,
    /// A universal format check passed.
    WellFormed,
    /// A word of the normalized value misspells a common word.
    MisspelledWord(&'a str),
    /// A number outside the memorized plausible range.
    OutsideRange { n: f64, min: f64, max: f64 },
    /// A number inside the memorized plausible range.
    WithinRange { n: f64, min: f64, max: f64 },
    /// A number outside the range the examples suggest.
    OutsideExampleRange(f64),
    /// A number inside the range the examples suggest.
    WithinExampleRange,
    /// A member of the memorized lexicon.
    KnownMember,
    /// Close to this memorized lexicon member.
    MisspellingOf(&'a str),
    /// A lexicon exists, and the value is not near any member.
    Unrecognized,
}

impl Phrase<'_> {
    /// Appends the phrase to `out`.
    fn write(self, out: &mut String, target: &str, raw: &str) {
        let _ = match self {
            Phrase::PlausibleNumber(n) => {
                write!(out, "the value {n} looks generally plausible as a number")
            }
            Phrase::Malformed => write!(out, "the value {raw:?} looks malformed"),
            Phrase::OrdinaryText => write!(out, "the value {raw:?} reads like ordinary text"),
            Phrase::LabeledErroneous => {
                write!(
                    out,
                    "an identical value was labeled erroneous in the examples"
                )
            }
            Phrase::LabeledClean => {
                write!(out, "an identical value was labeled clean in the examples")
            }
            Phrase::FormatViolated => {
                write!(out, "{raw:?} violates the expected format of \"{target}\"")
            }
            Phrase::WellFormed => write!(out, "{raw:?} is well-formed for \"{target}\""),
            Phrase::MisspelledWord(bad) => {
                write!(out, "\"{bad}\" is a misspelling of a common word")
            }
            Phrase::OutsideRange { n, min, max } => write!(
                out,
                "{n} falls outside the plausible range {min}..{max} for \"{target}\""
            ),
            Phrase::WithinRange { n, min, max } => write!(
                out,
                "{n} is within the plausible range {min}..{max} for \"{target}\""
            ),
            Phrase::OutsideExampleRange(n) => {
                write!(out, "{n} falls outside the range suggested by the examples")
            }
            Phrase::WithinExampleRange => {
                write!(out, "the value is consistent with the examples' range")
            }
            Phrase::KnownMember => write!(out, "{raw:?} is a known legal value of \"{target}\""),
            Phrase::MisspellingOf(member) => {
                write!(out, "{raw:?} looks like a misspelling of {member:?}")
            }
            Phrase::Unrecognized => {
                write!(out, "{raw:?} is not a value of \"{target}\" I recognize")
            }
        };
    }
}

/// One evidence signal: an error score in `[0, 1]` (0.5 = uninformative) and
/// the phrase the reasoning line uses if it decides.
#[derive(Debug, Clone, Copy)]
struct Evidence<'a> {
    score: f64,
    phrase: Phrase<'a>,
}

impl<'a> Evidence<'a> {
    fn new(score: f64, phrase: Phrase<'a>) -> Self {
        Evidence { score, phrase }
    }
}

/// The lexicon check of a non-numeric value whose normalized form is
/// `norm`, when the corpus holds a lexicon for `target`. Lexicon facts are
/// stored raw; the view compares in normalized space so punctuation
/// conventions don't read as misspellings.
fn lexicon_evidence<'c>(ctx: &SolverContext<'c>, target: &str, norm: &str) -> Evidence<'c> {
    let members = ctx.known_lexicon(target);
    if members.iter().any(|member| member.norm == norm) {
        return Evidence::new(0.06, Phrase::KnownMember);
    }
    // One pass for the most similar member (the first, on ties) and for a
    // member one edit away, which catches single-typo corruptions of short
    // values ("9t" for "9th") that relative similarity misses.
    let mut best_sim = 0.0f64;
    let mut best_member: Option<&KnownMember> = None;
    let mut one_edit = false;
    for member in members {
        let sim = normalized_levenshtein(&member.norm, norm);
        if sim > best_sim {
            best_sim = sim;
            best_member = Some(member);
        }
        one_edit = one_edit || within_one_edit(&member.norm, norm);
    }
    if best_sim >= 0.75 || one_edit {
        let member = best_member.map_or("", |m| ctx.kb.member_value(m));
        return Evidence::new(0.9, Phrase::MisspellingOf(member));
    }
    // With examples in the prompt the model has seen that
    // unfamiliar-but-clean values exist, and calibrates its suspicion down.
    Evidence::new(
        if ctx.has_examples() { 0.32 } else { 0.55 },
        Phrase::Unrecognized,
    )
}

/// The superficial prior plus any deeper evidence signals.
struct Assessment<'a> {
    prior: Evidence<'a>,
    evidence: Vec<Evidence<'a>>,
}

/// Scores the value `raw` of `target` (normalized: `norm`); phrases borrow
/// from `norm` and from the corpus.
fn gather_evidence<'a>(
    ctx: &SolverContext<'a>,
    target: &str,
    raw: &str,
    norm: &'a str,
    crit: &LearnedCriteria,
) -> Assessment<'a> {
    let mut evidence = Vec::new();
    let as_number = raw.trim().parse::<f64>().ok();

    // Superficial prior — what the model concludes with no deliberate
    // checking at all.
    let prior = if let Some(n) = as_number {
        Evidence::new(generic_numeric_suspicion(n), Phrase::PlausibleNumber(n))
    } else if looks_garbage(raw) {
        Evidence::new(0.85, Phrase::Malformed)
    } else {
        Evidence::new(0.12, Phrase::OrdinaryText)
    };

    // Few-shot value sets: associative recall, full strength.
    if ctx.has_examples() {
        if crit.error_values.contains(norm) {
            evidence.push(Evidence::new(0.95, Phrase::LabeledErroneous));
        } else if crit.clean_values.contains(norm) {
            evidence.push(Evidence::new(0.05, Phrase::LabeledClean));
        }
    }

    // Deliberate checks (formats, spelling, ranges, lexicons) run at full
    // strength under chain-of-thought reasoning. Few-shot examples alone
    // also activate them — seeing labeled errors primes the model to look —
    // but only associatively: their verdicts are attenuated toward
    // uncertainty.
    let deliberate = ctx.prompt.wants_reason || ctx.has_examples();
    let attenuation = if ctx.prompt.wants_reason { 1.0 } else { 0.45 };
    let before_checks = evidence.len();
    if deliberate {
        match format_violation(target, raw) {
            Some(true) => evidence.push(Evidence::new(0.92, Phrase::FormatViolated)),
            Some(false) => evidence.push(Evidence::new(0.08, Phrase::WellFormed)),
            None => {}
        }
        if as_number.is_none() {
            if let Some(bad) = norm.split(' ').find(|w| misspelled_common_word(w)) {
                evidence.push(Evidence::new(0.88, Phrase::MisspelledWord(bad)));
            }
        }
        if let Some(n) = as_number {
            if let Some((min, max)) = ctx.kb.numeric_range(&ctx.memorizer, target) {
                evidence.push(if n < min || n > max {
                    Evidence::new(0.94, Phrase::OutsideRange { n, min, max })
                } else {
                    Evidence::new(0.07, Phrase::WithinRange { n, min, max })
                });
            } else if let Some((min, max)) = crit.clean_range {
                evidence.push(if n < min || n > max {
                    Evidence::new(0.86, Phrase::OutsideExampleRange(n))
                } else {
                    Evidence::new(0.12, Phrase::WithinExampleRange)
                });
            }
        } else if ctx.kb.has_lexicon(target) {
            evidence.push(lexicon_evidence(ctx, target, norm));
        }
    }

    // Apply the associative attenuation to the deliberate checks.
    for e in evidence.iter_mut().skip(before_checks) {
        e.score = 0.5 + (e.score - 0.5) * attenuation;
    }

    Assessment { prior, evidence }
}

/// Solves one error-detection question.
pub fn solve(ctx: &SolverContext<'_>, question: &Question<'_>, rng: &mut Rng) -> SolvedAnswer {
    let target = question
        .target_attribute
        .or(ctx.prompt.target_attribute.as_deref());
    let Some(target) = target else {
        return SolvedAnswer {
            answer: "no".into(),
            reason: "No target attribute was specified, so I cannot flag an error.".into(),
        };
    };
    let Some(instance) = question.instances.first() else {
        return SolvedAnswer {
            answer: "no".into(),
            reason: "No record was provided.".into(),
        };
    };
    let Some(Some(value)) = instance.get(target) else {
        // A missing cell is not an error in the paper's problem setup.
        return SolvedAnswer {
            answer: "no".into(),
            reason: format!("The \"{target}\" cell is empty rather than erroneous."),
        };
    };

    let crit = learn_criteria(ctx, target);
    let norm = normalize(value);
    let assessment = gather_evidence(ctx, target, value, &norm, &crit);

    // The most decisive deliberate signal wins; with none available the
    // superficial prior decides.
    let decisive = assessment
        .evidence
        .iter()
        .max_by(|a, b| {
            let da = (a.score - 0.5).abs();
            let db = (b.score - 0.5).abs();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
        .filter(|best| (best.score - 0.5).abs() > (assessment.prior.score - 0.5).abs() * 0.3)
        .unwrap_or(&assessment.prior);

    let score = decisive.score + ctx.criteria_wander + ctx.noise(rng);
    let is_error = score > 0.5;

    // The target line, the check's opening and the quoted value are a
    // lower bound of the reason's length: reserved up front, they leave
    // only the phrase to grow the buffer.
    let mut reason = String::with_capacity(
        if ctx.prompt.confirm_target {
            28 + target.len()
        } else {
            0
        } + 26
            + target.len()
            + value.len(),
    );
    if ctx.prompt.confirm_target {
        let _ = write!(reason, "The target attribute is \"{target}\". ");
    }
    let _ = write!(reason, "I checked the \"{target}\" value {value:?}: ");
    decisive.phrase.write(&mut reason, target, value);
    reason.push('.');

    SolvedAnswer {
        answer: if is_error { "yes".into() } else { "no".into() },
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::{ChatRequest, Message};
    use crate::comprehend::comprehend;
    use crate::knowledge::{Fact, KnowledgeBase, Memorizer};
    use crate::profile::ModelProfile;
    use crate::rng::{rng_for, Rng};
    use std::sync::OnceLock;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.add(Fact::NumericRange {
            attribute: "age".into(),
            min: 17.0,
            max: 95.0,
        });
        kb.add(Fact::LexiconMember {
            domain: "city".into(),
            value: "atlanta".into(),
        });
        kb.add(Fact::LexiconMember {
            domain: "city".into(),
            value: "marietta".into(),
        });
        kb
    }

    fn run(system: &str, user: &str, kb: &KnowledgeBase) -> SolvedAnswer {
        let profile = ModelProfile::gpt4();
        let req = ChatRequest::new(vec![Message::system(system), Message::user(user)]);
        let prompt = comprehend(&req);
        let ctx = SolverContext {
            profile: &profile,
            memorizer: Memorizer {
                model_name: profile.name.clone(),
                coverage: 1.0,
                seed: 0,
            },
            kb,
            lexicons: &OnceLock::new(),
            prompt: &prompt,
            sigma: 0.0,
            homogeneity: 0.0,
            criteria_wander: 0.0,
        };
        let mut rng = rng_for(0, user);
        solve(&ctx, &prompt.questions[0], &mut rng)
    }

    const ED_SYSTEM_REASONING: &str =
        "You are requested to detect whether there is an error in the given \
         attribute. MUST answer in two lines; in the first line give the \
         reason for the inference. Please confirm the target attribute in \
         your reason for inference.";

    #[test]
    fn flags_out_of_range_number_with_reasoning() {
        let kb = kb();
        let ans = run(
            ED_SYSTEM_REASONING,
            "Question 1: Record is [age: \"250\", city: \"atlanta\"]. \
             Is there an error in the \"age\" attribute?",
            &kb,
        );
        assert_eq!(ans.answer, "yes");
        assert!(ans.reason.contains("target attribute is \"age\""));
        assert!(ans.reason.contains("plausible range"));
    }

    #[test]
    fn accepts_in_range_number() {
        let kb = kb();
        let ans = run(
            ED_SYSTEM_REASONING,
            "Question 1: Record is [age: \"42\", city: \"atlanta\"]. \
             Is there an error in the \"age\" attribute?",
            &kb,
        );
        assert_eq!(ans.answer, "no");
    }

    #[test]
    fn detects_typo_against_lexicon() {
        let kb = kb();
        let ans = run(
            ED_SYSTEM_REASONING,
            "Question 1: Record is [age: \"42\", city: \"mariettaa\"]. \
             Is there an error in the \"city\" attribute?",
            &kb,
        );
        assert_eq!(ans.answer, "yes");
        assert!(ans.reason.contains("misspelling"));
    }

    #[test]
    fn without_reasoning_misses_range_errors() {
        let kb = kb();
        // 120 is out of the age range but not generically absurd.
        let ans = run(
            "You are requested to detect whether there is an error in the \
             given attribute. Answer with only \"yes\" or \"no\".",
            "Question 1: Record is [age: \"120\", city: \"atlanta\"]. \
             Is there an error in the \"age\" attribute?",
            &kb,
        );
        assert_eq!(
            ans.answer, "no",
            "zero-shot without reasoning is superficial"
        );
    }

    #[test]
    fn missing_cell_is_not_an_error() {
        let kb = kb();
        let ans = run(
            ED_SYSTEM_REASONING,
            "Question 1: Record is [age: ???, city: \"atlanta\"]. \
             Is there an error in the \"age\" attribute?",
            &kb,
        );
        assert_eq!(ans.answer, "no");
    }

    #[test]
    fn garbage_detected_even_without_reasoning() {
        let kb = KnowledgeBase::new();
        let ans = run(
            "You are requested to detect whether there is an error in the \
             given attribute. Answer with only \"yes\" or \"no\".",
            "Question 1: Record is [city: \"#####\"]. \
             Is there an error in the \"city\" attribute?",
            &kb,
        );
        assert_eq!(ans.answer, "yes");
    }

    #[test]
    fn garbage_heuristics() {
        assert!(looks_garbage("x"));
        assert!(looks_garbage("#####"));
        assert!(looks_garbage("mari3tta"));
        assert!(!looks_garbage("new york"));
        assert!(!looks_garbage("770-933-0909"));
        assert!(!looks_garbage("st. john"));
    }

    /// The spell-check in its edit-distance-table form: the reference the
    /// one-edit test must match.
    fn misspelled_common_word_dp(word: &str) -> bool {
        if word.len() < 4 || COMMON_WORDS.contains(&word) {
            return false;
        }
        COMMON_WORDS
            .iter()
            .filter(|c| c.len() >= 5 && c.len().abs_diff(word.len()) <= 1)
            .any(|c| dprep_text::levenshtein(c, word) == 1)
    }

    /// Letters, digits, a hyphen, and four multi-byte chars (é, 东, ß, İ).
    fn edit_alphabet() -> Vec<char> {
        ('a'..='z')
            .chain('0'..='9')
            .chain(['-', '\u{e9}', '\u{4e1c}', '\u{df}', '\u{130}'])
            .collect()
    }

    #[test]
    fn spell_check_matches_its_edit_distance_form() {
        let alphabet = edit_alphabet();
        // Every common word under every single deletion, substitution and
        // insertion, multi-byte ones included.
        let mut words: Vec<String> = Vec::new();
        for common in COMMON_WORDS {
            let chars: Vec<char> = common.chars().collect();
            words.push(common.to_string());
            for at in 0..=chars.len() {
                if at < chars.len() {
                    let mut deleted = chars.clone();
                    deleted.remove(at);
                    words.push(deleted.into_iter().collect());
                }
                for &c in &alphabet {
                    if at < chars.len() {
                        let mut substituted = chars.clone();
                        substituted[at] = c;
                        words.push(substituted.into_iter().collect());
                    }
                    let mut inserted = chars.clone();
                    inserted.insert(at, c);
                    words.push(inserted.into_iter().collect());
                }
            }
        }
        // And random words of up to 13 chars.
        let mut rng = Rng::seed_from_u64(0xed_5e11);
        for _ in 0..20_000 {
            let len = rng.range_incl(0usize, 13);
            words.push(
                (0..len)
                    .map(|_| *rng.choose(&alphabet).expect("nonempty"))
                    .collect(),
            );
        }
        let mut flagged = 0;
        for word in &words {
            let expected = misspelled_common_word_dp(word);
            assert_eq!(misspelled_common_word(word), expected, "{word:?}");
            flagged += usize::from(expected);
        }
        assert!(
            flagged > 10_000,
            "only {flagged} of {} flagged",
            words.len()
        );
    }

    /// An evidence signal with its phrase formatted eagerly, as every
    /// signal's was before phrases became values.
    struct EagerEvidence {
        score: f64,
        phrase: String,
    }

    /// The lexicon check in its two-pass form: every member of the corpus
    /// lexicon filtered by the memorizer and normalized per call, a walk for
    /// membership and the best similarity, then a second walk for the
    /// nearest edit distance. The reference the one-pass check over the
    /// lexicon view must match.
    fn two_pass_lexicon_evidence(
        ctx: &SolverContext<'_>,
        target: &str,
        raw: &str,
    ) -> EagerEvidence {
        let norm = normalize(raw);
        let mut is_member = false;
        let mut best_sim = 0.0f64;
        let mut best_member: Option<String> = None;
        for member in ctx.kb.known_lexicon(&ctx.memorizer, target) {
            let member_norm = normalize(member);
            if member_norm == norm {
                is_member = true;
                break;
            }
            let sim = normalized_levenshtein(&member_norm, &norm);
            if sim > best_sim {
                best_sim = sim;
                best_member = Some(member.to_string());
            }
        }
        let nearest_edit_distance = ctx
            .kb
            .known_lexicon(&ctx.memorizer, target)
            .map(|member| dprep_text::levenshtein(&normalize(member), &norm))
            .min()
            .unwrap_or(usize::MAX);
        if is_member {
            EagerEvidence {
                score: 0.06,
                phrase: format!("{raw:?} is a known legal value of \"{target}\""),
            }
        } else if best_sim >= 0.75 || nearest_edit_distance <= 1 {
            EagerEvidence {
                score: 0.9,
                phrase: format!(
                    "{raw:?} looks like a misspelling of {:?}",
                    best_member.unwrap_or_default()
                ),
            }
        } else {
            EagerEvidence {
                score: if ctx.has_examples() { 0.32 } else { 0.55 },
                phrase: format!("{raw:?} is not a value of \"{target}\" I recognize"),
            }
        }
    }

    /// The garbage heuristic as it read when it collected the value's
    /// characters into a vector first.
    fn collected_looks_garbage(raw: &str) -> bool {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return false;
        }
        let chars: Vec<char> = trimmed.chars().collect();
        if chars.len() == 1 && chars[0].is_alphabetic() {
            return true;
        }
        let symbolish = chars
            .iter()
            .filter(|c| matches!(**c, '#' | '@' | '!' | '*' | '?' | '^' | '~' | '|'))
            .count();
        if symbolish as f64 / chars.len() as f64 > 0.25 {
            return true;
        }
        if chars.len() >= 3 && chars.iter().all(|&c| c == chars[0]) {
            return true;
        }
        let letters = chars.iter().filter(|c| c.is_alphabetic()).count();
        let digits = chars.iter().filter(|c| c.is_ascii_digit()).count();
        letters >= 3
            && (1..=2).contains(&digits)
            && !trimmed.contains(' ')
            && !trimmed.contains('-')
            && !trimmed.contains('_')
    }

    /// The format checks as they read when the target was lowercased to
    /// look for a phone.
    fn lowercased_format_violation(target: &str, raw: &str) -> Option<bool> {
        if target.to_lowercase().contains("phone") {
            let digits = raw.chars().filter(char::is_ascii_digit).count();
            let ok = digits == 10
                && raw
                    .chars()
                    .all(|c| c.is_ascii_digit() || c == '-' || c == ' ' || c == '(' || c == ')');
            return Some(!ok);
        }
        if raw.contains('%') {
            let ok = raw
                .trim()
                .strip_suffix('%')
                .map(|prefix| !prefix.is_empty() && prefix.parse::<f64>().is_ok())
                .unwrap_or(false);
            return Some(!ok);
        }
        None
    }

    /// Evidence gathering with every phrase formatted as it is found, as
    /// it read before phrases became values (the lexicon check in its
    /// two-pass form): the reference for the scores and the written
    /// phrases.
    fn eager_evidence(
        ctx: &SolverContext<'_>,
        target: &str,
        raw: &str,
        crit: &LearnedCriteria,
    ) -> (EagerEvidence, Vec<EagerEvidence>) {
        let e = |score: f64, phrase: String| EagerEvidence { score, phrase };
        let mut evidence = Vec::new();
        let norm = normalize(raw);
        let as_number = raw.trim().parse::<f64>().ok();
        let prior = if let Some(n) = as_number {
            e(
                generic_numeric_suspicion(n),
                format!("the value {n} looks generally plausible as a number"),
            )
        } else if collected_looks_garbage(raw) {
            e(0.85, format!("the value {raw:?} looks malformed"))
        } else {
            e(0.12, format!("the value {raw:?} reads like ordinary text"))
        };
        if ctx.has_examples() {
            if crit.error_values.contains(&norm) {
                evidence.push(e(
                    0.95,
                    "an identical value was labeled erroneous in the examples".into(),
                ));
            } else if crit.clean_values.contains(&norm) {
                evidence.push(e(
                    0.05,
                    "an identical value was labeled clean in the examples".into(),
                ));
            }
        }
        let deliberate = ctx.prompt.wants_reason || ctx.has_examples();
        let attenuation = if ctx.prompt.wants_reason { 1.0 } else { 0.45 };
        let before_checks = evidence.len();
        if deliberate {
            match lowercased_format_violation(target, raw) {
                Some(true) => evidence.push(e(
                    0.92,
                    format!("{raw:?} violates the expected format of \"{target}\""),
                )),
                Some(false) => {
                    evidence.push(e(0.08, format!("{raw:?} is well-formed for \"{target}\"")))
                }
                None => {}
            }
            if as_number.is_none() {
                if let Some(bad) = norm.split(' ').find(|w| misspelled_common_word(w)) {
                    evidence.push(e(
                        0.88,
                        format!("\"{bad}\" is a misspelling of a common word"),
                    ));
                }
            }
            if let Some(n) = as_number {
                if let Some((min, max)) = ctx.kb.numeric_range(&ctx.memorizer, target) {
                    evidence.push(if n < min || n > max {
                        e(
                            0.94,
                            format!(
                                "{n} falls outside the plausible range {min}..{max} for \"{target}\""
                            ),
                        )
                    } else {
                        e(
                            0.07,
                            format!(
                                "{n} is within the plausible range {min}..{max} for \"{target}\""
                            ),
                        )
                    });
                } else if let Some((min, max)) = crit.clean_range {
                    evidence.push(if n < min || n > max {
                        e(
                            0.86,
                            format!("{n} falls outside the range suggested by the examples"),
                        )
                    } else {
                        e(
                            0.12,
                            "the value is consistent with the examples' range".into(),
                        )
                    });
                }
            } else if ctx.kb.has_lexicon(target) {
                evidence.push(two_pass_lexicon_evidence(ctx, target, raw));
            }
        }
        for e in evidence.iter_mut().skip(before_checks) {
            e.score = 0.5 + (e.score - 0.5) * attenuation;
        }
        (prior, evidence)
    }

    fn written(evidence: &Evidence<'_>, target: &str, raw: &str) -> (u64, String) {
        let mut phrase = String::new();
        evidence.phrase.write(&mut phrase, target, raw);
        (evidence.score.to_bits(), phrase)
    }

    #[test]
    fn phrase_values_write_what_the_eager_phrases_said() {
        let profile = ModelProfile::gpt4();
        let mut kb = kb();
        kb.add(Fact::NumericRange {
            attribute: "PHONE".into(),
            min: 0.5,
            max: 1e9,
        });
        let ed = |user: &str| {
            ChatRequest::new(vec![
                Message::system(ED_SYSTEM_REASONING),
                Message::user(user.to_string()),
            ])
        };
        let few_shot = |system: &str| {
            ChatRequest::new(vec![
                Message::system(system.to_string()),
                Message::user(
                    "Question 1: Record is [age: \"250\"]. Is there an error in the \"age\" attribute?\n\
                     Question 2: Record is [age: \"30\"]. Is there an error in the \"age\" attribute?\n\
                     Question 3: Record is [age: \"41.5\"]. Is there an error in the \"age\" attribute?\n\
                     Question 4: Record is [city: \"atlantaa\"]. Is there an error in the \"city\" attribute?",
                ),
                Message::assistant("Answer 1: out of range\nyes\nAnswer 2: fine\nno\nAnswer 3: fine\nno\nAnswer 4: typo\nyes"),
                Message::user("Question 1: Record is [age: \"1\"]."),
            ])
        };
        let requests = [
            ed("Question 1: Record is [age: \"1\"]."),
            ChatRequest::new(vec![
                Message::system("Detect whether there is an error. Answer yes or no."),
                Message::user("Question 1: Record is [age: \"1\"]."),
            ]),
            few_shot(ED_SYSTEM_REASONING),
            few_shot("Detect whether there is an error. Answer yes or no."),
        ];
        let prompts: Vec<_> = requests.iter().map(comprehend).collect();
        // Values: numbers in and out of every range, garbage, ordinary and
        // misspelt text, lexicon members and near misses, phone and
        // percentage formats, escapes, non-ASCII and control characters.
        const VALUES: &[&str] = &[
            "250",
            "30",
            "41.5",
            "-7",
            "1e300",
            "NaN",
            "inf",
            "0.5",
            "12",
            "1e6",
            "1000001",
            "atlanta",
            "atlantaa",
            "marietta",
            "Marietta!",
            "mariettta",
            "x",
            "#####",
            "mari3tta",
            "new york",
            "hospitol care",
            "medicall center",
            "770-933-0909",
            "(770) 933 0909",
            "770-933-090",
            "45%",
            "4.5 %",
            "%",
            "abc%",
            "\"quoted\\",
            "tab\u{b}vt",
            "é",
            "东京",
            "İstanbul",
            "",
            "  ",
            "st. john's",
            "zzz",
            "Q",
            "ab!!",
        ];
        const TARGETS: &[&str] = &[
            "age",
            "city",
            "phone",
            "PHONE",
            "Phone_Number",
            "İphone",
            "ph one",
            "\u{212a}phone",
            "name",
        ];
        let mut rng = Rng::seed_from_u64(0xed_9a5e);
        let mut checked = [0usize; 2];
        for prompt in &prompts {
            for coverage in [0.5, 1.0] {
                let ctx = SolverContext {
                    profile: &profile,
                    memorizer: Memorizer {
                        model_name: profile.name.clone(),
                        coverage,
                        seed: 3,
                    },
                    kb: &kb,
                    lexicons: &OnceLock::new(),
                    prompt,
                    sigma: 0.0,
                    homogeneity: 0.0,
                    criteria_wander: 0.0,
                };
                for &target in TARGETS {
                    let crit = learn_criteria(&ctx, target);
                    let mut values: Vec<String> = VALUES.iter().map(|v| v.to_string()).collect();
                    for _ in 0..20 {
                        let a = *rng.choose(VALUES).expect("nonempty");
                        let b = *rng.choose(VALUES).expect("nonempty");
                        values.push(format!("{a} {b}"));
                    }
                    for raw in &values {
                        let norm = normalize(raw);
                        let got = gather_evidence(&ctx, target, raw, &norm, &crit);
                        let (prior, evidence) = eager_evidence(&ctx, target, raw, &crit);
                        assert_eq!(
                            written(&got.prior, target, raw),
                            (prior.score.to_bits(), prior.phrase),
                            "{target:?} {raw:?}"
                        );
                        let got: Vec<_> = got
                            .evidence
                            .iter()
                            .map(|e| written(e, target, raw))
                            .collect();
                        let want: Vec<_> = evidence
                            .into_iter()
                            .map(|e| (e.score.to_bits(), e.phrase))
                            .collect();
                        assert_eq!(got, want, "{target:?} {raw:?}");
                        checked[usize::from(!want.is_empty())] += 1;
                    }
                }
            }
        }
        assert!(checked.iter().all(|&n| n > 300), "{checked:?}");
    }

    /// Lexicon members: 1–3 chars, non-ASCII, and groups that differ only
    /// in case or punctuation.
    const MEMBERS: &[&str] = &[
        "9th",
        "10th",
        "a",
        "ab",
        "x1",
        "7th-8th",
        "st. louis",
        "st louis",
        "St-Louis",
        "o'hare",
        "ohare",
        "new york",
        "New-York",
        "münchen",
        "東京",
        "İstanbul",
        "straße",
        "são paulo",
        "marietta",
        "atlanta",
        "savannah",
        "--",
    ];

    #[test]
    fn lexicon_check_matches_the_two_pass_form() {
        let profile = ModelProfile::gpt35();
        let question = "Question 1: Record is [city: \"x\"]. \
                        Is there an error in the \"city\" attribute?";
        let zero_shot = ChatRequest::new(vec![
            Message::system(ED_SYSTEM_REASONING),
            Message::user(question),
        ]);
        let zero_shot = comprehend(&zero_shot);
        let few_shot = ChatRequest::new(vec![
            Message::system(ED_SYSTEM_REASONING),
            Message::user(question),
            Message::assistant("Answer 1: The value reads like a city.\nno"),
            Message::user(question),
        ]);
        let few_shot = comprehend(&few_shot);
        assert!(!few_shot.examples.is_empty());
        let alphabet: Vec<char> = edit_alphabet()
            .into_iter()
            .chain(['A', 'Z', '.', '\'', ' '])
            .collect();
        let mut rng = Rng::seed_from_u64(0xed_1e41);
        // Verdict counts: [known member, misspelling, unrecognized].
        let mut verdicts = [0usize; 3];
        for round in 0..12u64 {
            let mut kb = KnowledgeBase::new();
            let mut members: Vec<String> = MEMBERS
                .iter()
                .filter(|_| rng.bool(0.7))
                .map(|m| m.to_string())
                .collect();
            for _ in 0..rng.range_incl(0usize, 8) {
                let len = rng.range_incl(1usize, 6);
                members.push(
                    (0..len)
                        .map(|_| *rng.choose(&alphabet).expect("nonempty"))
                        .collect(),
                );
            }
            rng.shuffle(&mut members);
            for value in &members {
                kb.add(Fact::LexiconMember {
                    domain: "city".into(),
                    value: value.clone(),
                });
            }
            // Values to check: every member, each with one or two random
            // edits, and random strings.
            let mut values: Vec<String> = Vec::new();
            for member in &members {
                values.push(member.clone());
                for edits in 1..=2 {
                    let mut chars: Vec<char> = member.chars().collect();
                    for _ in 0..edits {
                        let c = *rng.choose(&alphabet).expect("nonempty");
                        match rng.range_usize(0, 3) {
                            0 if !chars.is_empty() => {
                                let at = rng.range_usize(0, chars.len());
                                chars[at] = c;
                            }
                            1 if !chars.is_empty() => {
                                chars.remove(rng.range_usize(0, chars.len()));
                            }
                            _ => chars.insert(rng.range_incl(0, chars.len()), c),
                        }
                    }
                    values.push(chars.into_iter().collect());
                }
            }
            for _ in 0..20 {
                let len = rng.range_incl(0usize, 8);
                values.push(
                    (0..len)
                        .map(|_| *rng.choose(&alphabet).expect("nonempty"))
                        .collect(),
                );
            }
            for coverage in [0.55, 1.0] {
                for prompt in [&zero_shot, &few_shot] {
                    let ctx = SolverContext {
                        profile: &profile,
                        memorizer: Memorizer {
                            model_name: profile.name.clone(),
                            coverage,
                            seed: round,
                        },
                        kb: &kb,
                        lexicons: &OnceLock::new(),
                        prompt,
                        sigma: 0.0,
                        homogeneity: 0.0,
                        criteria_wander: 0.0,
                    };
                    for raw in &values {
                        let got = lexicon_evidence(&ctx, "city", &normalize(raw));
                        let want = two_pass_lexicon_evidence(&ctx, "city", raw);
                        assert_eq!(
                            written(&got, "city", raw),
                            (want.score.to_bits(), want.phrase),
                            "{raw:?} against {members:?} at coverage {coverage}"
                        );
                        verdicts[match want.score {
                            0.06 => 0,
                            0.9 => 1,
                            _ => 2,
                        }] += 1;
                    }
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 500), "{verdicts:?}");
    }
}
