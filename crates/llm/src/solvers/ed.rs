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

use std::collections::HashSet;

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
        let ex_target = match &ex.target_attribute {
            Some(t) => t.as_str(),
            None => continue,
        };
        if ex_target != target {
            continue;
        }
        let value = ex
            .instances
            .first()
            .and_then(|i| i.get(ex_target))
            .and_then(|v| v.clone());
        let Some(value) = value else { continue };
        let is_error = ex.answer.to_lowercase().starts_with('y');
        let norm = normalize(&value);
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
    if trimmed.is_empty() {
        return false;
    }
    let chars: Vec<char> = trimmed.chars().collect();
    if chars.len() == 1 && chars[0].is_alphabetic() {
        return true;
    }
    // Placeholder symbols; comparison/format characters (<, >, =, %, $, _)
    // are ordinary in data values and do not count.
    let symbolish = chars
        .iter()
        .filter(|c| matches!(**c, '#' | '@' | '!' | '*' | '?' | '^' | '~' | '|'))
        .count();
    if symbolish as f64 / chars.len() as f64 > 0.25 {
        return true;
    }
    // Repeated single character ("xxxxx", "#####").
    if chars.len() >= 3 && chars.iter().all(|&c| c == chars[0]) {
        return true;
    }
    let letters = chars.iter().filter(|c| c.is_alphabetic()).count();
    let digits = chars.iter().filter(|c| c.is_ascii_digit()).count();
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
    let lower_target = target.to_lowercase();
    // Phone numbers: digits and separators only, 10 digits.
    if lower_target.contains("phone") {
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

/// One evidence signal: an error score in `[0, 1]` (0.5 = uninformative) and
/// the phrase used in the reasoning line.
struct Evidence {
    score: f64,
    phrase: String,
}

/// The lexicon check of a non-numeric value, when the corpus holds a
/// lexicon for `target`. Lexicon facts are stored raw; the view compares in
/// normalized space so punctuation conventions don't read as misspellings.
fn lexicon_evidence(ctx: &SolverContext<'_>, target: &str, raw: &str, norm: &str) -> Evidence {
    let members = ctx.known_lexicon(target);
    if members.iter().any(|member| member.norm == norm) {
        return Evidence {
            score: 0.06,
            phrase: format!("{raw:?} is a known legal value of \"{target}\""),
        };
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
        return Evidence {
            score: 0.9,
            phrase: format!("{raw:?} looks like a misspelling of {member:?}"),
        };
    }
    // With examples in the prompt the model has seen that
    // unfamiliar-but-clean values exist, and calibrates its suspicion down.
    Evidence {
        score: if ctx.has_examples() { 0.32 } else { 0.55 },
        phrase: format!("{raw:?} is not a value of \"{target}\" I recognize"),
    }
}

/// The superficial prior plus any deeper evidence signals.
struct Assessment {
    prior: Evidence,
    evidence: Vec<Evidence>,
}

fn gather_evidence(
    ctx: &SolverContext<'_>,
    target: &str,
    raw: &str,
    crit: &LearnedCriteria,
) -> Assessment {
    let mut evidence = Vec::new();
    let norm = normalize(raw);
    let as_number = raw.trim().parse::<f64>().ok();

    // Superficial prior — what the model concludes with no deliberate
    // checking at all.
    let prior = if let Some(n) = as_number {
        Evidence {
            score: generic_numeric_suspicion(n),
            phrase: format!("the value {n} looks generally plausible as a number"),
        }
    } else if looks_garbage(raw) {
        Evidence {
            score: 0.85,
            phrase: format!("the value {raw:?} looks malformed"),
        }
    } else {
        Evidence {
            score: 0.12,
            phrase: format!("the value {raw:?} reads like ordinary text"),
        }
    };

    // Few-shot value sets: associative recall, full strength.
    if ctx.has_examples() {
        if crit.error_values.contains(&norm) {
            evidence.push(Evidence {
                score: 0.95,
                phrase: "an identical value was labeled erroneous in the examples".into(),
            });
        } else if crit.clean_values.contains(&norm) {
            evidence.push(Evidence {
                score: 0.05,
                phrase: "an identical value was labeled clean in the examples".into(),
            });
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
            Some(true) => evidence.push(Evidence {
                score: 0.92,
                phrase: format!("{raw:?} violates the expected format of \"{target}\""),
            }),
            Some(false) => evidence.push(Evidence {
                score: 0.08,
                phrase: format!("{raw:?} is well-formed for \"{target}\""),
            }),
            None => {}
        }
        if as_number.is_none() {
            if let Some(bad) = norm.split(' ').find(|w| misspelled_common_word(w)) {
                evidence.push(Evidence {
                    score: 0.88,
                    phrase: format!("\"{bad}\" is a misspelling of a common word"),
                });
            }
        }
        if let Some(n) = as_number {
            if let Some((min, max)) = ctx.kb.numeric_range(&ctx.memorizer, target) {
                if n < min || n > max {
                    evidence.push(Evidence {
                        score: 0.94,
                        phrase: format!(
                            "{n} falls outside the plausible range {min}..{max} for \"{target}\""
                        ),
                    });
                } else {
                    evidence.push(Evidence {
                        score: 0.07,
                        phrase: format!(
                            "{n} is within the plausible range {min}..{max} for \"{target}\""
                        ),
                    });
                }
            } else if let Some((min, max)) = crit.clean_range {
                if n < min || n > max {
                    evidence.push(Evidence {
                        score: 0.86,
                        phrase: format!("{n} falls outside the range suggested by the examples"),
                    });
                } else {
                    evidence.push(Evidence {
                        score: 0.12,
                        phrase: "the value is consistent with the examples' range".into(),
                    });
                }
            }
        } else if ctx.kb.has_lexicon(target) {
            evidence.push(lexicon_evidence(ctx, target, raw, &norm));
        }
    }

    // Apply the associative attenuation to the deliberate checks.
    for e in evidence.iter_mut().skip(before_checks) {
        e.score = 0.5 + (e.score - 0.5) * attenuation;
    }

    Assessment { prior, evidence }
}

/// Solves one error-detection question.
pub fn solve(ctx: &SolverContext<'_>, question: &Question, rng: &mut Rng) -> SolvedAnswer {
    let target = question
        .target_attribute
        .clone()
        .or_else(|| ctx.prompt.target_attribute.clone());
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
    let value = match instance.get(&target) {
        Some(Some(v)) => v.clone(),
        // A missing cell is not an error in the paper's problem setup.
        Some(None) | None => {
            return SolvedAnswer {
                answer: "no".into(),
                reason: format!("The \"{target}\" cell is empty rather than erroneous."),
            };
        }
    };

    let crit = learn_criteria(ctx, &target);
    let assessment = gather_evidence(ctx, &target, &value, &crit);

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

    let mut reason = String::new();
    if ctx.prompt.confirm_target {
        reason.push_str(&format!("The target attribute is \"{target}\". "));
    }
    reason.push_str(&format!(
        "I checked the \"{target}\" value {value:?}: {}.",
        decisive.phrase
    ));

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

    /// The lexicon check in its two-pass form: every member of the corpus
    /// lexicon filtered by the memorizer and normalized per call, a walk for
    /// membership and the best similarity, then a second walk for the
    /// nearest edit distance. The reference the one-pass check over the
    /// lexicon view must match.
    fn two_pass_lexicon_evidence(ctx: &SolverContext<'_>, target: &str, raw: &str) -> Evidence {
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
            Evidence {
                score: 0.06,
                phrase: format!("{raw:?} is a known legal value of \"{target}\""),
            }
        } else if best_sim >= 0.75 || nearest_edit_distance <= 1 {
            Evidence {
                score: 0.9,
                phrase: format!(
                    "{raw:?} looks like a misspelling of {:?}",
                    best_member.unwrap_or_default()
                ),
            }
        } else {
            Evidence {
                score: if ctx.has_examples() { 0.32 } else { 0.55 },
                phrase: format!("{raw:?} is not a value of \"{target}\" I recognize"),
            }
        }
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
        let zero_shot = comprehend(&ChatRequest::new(vec![
            Message::system(ED_SYSTEM_REASONING),
            Message::user(question),
        ]));
        let few_shot = comprehend(&ChatRequest::new(vec![
            Message::system(ED_SYSTEM_REASONING),
            Message::user(question),
            Message::assistant("Answer 1: The value reads like a city.\nno"),
            Message::user(question),
        ]));
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
                        let got = lexicon_evidence(&ctx, "city", raw, &normalize(raw));
                        let want = two_pass_lexicon_evidence(&ctx, "city", raw);
                        assert_eq!(
                            (got.score.to_bits(), &got.phrase),
                            (want.score.to_bits(), &want.phrase),
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
