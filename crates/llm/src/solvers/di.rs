//! Data-imputation solver.
//!
//! Candidate values for the missing cell are gathered from:
//!
//! * **memorized cues** — phrases in the record's other attributes that the
//!   model's pretraining corpus links to a value of the target attribute
//!   (street names → city, product tokens → manufacturer, phone area codes
//!   → city). These carry most of the signal; an unmemorized cue (coverage
//!   gap) silently contributes nothing, which is how weaker models lose
//!   accuracy here.
//! * **few-shot answer priors** — values answered in the prompt's examples,
//!   weighted by frequency. Weak, but rescues records with no usable cue.
//!
//! When no candidate exists the model *hallucinates*: it answers a fluent,
//! plausible value drawn from its memorized lexicon of the target attribute
//! — exactly the failure mode the paper lists as LLM limitation (2).

use std::collections::HashMap;

use dprep_tabular::context::ParsedInstance;
use dprep_text::normalize;

use crate::comprehend::Question;
use crate::rng::Rng;
use crate::solvers::{SolvedAnswer, SolverContext};

/// A candidate imputation with its evidence weight and provenance phrase.
struct Candidate {
    value: String,
    weight: f64,
    phrase: String,
}

fn phone_prefix(instance: &ParsedInstance<'_>) -> Option<String> {
    for (name, value) in &instance.fields {
        if !name.to_lowercase().contains("phone") {
            continue;
        }
        let Some(value) = value else { continue };
        let digits: String = value.chars().filter(char::is_ascii_digit).collect();
        if digits.len() >= 3 {
            return Some(digits[..3].to_string());
        }
    }
    None
}

/// All 1..=3-word phrases from the instance's non-target fields.
fn evidence_phrases(instance: &ParsedInstance<'_>, target: &str) -> Vec<String> {
    let mut phrases = Vec::new();
    for (name, value) in &instance.fields {
        if *name == target {
            continue;
        }
        let Some(value) = value else { continue };
        let words: Vec<String> = normalize(value)
            .split(' ')
            .filter(|w| !w.is_empty())
            .map(str::to_string)
            .collect();
        for n in 1..=3usize {
            if words.len() < n {
                continue;
            }
            for window in words.windows(n) {
                phrases.push(window.join(" "));
            }
        }
    }
    phrases
}

fn gather_candidates(
    ctx: &SolverContext<'_>,
    question: &Question<'_>,
    target: &str,
) -> Vec<Candidate> {
    let mut candidates: Vec<Candidate> = Vec::new();
    let Some(instance) = question.instances.first() else {
        return candidates;
    };

    // Phone area code → city-like targets.
    if let Some(prefix) = phone_prefix(instance) {
        if let Some(city) = ctx.kb.city_for_area_code(&ctx.memorizer, &prefix) {
            candidates.push(Candidate {
                value: city.to_string(),
                weight: 0.9,
                phrase: format!("the phone area code \"{prefix}\" points to {city}"),
            });
        }
    }

    // Generic memorized cues over the record's phrases.
    for phrase in evidence_phrases(instance, target) {
        if let Some(value) = ctx.kb.cue_value(&ctx.memorizer, target, &phrase) {
            candidates.push(Candidate {
                value: value.to_string(),
                weight: 0.85,
                phrase: format!("\"{phrase}\" is associated with {value}"),
            });
        }
        // Brand facts answer manufacturer-like targets.
        let t = target.to_lowercase();
        if t.contains("manufacturer") || t.contains("brand") {
            if let Some(maker) = ctx.kb.manufacturer_for_token(&ctx.memorizer, &phrase) {
                candidates.push(Candidate {
                    value: maker.to_string(),
                    weight: 0.88,
                    phrase: format!("\"{phrase}\" is a product of {maker}"),
                });
            }
        }
    }

    // Few-shot answer prior.
    if ctx.has_examples() {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        let mut total = 0usize;
        for ex in &ctx.prompt.examples {
            if ex.target_attribute == Some(target) && !ex.answer.is_empty() {
                *counts.entry(ex.answer).or_insert(0) += 1;
                total += 1;
            }
        }
        if let Some((value, count)) = counts.into_iter().max_by_key(|&(v, c)| (c, v)) {
            candidates.push(Candidate {
                weight: 0.2 + 0.2 * (count as f64 / total.max(1) as f64),
                phrase: format!("\"{value}\" is the most common answer in the examples"),
                value: value.to_string(),
            });
        }
    }

    candidates
}

fn hallucinate(ctx: &SolverContext<'_>, target: &str, rng: &mut Rng) -> (String, String) {
    let lexicon = ctx.known_lexicon(target);
    if !lexicon.is_empty() {
        let pick = ctx
            .kb
            .member_value(&lexicon[rng.range_usize(0, lexicon.len())]);
        return (
            pick.to_string(),
            format!("without direct evidence, {pick} is a typical \"{target}\" value"),
        );
    }
    (
        "unknown".into(),
        format!("the record gives no usable evidence for \"{target}\""),
    )
}

/// Formats a numeric answer as a range when the prompt hinted the attribute
/// "can be a range" (§3.1's data-type hint).
fn apply_type_hint(ctx: &SolverContext<'_>, value: &str) -> String {
    let Some(hint) = &ctx.prompt.type_hint else {
        return value.to_string();
    };
    if !hint.to_lowercase().contains("range") {
        return value.to_string();
    }
    match value.trim().parse::<i64>() {
        Ok(n) => format!("{}-{}", n - 2, n + 2),
        Err(_) => value.to_string(),
    }
}

/// Solves one imputation question.
pub fn solve(ctx: &SolverContext<'_>, question: &Question<'_>, rng: &mut Rng) -> SolvedAnswer {
    let target = question
        .target_attribute
        .or(ctx.prompt.target_attribute.as_deref())
        .or_else(|| {
            // Fall back to the instance's missing field.
            question
                .instances
                .first()
                .and_then(|i| i.fields.iter().find(|(_, v)| v.is_none()).map(|(n, _)| *n))
        });
    let Some(target) = target else {
        return SolvedAnswer {
            answer: "unknown".into(),
            reason: "No attribute to impute was specified.".into(),
        };
    };

    let mut candidates = gather_candidates(ctx, question, target);

    // Decision noise perturbs candidate weights — with high noise a weaker
    // candidate (or a hallucination) can win.
    for c in &mut candidates {
        c.weight += ctx.noise(rng);
    }
    candidates.sort_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let (value, phrase) = match candidates.first() {
        // A sufficiently noisy draw abandons evidence for a hallucination.
        Some(best) if best.weight > 0.15 => (best.value.clone(), best.phrase.clone()),
        _ => hallucinate(ctx, target, rng),
    };

    SolvedAnswer {
        answer: apply_type_hint(ctx, &value),
        reason: format!("For \"{target}\": {phrase}."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::{ChatRequest, Message};
    use crate::comprehend::comprehend;
    use crate::knowledge::{Fact, KnowledgeBase, Memorizer};
    use crate::profile::ModelProfile;
    use crate::rng::rng_for;
    use std::sync::OnceLock;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.add(Fact::AreaCode {
            prefix: "770".into(),
            city: "marietta".into(),
        });
        kb.add(Fact::Cue {
            attribute: "city".into(),
            token: "powers ferry".into(),
            value: "marietta".into(),
        });
        kb.add(Fact::Brand {
            token: "thinkpad".into(),
            manufacturer: "lenovo".into(),
        });
        kb.add(Fact::LexiconMember {
            domain: "city".into(),
            value: "atlanta".into(),
        });
        kb
    }

    fn run_with(system: &str, user: &str, kb: &KnowledgeBase, coverage: f64) -> SolvedAnswer {
        let profile = ModelProfile::gpt4();
        let req = ChatRequest::new(vec![Message::system(system), Message::user(user)]);
        let prompt = comprehend(&req);
        let ctx = SolverContext {
            profile: &profile,
            memorizer: Memorizer {
                model_name: profile.name.clone(),
                coverage,
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

    const DI_SYSTEM: &str = "You are requested to infer the value of the \"city\" attribute based \
         on the values of other attributes. MUST answer in two lines; give the \
         reason first.";

    #[test]
    fn imputes_city_from_area_code() {
        let kb = kb();
        let ans = run_with(
            DI_SYSTEM,
            "Question 1: Record is [name: \"carey's corner\", phone: \"770-933-0909\", city: ???]. \
             What is the value of the \"city\" attribute?",
            &kb,
            1.0,
        );
        assert_eq!(ans.answer, "marietta");
        assert!(ans.reason.contains("770"));
    }

    #[test]
    fn imputes_city_from_street_cue() {
        let kb = kb();
        let ans = run_with(
            DI_SYSTEM,
            "Question 1: Record is [addr: \"1215 Powers Ferry Rd.\", city: ???]. \
             What is the value of the \"city\" attribute?",
            &kb,
            1.0,
        );
        assert_eq!(ans.answer, "marietta");
    }

    #[test]
    fn imputes_manufacturer_from_brand_token() {
        let kb = kb();
        let ans = run_with(
            "You are requested to infer the value of the \"manufacturer\" attribute \
             based on the values of other attributes.",
            "Question 1: Record is [name: \"ThinkPad X1 Carbon laptop\", manufacturer: ???]. \
             What is the value of the \"manufacturer\" attribute?",
            &kb,
            1.0,
        );
        assert_eq!(ans.answer, "lenovo");
    }

    #[test]
    fn hallucinates_from_lexicon_without_evidence() {
        let kb = kb();
        let ans = run_with(
            DI_SYSTEM,
            "Question 1: Record is [name: \"mystery diner\", city: ???]. \
             What is the value of the \"city\" attribute?",
            &kb,
            1.0,
        );
        // No cue applies; the model confabulates a known city.
        assert_eq!(ans.answer, "atlanta");
    }

    #[test]
    fn zero_coverage_cannot_use_cues() {
        let kb = kb();
        let ans = run_with(
            DI_SYSTEM,
            "Question 1: Record is [phone: \"770-933-0909\", city: ???]. \
             What is the value of the \"city\" attribute?",
            &kb,
            0.0,
        );
        assert_ne!(ans.answer, "marietta", "unmemorized facts are unusable");
    }

    #[test]
    fn few_shot_prior_rescues_cueless_records() {
        let kb = KnowledgeBase::new();
        let profile = ModelProfile::gpt4();
        let req = ChatRequest::new(vec![
            Message::system(DI_SYSTEM),
            Message::user(
                "Question 1: Record is [name: \"a\", city: ???]. \
                 What is the value of the \"city\" attribute?",
            ),
            Message::assistant("Answer 1: Common pattern.\nsavannah"),
            Message::user(
                "Question 1: Record is [name: \"b\", city: ???]. \
                 What is the value of the \"city\" attribute?",
            ),
        ]);
        let prompt = comprehend(&req);
        let ctx = SolverContext {
            profile: &profile,
            memorizer: Memorizer {
                model_name: profile.name.clone(),
                coverage: 1.0,
                seed: 0,
            },
            kb: &kb,
            lexicons: &OnceLock::new(),
            prompt: &prompt,
            sigma: 0.0,
            homogeneity: 0.0,
            criteria_wander: 0.0,
        };
        let mut rng = rng_for(0, "x");
        let ans = solve(&ctx, &prompt.questions[0], &mut rng);
        assert_eq!(ans.answer, "savannah");
    }

    #[test]
    fn range_hint_formats_numeric_answer() {
        let mut kb = KnowledgeBase::new();
        kb.add(Fact::Cue {
            attribute: "hoursperweek".into(),
            token: "full time".into(),
            value: "40".into(),
        });
        let ans = run_with(
            "You are requested to infer the value of the \"hoursperweek\" attribute. \
             The \"hoursperweek\" attribute can be a range of integers.",
            "Question 1: Record is [status: \"full time\", hoursperweek: ???]. \
             What is the value of the \"hoursperweek\" attribute?",
            &kb,
            1.0,
        );
        assert_eq!(ans.answer, "38-42");
    }
}
