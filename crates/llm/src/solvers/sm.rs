//! Schema-matching solver.
//!
//! Each question presents two attributes as `(name, description)` instances.
//! The match score combines:
//!
//! * name similarity (Jaro-Winkler + token overlap),
//! * description token overlap,
//! * a memorized synonym fact (`zip` ↔ `postal code`), when known.
//!
//! Component gating (reproducing Table 2's SM column): without the
//! reasoning instruction only surface name similarity is used — the model
//! doesn't "think through" descriptions or recall synonymy — and
//! zero-shot reasoning *without* examples makes the model markedly
//! conservative (the paper measures SM collapsing to 5.9 F1 there).
//! Few-shot examples calibrate the decision threshold.

use dprep_tabular::context::ParsedInstance;
use dprep_text::{jaro_winkler, normalize, overlap_tokens};

use crate::comprehend::{Example, Question};
use crate::knowledge::KnowledgeBase;
use crate::knowledge::Memorizer;
use crate::rng::Rng;
use crate::solvers::{calibrate_threshold, CalibratedBar, SolvedAnswer, SolverContext};

/// Name similarity that sees through schema-name conventions: compound
/// words (`birthdate` vs `birth date`), abbreviation prefixes (`addr` vs
/// `address`), and plain token overlap.
fn name_similarity(a: &str, b: &str) -> f64 {
    // Whole-name comparison with spaces removed, by edit distance (not
    // Jaro-Winkler, whose prefix bias confuses birthdate/deathdate).
    let despaced_a: String = a.chars().filter(|c| !c.is_whitespace()).collect();
    let despaced_b: String = b.chars().filter(|c| !c.is_whitespace()).collect();
    let whole = dprep_text::normalized_levenshtein(&despaced_a, &despaced_b);

    // Token overlap where an abbreviation prefix counts as a match
    // ("addr" ~ "address", "marital" ~ "maritalstatus"). Distinct tokens
    // only, capped at 1: duplicated words must not push similarity past
    // certainty ("total charges total costs" vs "total").
    let tokens_a: std::collections::BTreeSet<&str> =
        a.split(' ').filter(|t| !t.is_empty()).collect();
    let tokens_b: std::collections::BTreeSet<&str> =
        b.split(' ').filter(|t| !t.is_empty()).collect();
    let prefix_match = |x: &str, y: &str| {
        x == y || (x.len() >= 3 && y.len() >= 3 && (x.starts_with(y) || y.starts_with(x)))
    };
    let overlap = if tokens_a.is_empty() || tokens_b.is_empty() {
        0.0
    } else {
        let hits = tokens_a
            .iter()
            .filter(|x| tokens_b.iter().any(|y| prefix_match(x, y)))
            .count();
        (hits as f64 / tokens_a.len().min(tokens_b.len()) as f64).min(1.0)
    };
    // Abbreviation containment on the despaced forms.
    let contained = (despaced_a.len() >= 4 && despaced_b.starts_with(&despaced_a))
        || (despaced_b.len() >= 4 && despaced_a.starts_with(&despaced_b));

    let blended = 0.45 * jaro_winkler(a, b) + 0.55 * overlap;
    let mut sim = whole.max(blended);
    if contained {
        sim = sim.max(0.82);
    }
    sim
}

fn field<'a>(instance: &'a ParsedInstance<'_>, name: &str) -> &'a str {
    instance.get(name).flatten().unwrap_or("")
}

/// Match score for two `(name, description)` attribute instances.
pub fn score_pair(
    kb: &KnowledgeBase,
    mem: &Memorizer,
    a: &ParsedInstance<'_>,
    b: &ParsedInstance<'_>,
    use_reasoning: bool,
) -> f64 {
    let name_a = normalize(field(a, "name"));
    let name_b = normalize(field(b, "name"));
    let name_sim = name_similarity(&name_a, &name_b);

    if !use_reasoning {
        return name_sim;
    }

    let desc_a = normalize(field(a, "description"));
    let desc_b = normalize(field(b, "description"));
    let desc_sim = if desc_a.is_empty() || desc_b.is_empty() {
        0.0
    } else {
        overlap_tokens(&desc_a, &desc_b)
    };

    let synonym = kb.are_synonyms(mem, &name_a, &name_b)
        // Names may also be synonymous with the other side's description
        // head (e.g. name "zip" vs description "postal code").
        || kb.are_synonyms(mem, &name_a, &desc_b)
        || kb.are_synonyms(mem, &desc_a, &name_b);

    // A near-identical name is decisive by itself; otherwise names and
    // descriptions share the verdict, and a memorized synonym fact settles
    // cryptic pairs.
    let mut combined = (0.5 * name_sim + 0.5 * desc_sim).max(if name_sim >= 0.85 {
        name_sim - 0.05
    } else {
        0.0
    });
    if synonym {
        combined = combined.max(0.9);
    }
    combined
}

const DEFAULT_THRESHOLD: f64 = 0.60;

/// The bar `examples` calibrate, scored with or without reasoning: each
/// example pair scored, answered "yes" above the bar and "no" below. It
/// draws no randomness, so a model computes it once per prefix (see
/// [`PrefixReading`](crate::solvers::PrefixReading)).
pub(crate) fn calibrate(
    kb: &KnowledgeBase,
    mem: &Memorizer,
    examples: &[Example<'_>],
    use_reasoning: bool,
) -> CalibratedBar {
    let example_scores: Vec<(f64, bool)> = examples
        .iter()
        .filter(|ex| ex.instances.len() >= 2)
        .map(|ex| {
            (
                score_pair(kb, mem, &ex.instances[0], &ex.instances[1], use_reasoning),
                ex.answer.to_lowercase().starts_with('y'),
            )
        })
        .collect();
    // The calibrated bar never drops into triviality: even a model anchored
    // by weak examples keeps some baseline strictness.
    CalibratedBar {
        bar: calibrate_threshold(DEFAULT_THRESHOLD, &example_scores).max(0.45),
        scored: !example_scores.is_empty(),
    }
}

/// The match bar a request's questions are judged against: calibrated on
/// the prompt's few-shot pairs, with zero-shot-reasoning conservatism
/// that the batch's homogeneity softens.
pub fn match_bar(ctx: &SolverContext<'_>) -> f64 {
    let use_reasoning = ctx.reading.wants_reason;
    let CalibratedBar { bar, scored } = ctx
        .reading
        .calibrated_bar()
        .unwrap_or_else(|| calibrate(ctx.kb, ctx.memorizer, &[], use_reasoning));
    let mut threshold = bar;
    if use_reasoning && !scored {
        // Overthinking without anchoring examples: the model talks itself
        // out of almost every correspondence (the paper measures SM
        // collapsing to 5.9 F1 here). Homogeneous batches soften it.
        threshold += 0.38 * (1.0 - ctx.homogeneity).clamp(0.2, 1.0);
    }
    threshold
}

/// Solves one schema-matching question against the request's
/// [`match_bar`].
pub fn solve(
    ctx: &SolverContext<'_>,
    question: &Question<'_>,
    threshold: f64,
    rng: &mut Rng,
) -> SolvedAnswer {
    if question.instances.len() < 2 {
        return SolvedAnswer {
            answer: "no".into(),
            reason: "The question does not contain two attributes to compare.".into(),
        };
    }
    let a = &question.instances[0];
    let b = &question.instances[1];
    let score = score_pair(ctx.kb, ctx.memorizer, a, b, ctx.reading.wants_reason);

    let noisy = score + ctx.noise(rng);
    let is_match = noisy > threshold;

    let name_a = field(a, "name");
    let name_b = field(b, "name");
    let reason = format!(
        "Comparing \"{name_a}\" with \"{name_b}\": similarity {score:.2} \
         against a match bar of {threshold:.2}."
    );

    SolvedAnswer {
        answer: if is_match { "yes".into() } else { "no".into() },
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::{ChatRequest, Message};
    use crate::comprehend::comprehend;
    use crate::knowledge::Fact;
    use crate::profile::ModelProfile;
    use crate::rng::{rng_for, Rng};
    use crate::solvers::tests::{hash_set_overlap, oracle_value, vec_jaro_winkler};
    use crate::solvers::PrefixReading;
    use std::sync::OnceLock;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.add(Fact::AttrSynonym {
            a: "zip".into(),
            b: "postal code".into(),
        });
        kb
    }

    fn solve_one(system: &str, user: &str, kb: &KnowledgeBase) -> SolvedAnswer {
        let profile = ModelProfile::gpt4();
        let req = ChatRequest::new(vec![Message::system(system), Message::user(user)]);
        let prompt = comprehend(&req);
        let memorizer = Memorizer {
            model_name: profile.name.clone(),
            coverage: 1.0,
            seed: 0,
        };
        let reading = PrefixReading::new(&prompt, kb, &memorizer);
        let ctx = SolverContext {
            profile: &profile,
            memorizer: &memorizer,
            kb,
            lexicons: &OnceLock::new(),
            reading: &reading,
            sigma: 0.0,
            homogeneity: 0.0,
            criteria_wander: 0.0,
        };
        let mut rng = rng_for(0, user);
        solve(&ctx, &prompt.questions[0], match_bar(&ctx), &mut rng)
    }

    /// SM's pair score as it was before Jaro-Winkler went bit-parallel and
    /// word-set overlap merged one reused buffer: the same formula on
    /// Jaro-Winkler's vector form and hash-set overlap. The reference the
    /// shipped form must match bit for bit.
    fn owned_score_pair(
        kb: &KnowledgeBase,
        mem: &Memorizer,
        a: &ParsedInstance<'_>,
        b: &ParsedInstance<'_>,
        use_reasoning: bool,
    ) -> f64 {
        let name_similarity = |a: &str, b: &str| {
            let despaced_a: String = a.chars().filter(|c| !c.is_whitespace()).collect();
            let despaced_b: String = b.chars().filter(|c| !c.is_whitespace()).collect();
            let whole = dprep_text::normalized_levenshtein(&despaced_a, &despaced_b);
            let tokens_a: std::collections::BTreeSet<&str> =
                a.split(' ').filter(|t| !t.is_empty()).collect();
            let tokens_b: std::collections::BTreeSet<&str> =
                b.split(' ').filter(|t| !t.is_empty()).collect();
            let prefix_match = |x: &str, y: &str| {
                x == y || (x.len() >= 3 && y.len() >= 3 && (x.starts_with(y) || y.starts_with(x)))
            };
            let overlap = if tokens_a.is_empty() || tokens_b.is_empty() {
                0.0
            } else {
                let hits = tokens_a
                    .iter()
                    .filter(|x| tokens_b.iter().any(|y| prefix_match(x, y)))
                    .count();
                (hits as f64 / tokens_a.len().min(tokens_b.len()) as f64).min(1.0)
            };
            let contained = (despaced_a.len() >= 4 && despaced_b.starts_with(&despaced_a))
                || (despaced_b.len() >= 4 && despaced_a.starts_with(&despaced_b));
            let blended = 0.45 * vec_jaro_winkler(a, b) + 0.55 * overlap;
            let mut sim = whole.max(blended);
            if contained {
                sim = sim.max(0.82);
            }
            sim
        };
        let name_a = normalize(field(a, "name"));
        let name_b = normalize(field(b, "name"));
        let name_sim = name_similarity(&name_a, &name_b);
        if !use_reasoning {
            return name_sim;
        }
        let desc_a = normalize(field(a, "description"));
        let desc_b = normalize(field(b, "description"));
        let desc_sim = if desc_a.is_empty() || desc_b.is_empty() {
            0.0
        } else {
            hash_set_overlap(&desc_a, &desc_b)
        };
        let synonym = kb.are_synonyms(mem, &name_a, &name_b)
            || kb.are_synonyms(mem, &name_a, &desc_b)
            || kb.are_synonyms(mem, &desc_a, &name_b);
        let mut combined = (0.5 * name_sim + 0.5 * desc_sim).max(if name_sim >= 0.85 {
            name_sim - 0.05
        } else {
            0.0
        });
        if synonym {
            combined = combined.max(0.9);
        }
        combined
    }

    #[test]
    fn score_pair_is_bit_equal_to_its_owned_form() {
        let mut kb = kb();
        kb.add(Fact::AttrSynonym {
            a: "birth date".into(),
            b: "dob".into(),
        });
        let mut rng = Rng::seed_from_u64(0x53_0ac1e);
        let mut scored = 0;
        for round in 0..2_000u64 {
            let mem = Memorizer {
                model_name: "m".into(),
                coverage: [0.5, 1.0][(round % 2) as usize],
                seed: round % 3,
            };
            let attribute = |rng: &mut Rng| {
                format!(
                    "[name: {:?}, description: {:?}]",
                    oracle_value(rng),
                    oracle_value(rng)
                )
            };
            let text_a = attribute(&mut rng);
            let text_b = if rng.bool(0.2) {
                text_a.clone()
            } else {
                attribute(&mut rng)
            };
            let a = dprep_tabular::context::parse_instance(&text_a).expect("an instance");
            let b = dprep_tabular::context::parse_instance(&text_b).expect("an instance");
            for reasoning in [false, true] {
                let got = score_pair(&kb, &mem, &a, &b, reasoning);
                let want = owned_score_pair(&kb, &mem, &a, &b, reasoning);
                assert_eq!(got.to_bits(), want.to_bits(), "{text_a} {text_b}");
                scored += 1;
            }
        }
        assert_eq!(scored, 4_000);
    }

    const SM_REASONING: &str =
        "You are requested to decide whether the two given attributes refer to \
         the same attribute. MUST answer in two lines; give the reason first.";

    #[test]
    fn identical_names_match_without_reasoning() {
        let kb = kb();
        let ans = solve_one(
            "You are requested to decide whether the two given attributes refer \
             to the same attribute. Answer with only \"yes\" or \"no\".",
            "Question 1: Attribute A is [name: \"patient id\", description: \"id of patient\"]. \
             Attribute B is [name: \"patient id\", description: \"patient identifier\"]. \
             Do they refer to the same attribute?",
            &kb,
        );
        assert_eq!(ans.answer, "yes");
    }

    #[test]
    fn zero_shot_reasoning_is_ultra_conservative() {
        // The paper's Table 2 shows SM collapsing to 5.9 F1 under zero-shot
        // chain of thought: without anchoring examples the model refuses
        // nearly every correspondence — even identically named attributes.
        let kb = kb();
        let ans = solve_one(
            SM_REASONING,
            "Question 1: Attribute A is [name: \"patient id\", description: \"id of patient\"]. \
             Attribute B is [name: \"patient id\", description: \"patient identifier\"]. \
             Do they refer to the same attribute?",
            &kb,
        );
        assert_eq!(ans.answer, "no");
    }

    #[test]
    fn synonym_fact_bridges_dissimilar_names_with_anchored_reasoning() {
        // With a few-shot example anchoring the bar, reasoning + the
        // memorized synonym fact carries the cryptic pair.
        let kb = kb();
        let profile = ModelProfile::gpt4();
        let req = ChatRequest::new(vec![
            Message::system(SM_REASONING),
            Message::user(
                "Question 1: Attribute A is [name: \"birth date\", description: \"date of birth\"]. \
                 Attribute B is [name: \"dob\", description: \"date the person was born\"]. \
                 Do they refer to the same attribute?\n\
                 Question 2: Attribute A is [name: \"city\", description: \"city of residence\"]. \
                 Attribute B is [name: \"device id\", description: \"identifier of the device\"]. \
                 Do they refer to the same attribute?",
            ),
            Message::assistant(
                "Answer 1: Both denote the date of birth.\nyes\n\
                 Answer 2: A city and a device identifier are unrelated.\nno",
            ),
            Message::user(
                "Question 1: Attribute A is [name: \"zip\", description: \"code\"]. \
                 Attribute B is [name: \"postal code\", description: \"mailing code\"]. \
                 Do they refer to the same attribute?",
            ),
        ]);
        let prompt = comprehend(&req);
        let memorizer = Memorizer {
            model_name: profile.name.clone(),
            coverage: 1.0,
            seed: 0,
        };
        let reading = PrefixReading::new(&prompt, &kb, &memorizer);
        let ctx = SolverContext {
            profile: &profile,
            memorizer: &memorizer,
            kb: &kb,
            lexicons: &OnceLock::new(),
            reading: &reading,
            sigma: 0.0,
            homogeneity: 0.0,
            criteria_wander: 0.0,
        };
        let mut rng = rng_for(0, "anchored");
        let ans = solve(&ctx, &prompt.questions[0], match_bar(&ctx), &mut rng);
        assert_eq!(ans.answer, "yes");
    }

    #[test]
    fn without_reasoning_synonyms_are_missed() {
        let kb = kb();
        let ans = solve_one(
            "You are requested to decide whether the two given attributes refer \
             to the same attribute. Answer with only \"yes\" or \"no\".",
            "Question 1: Attribute A is [name: \"zip\", description: \"code\"]. \
             Attribute B is [name: \"postal code\", description: \"mailing code\"]. \
             Do they refer to the same attribute?",
            &kb,
        );
        assert_eq!(ans.answer, "no");
    }

    #[test]
    fn unrelated_attributes_do_not_match() {
        let kb = kb();
        let ans = solve_one(
            SM_REASONING,
            "Question 1: Attribute A is [name: \"birth date\", description: \"date of birth\"]. \
             Attribute B is [name: \"diagnosis\", description: \"primary condition code\"]. \
             Do they refer to the same attribute?",
            &kb,
        );
        assert_eq!(ans.answer, "no");
    }

    #[test]
    fn similarity_is_bounded_even_with_duplicate_tokens() {
        // "total charges / total costs" has the token "total" twice; the
        // score must stay in [0, 1] rather than blasting past any bar.
        let kb = KnowledgeBase::new();
        let mem = Memorizer {
            model_name: "m".into(),
            coverage: 1.0,
            seed: 0,
        };
        let a = dprep_tabular::context::parse_instance(
            "[name: \"total charges total costs\", description: \"sum\"]",
        )
        .unwrap();
        let b =
            dprep_tabular::context::parse_instance("[name: \"total\", description: \"unrelated\"]")
                .unwrap();
        for reasoning in [false, true] {
            let s = score_pair(&kb, &mem, &a, &b, reasoning);
            assert!((0.0..=1.0).contains(&s), "score {s} out of bounds");
        }
    }

    #[test]
    fn malformed_question_defaults_to_no() {
        let kb = kb();
        let ans = solve_one(
            SM_REASONING,
            "Question 1: Attribute A is [name: \"x\"].",
            &kb,
        );
        assert_eq!(ans.answer, "no");
    }
}
