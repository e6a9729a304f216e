//! Entity-matching solver.
//!
//! Each question presents two records. The solver aligns attributes by
//! name, scores each aligned pair (numeric relative difference or a
//! Jaro-Winkler/token-overlap blend after alias canonicalization through the
//! memorized corpus), and takes a length-weighted mean — long textual
//! attributes such as product titles dominate, mirroring how humans (and
//! LLMs) match entities.
//!
//! Threshold behaviour reproduces the paper's EM observations: few-shot
//! examples calibrate it per dataset; the reasoning instruction makes the
//! model slightly conservative (Table 2 shows chain-of-thought *not*
//! helping EM and often hurting), much more so when no examples anchor it.
//! Feature selection needs no special code: the solver only sees attributes
//! present in the prompt, so dropping noisy attributes mechanically raises
//! accuracy.

use std::cell::RefCell;

use dprep_tabular::context::ParsedInstance;
use dprep_text::{jaro_winkler, normalize_into, overlap_tokens};

use crate::comprehend::{Example, Question};
use crate::knowledge::{KnowledgeBase, Memorizer};
use crate::rng::Rng;
use crate::solvers::{calibrate_threshold, CalibratedBar, SolvedAnswer, SolverContext};

/// Writes `raw` into `out` with every word canonicalized through the
/// model's memorized aliases (`ipa` → `india pale ale`), so known
/// abbreviation variants score as equal: `raw` normalized into `norm`,
/// then its words, each canonicalized, joined by spaces.
fn canonical_text_into(
    kb: &KnowledgeBase,
    mem: &Memorizer,
    raw: &str,
    norm: &mut String,
    out: &mut String,
) {
    norm.clear();
    normalize_into(raw, norm);
    out.clear();
    for (i, word) in norm.split(' ').filter(|w| !w.is_empty()).enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(kb.canonicalize(mem, word).unwrap_or(word));
    }
}

/// Digit-bearing tokens of a normalized string (version years, model
/// numbers) — the tokens that distinguish products within one line.
fn numeric_tokens(s: &str) -> impl Iterator<Item = &str> + Clone {
    s.split(' ')
        .filter(|w| w.bytes().any(|c| c.is_ascii_digit()))
}

/// True when both strings carry number-bearing tokens and none of them
/// is shared.
fn numbers_disagree(a: &str, b: &str) -> bool {
    let (na, nb) = (numeric_tokens(a), numeric_tokens(b));
    na.clone().next().is_some()
        && nb.clone().next().is_some()
        && na.clone().all(|x| nb.clone().all(|y| x != y))
}

fn value_similarity(kb: &KnowledgeBase, mem: &Memorizer, a: &str, b: &str, contrast: f64) -> f64 {
    if let (Ok(x), Ok(y)) = (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        let denom = x.abs().max(y.abs()).max(1.0);
        return (1.0 - (x - y).abs() / denom).max(0.0);
    }
    thread_local! {
        /// A normalization scratch and both values' canonical texts,
        /// reused from pair to pair.
        static TEXTS: RefCell<[String; 3]> = RefCell::default();
    }
    TEXTS.with_borrow_mut(|[norm, ca, cb]| {
        canonical_text_into(kb, mem, a, norm, ca);
        canonical_text_into(kb, mem, b, norm, cb);
        if ca.is_empty() && cb.is_empty() {
            return 1.0;
        }
        let mut sim = 0.45 * jaro_winkler(ca, cb) + 0.55 * overlap_tokens(ca, cb);
        // Disagreeing *number-bearing* tokens — version years, model
        // numbers, times — are identity-breaking, and a matcher notices
        // them even when everything else lines up. Inside a homogeneous
        // batch (cluster batching) the model contrasts look-alike
        // questions and the penalty sharpens further — the mechanism
        // behind the paper's random→cluster F1 gain.
        if numbers_disagree(ca, cb) {
            sim *= (0.75 - 0.5 * contrast).clamp(0.3, 1.0);
        }
        sim
    })
}

/// Match score for two record instances in `[0, 1]`.
///
/// `contrast` (0 = none) sharpens attention to conflicting numeric tokens;
/// the model applies its batch homogeneity here.
pub fn score_pair_with_contrast(
    kb: &KnowledgeBase,
    mem: &Memorizer,
    a: &ParsedInstance<'_>,
    b: &ParsedInstance<'_>,
    contrast: f64,
) -> f64 {
    let mut total = 0.0;
    let mut weight_sum = 0.0;
    for (name, va) in &a.fields {
        let Some(va) = va else { continue };
        let Some(Some(vb)) = b.get(name) else {
            continue;
        };
        let sim = value_similarity(kb, mem, va, vb, contrast);
        // Long text fields (titles) carry more identity signal.
        let words = va
            .split_whitespace()
            .count()
            .max(vb.split_whitespace().count());
        let mut weight = 1.0 + (words.min(8) as f64) * 0.5;
        // Identifier-like fields (single digit-bearing tokens: model
        // numbers, catalog ids) pin identity: a matcher attends to them
        // far beyond their length.
        let id_like = |v: &str| {
            let mut it = v.split_whitespace();
            // Letters AND digits: "wh-1000xm4", "ab123" — but not plain
            // numbers or percentages (prices, ABVs, years).
            matches!((it.next(), it.next()), (Some(tok), None)
                if tok.chars().any(|c| c.is_ascii_digit())
                    && tok.chars().any(|c| c.is_alphabetic()))
        };
        if id_like(va) && id_like(vb) {
            weight += 3.0;
        }
        total += sim * weight;
        weight_sum += weight;
    }
    if weight_sum == 0.0 {
        return 0.0;
    }
    total / weight_sum
}

/// Match score for two record instances in `[0, 1]` (no contrast).
pub fn score_pair(
    kb: &KnowledgeBase,
    mem: &Memorizer,
    a: &ParsedInstance<'_>,
    b: &ParsedInstance<'_>,
) -> f64 {
    score_pair_with_contrast(kb, mem, a, b, 0.0)
}

const DEFAULT_THRESHOLD: f64 = 0.75;

/// The bar `examples` calibrate: each example pair scored, answered
/// "yes" above the bar and "no" below. It draws no randomness, so a
/// model computes it once per prefix (see
/// [`PrefixReading`](crate::solvers::PrefixReading)).
pub(crate) fn calibrate(
    kb: &KnowledgeBase,
    mem: &Memorizer,
    examples: &[Example<'_>],
) -> CalibratedBar {
    let example_scores: Vec<(f64, bool)> = examples
        .iter()
        .filter(|ex| ex.instances.len() >= 2)
        .map(|ex| {
            (
                score_pair(kb, mem, &ex.instances[0], &ex.instances[1]),
                ex.answer.to_lowercase().starts_with('y'),
            )
        })
        .collect();
    CalibratedBar {
        bar: calibrate_threshold(DEFAULT_THRESHOLD, &example_scores),
        scored: !example_scores.is_empty(),
    }
}

/// The match bar a request's questions are judged against: calibrated on
/// the prompt's few-shot pairs and shifted by the reasoning instruction.
pub fn match_bar(ctx: &SolverContext<'_>) -> f64 {
    let CalibratedBar { bar, scored } = ctx
        .reading
        .calibrated_bar()
        .unwrap_or_else(|| calibrate(ctx.kb, ctx.memorizer, &[]));
    let mut threshold = bar;
    if ctx.reading.wants_reason {
        // Chain-of-thought makes the matcher second-guess borderline pairs;
        // a homogeneous batch (cluster batching) restores confidence — the
        // model sees the same question shape repeatedly and settles into a
        // consistent policy.
        let shift = if scored { 0.025 } else { 0.08 };
        threshold += shift * (1.0 - ctx.homogeneity).clamp(0.2, 1.0);
    }
    threshold
}

/// Solves one entity-matching question against the request's
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
            reason: "The question does not contain two records to compare.".into(),
        };
    }
    let a = &question.instances[0];
    let b = &question.instances[1];
    let score = score_pair_with_contrast(ctx.kb, ctx.memorizer, a, b, ctx.homogeneity);
    let noisy = score + ctx.noise(rng);
    let is_match = noisy > threshold;

    let reason = format!(
        "The records' aligned attributes agree with similarity {score:.2} \
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

    /// EM's value similarity as it was before its buffers were reused: an
    /// owned canonical text per value, Jaro-Winkler's vector form,
    /// word-set overlap from hash sets, and number-bearing tokens as hash
    /// sets. The reference the reused-buffer form must match bit for bit.
    fn owned_value_similarity(
        kb: &KnowledgeBase,
        mem: &Memorizer,
        a: &str,
        b: &str,
        contrast: f64,
    ) -> f64 {
        use std::collections::HashSet;
        if let (Ok(x), Ok(y)) = (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
            let denom = x.abs().max(y.abs()).max(1.0);
            return (1.0 - (x - y).abs() / denom).max(0.0);
        }
        let canonical = |raw: &str| -> String {
            let norm = dprep_text::normalize(raw);
            let words: Vec<String> = norm
                .split(' ')
                .filter(|w| !w.is_empty())
                .map(|w| kb.canonicalize(mem, w).unwrap_or(w).to_string())
                .collect();
            words.join(" ")
        };
        let numeric = |s: &str| -> HashSet<String> {
            s.split(' ')
                .filter(|w| w.chars().any(|c| c.is_ascii_digit()))
                .map(str::to_string)
                .collect()
        };
        let (ca, cb) = (canonical(a), canonical(b));
        if ca.is_empty() && cb.is_empty() {
            return 1.0;
        }
        let mut sim = 0.45 * vec_jaro_winkler(&ca, &cb) + 0.55 * hash_set_overlap(&ca, &cb);
        let (na, nb) = (numeric(&ca), numeric(&cb));
        if !na.is_empty() && !nb.is_empty() && na.is_disjoint(&nb) {
            sim *= (0.75 - 0.5 * contrast).clamp(0.3, 1.0);
        }
        sim
    }

    #[test]
    fn value_similarity_is_bit_equal_to_its_owned_form() {
        let mut kb = KnowledgeBase::new();
        for (canonical, variant) in [
            ("india pale ale", "ipa"),
            ("company", "co"),
            ("saint", "st"),
            ("東京 tower", "東京"),
            (
                "a very long canonical name that runs well past sixty four bytes",
                "aaaa",
            ),
        ] {
            kb.add(Fact::Alias {
                canonical: canonical.into(),
                variant: variant.into(),
            });
        }
        let mut rng = Rng::seed_from_u64(0xe3_0ac1e);
        // Pairs by outcome: [numeric, both empty, penalized, other].
        let mut kinds = [0usize; 4];
        for round in 0..3_000u64 {
            let mem = Memorizer {
                model_name: "m".into(),
                coverage: [0.5, 1.0][(round % 2) as usize],
                seed: round % 5,
            };
            let a = oracle_value(&mut rng);
            let b = if rng.bool(0.2) {
                a.clone()
            } else {
                oracle_value(&mut rng)
            };
            for contrast in [0.0, 0.4, 1.0] {
                let got = value_similarity(&kb, &mem, &a, &b, contrast);
                let want = owned_value_similarity(&kb, &mem, &a, &b, contrast);
                assert_eq!(got.to_bits(), want.to_bits(), "{a:?} {b:?} at {contrast}");
            }
            let numeric = a.trim().parse::<f64>().is_ok() && b.trim().parse::<f64>().is_ok();
            let digits = |s: &str| s.split(' ').any(|w| w.bytes().any(|c| c.is_ascii_digit()));
            kinds[if numeric {
                0
            } else if dprep_text::normalize(&a).is_empty() && dprep_text::normalize(&b).is_empty() {
                1
            } else if digits(&a) && digits(&b) {
                2
            } else {
                3
            }] += 1;
        }
        assert!(
            kinds.iter().all(|&n| n >= 20),
            "pairs by outcome: {kinds:?}"
        );
    }

    const EM_SYSTEM: &str = "You are requested to decide whether the two given records refer to \
         the same entity. Answer with only \"yes\" or \"no\".";

    #[test]
    fn near_identical_records_match() {
        let kb = KnowledgeBase::new();
        let ans = solve_one(
            EM_SYSTEM,
            "Question 1: Record A is [title: \"apple iphone 12 64gb black\", price: \"699\"]. \
             Record B is [title: \"Apple iPhone 12 (64GB, Black)\", price: \"699\"]. \
             Do they refer to the same entity?",
            &kb,
        );
        assert_eq!(ans.answer, "yes");
    }

    #[test]
    fn different_products_do_not_match() {
        let kb = KnowledgeBase::new();
        let ans = solve_one(
            EM_SYSTEM,
            "Question 1: Record A is [title: \"apple iphone 12\", price: \"699\"]. \
             Record B is [title: \"sony bravia 55 inch tv\", price: \"1299\"]. \
             Do they refer to the same entity?",
            &kb,
        );
        assert_eq!(ans.answer, "no");
    }

    #[test]
    fn alias_knowledge_bridges_abbreviations() {
        let mut kb = KnowledgeBase::new();
        kb.add(Fact::Alias {
            canonical: "india pale ale".into(),
            variant: "ipa".into(),
        });
        let with_alias = score_pair(
            &kb,
            &Memorizer {
                model_name: "m".into(),
                coverage: 1.0,
                seed: 0,
            },
            &dprep_tabular::context::parse_instance("[style: \"ipa\"]").unwrap(),
            &dprep_tabular::context::parse_instance("[style: \"india pale ale\"]").unwrap(),
        );
        let without_alias = score_pair(
            &KnowledgeBase::new(),
            &Memorizer {
                model_name: "m".into(),
                coverage: 1.0,
                seed: 0,
            },
            &dprep_tabular::context::parse_instance("[style: \"ipa\"]").unwrap(),
            &dprep_tabular::context::parse_instance("[style: \"india pale ale\"]").unwrap(),
        );
        assert!(with_alias > without_alias);
        assert!(with_alias > 0.95);
    }

    #[test]
    fn numeric_attributes_compare_relatively() {
        let kb = KnowledgeBase::new();
        let mem = Memorizer {
            model_name: "m".into(),
            coverage: 1.0,
            seed: 0,
        };
        let close = value_similarity(&kb, &mem, "100", "101", 0.0);
        let far = value_similarity(&kb, &mem, "100", "500", 0.0);
        assert!(close > 0.95);
        assert!(far < 0.5);
    }

    #[test]
    fn few_shot_calibration_shifts_decisions() {
        // A borderline pair (~0.55 score): default threshold rejects it, but
        // examples showing low-scoring positives pull the bar down.
        let kb = KnowledgeBase::new();
        let borderline_q =
            "Question 1: Record A is [title: \"dell xps 13 laptop computer silver\"]. \
             Record B is [title: \"dell xps13 notebook\"]. \
             Do they refer to the same entity?";
        let without_fs = solve_one(EM_SYSTEM, borderline_q, &kb);
        let profile = ModelProfile::gpt4();
        let req = ChatRequest::new(vec![
            Message::system(EM_SYSTEM),
            Message::user(
                "Question 1: Record A is [title: \"hp envy 15 laptop computer black\"]. \
                 Record B is [title: \"hp envy15 notebook\"]. \
                 Do they refer to the same entity?",
            ),
            Message::assistant("Answer 1: yes"),
            Message::user(borderline_q),
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
        let mut rng = rng_for(0, borderline_q);
        let with_fs = solve(&ctx, &prompt.questions[0], match_bar(&ctx), &mut rng);
        assert_eq!(without_fs.answer, "no");
        assert_eq!(with_fs.answer, "yes");
    }

    #[test]
    fn reasoning_without_examples_is_conservative() {
        // Zero-shot chain-of-thought raises the match bar by 0.08; a pair
        // whose score lands between the two thresholds flips from "yes" to
        // "no". Scan a family of increasingly divergent pairs and require
        // at least one such flip (and no flips in the opposite direction).
        let kb = KnowledgeBase::new();
        let reasoning_system =
            "You are requested to decide whether the two given records refer to \
             the same entity. MUST answer in two lines; give the reason first.";
        let pairs = [
            ("canon eos camera body", "canon eos camera body"),
            ("canon eos camera body kit", "canon camera body with strap"),
            (
                "canon eos camera kit black",
                "canon powershot camera silver bundle",
            ),
            (
                "sony wireless headphones black",
                "sony wired headphones white pair",
            ),
            (
                "sony wireless headphones black model one",
                "sony wireless headset black model two",
            ),
            (
                "canon eos rebel dslr camera",
                "nikon coolpix digital camera",
            ),
            (
                "canon printer ink cartridge",
                "sony bravia television stand",
            ),
        ];
        let mut flips = 0;
        for (a, b) in pairs {
            let q = format!(
                "Question 1: Record A is [title: \"{a}\"]. Record B is \
                 [title: \"{b}\"]. Do they refer to the same entity?"
            );
            let plain = solve_one(EM_SYSTEM, &q, &kb);
            let reasoned = solve_one(reasoning_system, &q, &kb);
            match (plain.answer.as_str(), reasoned.answer.as_str()) {
                ("yes", "no") => flips += 1,
                ("no", "yes") => panic!("reasoning made the matcher *less* conservative"),
                _ => {}
            }
        }
        assert!(
            flips >= 1,
            "no borderline pair flipped under zero-shot reasoning"
        );
    }
}
