//! [`SimulatedLlm`]: the full simulated chat model.
//!
//! Request lifecycle:
//!
//! 1. tokenize the prompt (usage accounting; context-window check),
//! 2. comprehend the prompt text (task, components, examples, questions),
//! 3. derive the effective decision-noise sigma from the profile, the
//!    temperature, and the prompt components present,
//! 4. for error detection without the "confirm the target attribute"
//!    safeguard, occasionally drift onto a different attribute,
//! 5. solve every question with the task solver,
//! 6. inject response failures and render the completion,
//! 7. meter completion tokens, dollar cost, and virtual latency.

use std::sync::{Arc, OnceLock};

use dprep_text::count_tokens;

use crate::chat::{ChatModel, ChatRequest, ChatResponse};
use crate::comprehend::{comprehend, TaskKind};
use crate::knowledge::{KnowledgeBase, LexiconView, Memorizer};
use crate::profile::ModelProfile;
use crate::respond::{plan_response, render};
use crate::rng::{stable_hash, Rng};
use crate::solvers::{batch_homogeneity, solve, SolverContext};
use crate::usage::Usage;

/// The deterministic simulated LLM.
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    profile: ModelProfile,
    kb: Arc<KnowledgeBase>,
    seed: u64,
    /// The memorized lexicons, built by the first request that reads one.
    lexicons: OnceLock<LexiconView>,
}

impl SimulatedLlm {
    /// Creates a model over the given world-knowledge corpus.
    pub fn new(profile: ModelProfile, kb: Arc<KnowledgeBase>) -> Self {
        SimulatedLlm {
            profile,
            kb,
            seed: 0x5eed_cafe,
            lexicons: OnceLock::new(),
        }
    }

    /// Overrides the simulation seed (varies the memorized fact subset and
    /// all stochastic failures).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.lexicons = OnceLock::new();
        self
    }

    /// The model's capability profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The memorization filter this model applies to the corpus.
    pub fn memorizer(&self) -> Memorizer {
        Memorizer {
            model_name: self.profile.name.clone(),
            coverage: self.profile.knowledge_coverage,
            seed: self.seed,
        }
    }

    fn task_skill(&self, task: Option<TaskKind>) -> f64 {
        match task {
            Some(TaskKind::ErrorDetection) => self.profile.skills.ed,
            Some(TaskKind::Imputation) => self.profile.skills.di,
            Some(TaskKind::SchemaMatching) => self.profile.skills.sm,
            Some(TaskKind::EntityMatching) => self.profile.skills.em,
            None => 0.5,
        }
    }
}

impl ChatModel for SimulatedLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn default_temperature(&self) -> f64 {
        self.profile.default_temperature
    }

    fn context_window(&self) -> usize {
        self.profile.context_window
    }

    fn cost_usd(&self, usage: &Usage) -> f64 {
        self.profile
            .pricing
            .cost(usage.prompt_tokens, usage.completion_tokens)
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        // The prompt builder already tokenized the prompt to size the
        // batch; reuse its count instead of tokenizing a second time.
        let prompt_tokens = request
            .prompt_tokens_hint
            .unwrap_or_else(|| count_tokens(&request.full_text()));
        debug_assert_eq!(
            prompt_tokens,
            count_tokens(&request.full_text()),
            "prompt_tokens_hint disagrees with the request text"
        );
        let context_fill = prompt_tokens as f64 / self.profile.context_window as f64;

        // The retry salt perturbs the noise stream without touching the
        // prompt text: salt 0 reproduces the unsalted stream exactly. The
        // stream is seeded by the full text's hash, streamed from the
        // messages (as `rng_for` would hash the assembled text).
        let mut rng = Rng::seed_from_u64(request.full_text_hash(
            self.seed ^ stable_hash(request.retry_salt, self.profile.name.as_bytes()),
        ));
        let mut prompt = comprehend(request);

        // Context overflow: only the questions that fit are answered. The
        // questions move out of the prompt: from here on they are read
        // from `questions` alone.
        let mut questions = std::mem::take(&mut prompt.questions);
        if context_fill > 1.0 && !questions.is_empty() {
            let keep = ((questions.len() as f64 / context_fill).floor() as usize).max(1);
            questions.truncate(keep);
        }

        // --- Effective decision noise ---------------------------------
        let skill = self.task_skill(prompt.task);
        let temp_mult = 0.55 + 0.6 * request.temperature_or(self.profile.default_temperature);
        let reason_mult = if prompt.wants_reason { 1.0 } else { 1.25 };
        let fewshot_mult = if prompt.examples.is_empty() {
            1.15
        } else {
            1.0
        };
        let k = questions.len().max(1);
        let batch_mult = (1.0 + 0.015 * (k as f64 - 1.0)).min(1.25);
        let homogeneity = batch_homogeneity(&questions);
        let homogeneity_mult = 1.0 - 0.3 * homogeneity;
        // Pairwise matching is a more stable judgment for LLMs than the
        // open-ended tasks; its decisions wobble less at equal skill.
        let task_mult = if prompt.task == Some(TaskKind::EntityMatching) {
            0.55
        } else {
            1.0
        };
        let sigma = self.profile.base_sigma
            * (1.25 - skill)
            * temp_mult
            * reason_mult
            * fewshot_mult
            * batch_mult
            * homogeneity_mult
            * task_mult;

        // --- ED attribute drift ----------------------------------------
        // Without the confirmation safeguard the model sometimes evaluates
        // a different attribute of the record (§3.1 motivates the
        // safeguard precisely because of this failure).
        if prompt.task == Some(TaskKind::ErrorDetection) && !prompt.confirm_target {
            let p_drift = ((1.0 - self.profile.instruction_following) * 2.0 + 0.10).min(0.4);
            for q in &mut questions {
                if rng.f64() >= p_drift {
                    continue;
                }
                let Some(instance) = q.instances.first() else {
                    continue;
                };
                let current = q.target_attribute;
                let others: Vec<&str> = instance
                    .fields
                    .iter()
                    .map(|(n, _)| *n)
                    .filter(|n| Some(*n) != current)
                    .collect();
                if let Some(&pick) = others.get(rng.range_usize(0, others.len().max(1))) {
                    q.target_attribute = Some(pick);
                }
            }
        }

        // --- Solve -------------------------------------------------------
        // Zero-shot criteria wander: with no examples the model's internal
        // notion of "erroneous" drifts per request (shared across the
        // request's whole batch). Skill dampens it.
        let criteria_wander = if prompt.examples.is_empty() {
            crate::rng::gaussian(&mut rng) * 0.5 * (1.25 - skill)
        } else {
            0.0
        };

        let ctx = SolverContext {
            profile: &self.profile,
            memorizer: self.memorizer(),
            kb: &self.kb,
            lexicons: &self.lexicons,
            prompt: &prompt,
            sigma,
            homogeneity,
            criteria_wander,
        };
        let answers = solve(&ctx, &questions, &mut rng);

        // --- Render with failures ---------------------------------------
        let segments = plan_response(&self.profile, &prompt, answers, context_fill, &mut rng);
        let text = render(&prompt, &segments);

        let completion_tokens = count_tokens(&text);
        let usage = Usage {
            prompt_tokens,
            completion_tokens,
        };
        let latency_secs = self
            .profile
            .latency
            .latency(prompt_tokens, completion_tokens);

        ChatResponse::new(text, usage, latency_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::Message;
    use crate::knowledge::Fact;

    fn kb() -> Arc<KnowledgeBase> {
        let mut kb = KnowledgeBase::new();
        kb.add(Fact::AreaCode {
            prefix: "770".into(),
            city: "marietta".into(),
        });
        kb.add(Fact::NumericRange {
            attribute: "age".into(),
            min: 17.0,
            max: 95.0,
        });
        Arc::new(kb)
    }

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
                "Question 1: Record is [name: \"carey's corner\", \
                 phone: \"770-933-0909\", city: ???]. \
                 What is the value of the \"city\" attribute?",
            ),
        ])
        .with_temperature(0.0)
    }

    #[test]
    fn answers_di_with_memorized_fact() {
        let llm = SimulatedLlm::new(ModelProfile::gpt4(), kb());
        let resp = llm.chat(&di_request());
        assert!(resp.text.contains("Answer 1:"), "text = {}", resp.text);
        assert!(resp.text.to_lowercase().contains("marietta"));
        assert!(resp.usage.prompt_tokens > 50);
        assert!(resp.usage.completion_tokens > 5);
        assert!(resp.latency_secs > 0.0);
    }

    #[test]
    fn identical_requests_get_identical_responses() {
        let llm = SimulatedLlm::new(ModelProfile::gpt35(), kb());
        let r1 = llm.chat(&di_request());
        let r2 = llm.chat(&di_request());
        assert_eq!(r1, r2);
    }

    #[test]
    fn different_seeds_change_behaviour_somewhere() {
        let a = SimulatedLlm::new(ModelProfile::vicuna13b(), kb()).with_seed(1);
        let b = SimulatedLlm::new(ModelProfile::vicuna13b(), kb()).with_seed(2);
        // Across several distinct prompts, at least one must differ (Vicuna
        // is noisy enough that this is effectively certain).
        let mut any_diff = false;
        for i in 0..10 {
            let req = ChatRequest::new(vec![
                Message::system(
                    "Decide whether the two given records refer to the same entity.",
                ),
                Message::user(format!(
                    "Question 1: Record A is [title: \"laptop dell inspiron model {i} silver edition\"]. \
                     Record B is [title: \"dell inspiron {i} notebook computer\"]. \
                     Do they refer to the same entity?"
                )),
            ])
            .with_temperature(0.2);
            if a.chat(&req).text != b.chat(&req).text {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn cost_uses_profile_pricing() {
        let llm = SimulatedLlm::new(ModelProfile::gpt35(), kb());
        let usage = Usage {
            prompt_tokens: 1000,
            completion_tokens: 1000,
        };
        assert!((llm.cost_usd(&usage) - 0.004).abs() < 1e-12);
    }

    #[test]
    fn context_overflow_truncates_answers() {
        let mut profile = ModelProfile::gpt35();
        profile.context_window = 120;
        let llm = SimulatedLlm::new(profile, kb());
        let mut body = String::new();
        for i in 1..=10 {
            body.push_str(&format!(
                "Question {i}: Record A is [title: \"product number {i} with a \
                 moderately long descriptive title\"]. Record B is [title: \
                 \"product number {i} long descriptive title\"]. Do they refer \
                 to the same entity?\n"
            ));
        }
        let req = ChatRequest::new(vec![
            Message::system("Decide whether the two given records refer to the same entity."),
            Message::user(body),
        ])
        .with_temperature(0.0);
        let resp = llm.chat(&req);
        let answered = resp.text.matches("Answer").count();
        assert!(answered < 10, "answered = {answered}");
    }

    #[test]
    fn with_seed_starts_a_fresh_lexicon_view() {
        let mut kb = KnowledgeBase::new();
        for i in 0..60 {
            kb.add(Fact::LexiconMember {
                domain: "city".into(),
                value: format!("City {i}"),
            });
        }
        let kb = Arc::new(kb);
        let req = ChatRequest::new(vec![
            Message::system(
                "You are requested to detect whether there is an error in the \
                 given attribute of the record. MUST answer each question in two \
                 lines. In the first line, you give the reason for the \
                 inference. In the second line, you ONLY answer \"yes\" if the \
                 value is erroneous or \"no\" otherwise.",
            ),
            Message::user(
                "Question 1: Record is [city: \"cty 7\"]. \
                 Is there an error in the \"city\" attribute?",
            ),
        ]);
        let view = |llm: &SimulatedLlm| -> Vec<String> {
            let view = llm.lexicons.get().expect("the request built a view");
            view.members("city")
                .iter()
                .map(|m| m.norm.clone())
                .collect()
        };
        let llm = SimulatedLlm::new(ModelProfile::vicuna13b(), Arc::clone(&kb)).with_seed(1);
        assert!(llm.lexicons.get().is_none(), "built before any request");
        llm.chat(&req);
        let first = view(&llm);

        let reseeded = llm.clone().with_seed(2);
        assert!(reseeded.lexicons.get().is_none(), "kept across with_seed");
        reseeded.chat(&req);
        let second = view(&reseeded);
        let known: Vec<String> = kb
            .known_lexicon(&reseeded.memorizer(), "city")
            .map(dprep_text::normalize)
            .collect();
        assert_eq!(second, known);
        assert_ne!(first, second, "the seeds memorize different cities");
    }

    #[test]
    fn ed_answers_yes_no() {
        let llm = SimulatedLlm::new(ModelProfile::gpt4(), kb());
        let req = ChatRequest::new(vec![
            Message::system(
                "You are requested to detect whether there is an error in the \
                 given attribute of the record. MUST answer each question in two \
                 lines. In the first line, you give the reason for the \
                 inference. In the second line, you ONLY answer \"yes\" if the \
                 value is erroneous or \"no\" otherwise. Please confirm the \
                 target attribute in your reason for inference.",
            ),
            Message::user(
                "Question 1: Record is [age: \"250\", city: \"atlanta\"]. \
                 Is there an error in the \"age\" attribute?",
            ),
        ])
        .with_temperature(0.0);
        let resp = llm.chat(&req);
        let last_line = resp.text.trim().lines().last().unwrap();
        assert_eq!(last_line, "yes");
    }
}
