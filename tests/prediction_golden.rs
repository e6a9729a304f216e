//! Prediction golden: every dataset under every simulated model answers
//! exactly as pinned. Billed-token gates cannot see a flipped decision
//! ("yes" and "no" are one token each), so this test fingerprints the
//! answers and reasons themselves, next to the billed tokens.

use std::sync::Arc;

use llm_data_preprocessors::core::{PipelineConfig, Prediction, Preprocessor};
use llm_data_preprocessors::datasets::all_datasets;
use llm_data_preprocessors::llm::{ModelProfile, SimulatedLlm};

/// Small enough to stay fast in the debug test profile; every dataset
/// still spans several batches.
const SCALE: f64 = 0.05;
const SEED: u64 = 0x601d;

/// FNV-1a over every (dataset, model) run's predictions — answer and
/// reason, or the failure kind — and its billed prompt and completion
/// tokens, in dataset and model order.
const GOLDEN: u64 = 0xb461_c2a6_f1b7_8017;

#[test]
fn predictions_and_billed_tokens_match_the_golden_fingerprint() {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |text: &str| {
        for byte in text.bytes().chain([0xff]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ds in all_datasets(SCALE, SEED) {
        let kb = Arc::new(ds.kb.clone());
        for profile in [
            ModelProfile::gpt35(),
            ModelProfile::gpt4(),
            ModelProfile::vicuna13b(),
        ] {
            let model = SimulatedLlm::new(profile, Arc::clone(&kb)).with_seed(SEED);
            let result = Preprocessor::new(&model, PipelineConfig::best(ds.task))
                .run(&ds.instances, &ds.few_shot);
            for prediction in &result.predictions {
                match prediction {
                    Prediction::Answered(answer) => {
                        eat(&answer.value);
                        eat(answer.reason.as_deref().unwrap_or(""));
                    }
                    Prediction::Failed(kind) => eat(&format!("{kind:?}")),
                }
            }
            eat(&result.usage.prompt_tokens.to_string());
            eat(&result.usage.completion_tokens.to_string());
        }
    }
    assert_eq!(hash, GOLDEN, "prediction fingerprint {hash:#018x}");
}
