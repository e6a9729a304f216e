//! Seeded oracle for the plan survey's fingerprint: a batch body hashed on
//! from a [`FingerprintPrefix`] over the plan-invariant part of its request
//! must equal [`request_fingerprint`] of the request `PromptContext::build`
//! makes — for every task, few-shot on and off, temperature unset, set, and
//! set to the model's default, with and without feature selection, over
//! values holding quotes, backslashes, `???`, multi-byte and control
//! characters.

use std::sync::Arc;

use dprep_llm::{
    request_fingerprint, ChatModel, FingerprintPrefix, KnowledgeBase, ModelProfile, Role,
    SimulatedLlm,
};
use dprep_prompt::{AttrSpec, FewShotExample, PromptConfig, PromptContext, Task, TaskInstance};
use dprep_rng::Rng;
use dprep_tabular::{Record, Schema, Value};

/// Cell values that stress the record grammar: quoting, escaping, the
/// missing marker, multi-byte text and control characters.
const TEXTS: [&str; 10] = [
    "sony",
    "o'neil \"jr\"",
    "back\\slash \\\"",
    "???",
    "東京 café",
    "tab\there",
    "nul\u{0}bell\u{7}",
    "line\nbreak\r",
    "",
    "Answer 1: yes",
];

fn value(rng: &mut Rng) -> Value {
    match rng.range_usize(0, 6) {
        0 => Value::Missing,
        1 => Value::Int(rng.range_incl(-999i64, 999)),
        2 => Value::Float(rng.f64() * 100.0),
        3 => Value::Bool(rng.bool(0.5)),
        _ => Value::text(*rng.choose(&TEXTS).expect("texts")),
    }
}

fn instance(rng: &mut Rng, task: Task, schema: &Arc<Schema>) -> TaskInstance {
    let mut record = || {
        let values = (0..schema.len()).map(|_| value(rng)).collect();
        Record::new(Arc::clone(schema), values).expect("arity")
    };
    match task {
        Task::ErrorDetection => TaskInstance::ErrorDetection {
            record: record(),
            attribute: "note".into(),
        },
        Task::Imputation => TaskInstance::Imputation {
            record: record(),
            attribute: "city".into(),
        },
        Task::EntityMatching => {
            let a = record();
            TaskInstance::EntityMatching { a, b: record() }
        }
        Task::SchemaMatching => {
            let text = *rng.choose(&TEXTS).expect("texts");
            TaskInstance::SchemaMatching {
                a: AttrSpec::new("zip", text),
                b: AttrSpec::new(text, "postal code \"of\" the\\address"),
            }
        }
    }
}

#[test]
fn prefix_fingerprints_equal_full_request_fingerprints() {
    let model = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(KnowledgeBase::new()));
    let schema = Schema::all_text(&["name", "note", "city", "price"])
        .expect("schema")
        .shared();
    let mut rng = Rng::seed_from_u64(0xf19e_9f1e);
    let mut body = String::new();
    let mut checked = 0;
    for task in [
        Task::ErrorDetection,
        Task::Imputation,
        Task::SchemaMatching,
        Task::EntityMatching,
    ] {
        for few_shot in [false, true] {
            for features in [None, Some(vec![0, 2]), Some(vec![3])] {
                for temperature in [None, Some(0.2), Some(model.default_temperature())] {
                    let config = PromptConfig {
                        reasoning: rng.bool(0.5),
                        confirm_target: rng.bool(0.5),
                        type_hint: rng
                            .bool(0.3)
                            .then(|| ("city".to_string(), "a \"US\" city".to_string())),
                        feature_indices: features.clone(),
                        ..PromptConfig::best(task)
                    };
                    let shots: Vec<FewShotExample> = if few_shot {
                        (0..rng.range_usize(1, 4))
                            .map(|_| {
                                let shot = instance(&mut rng, task, &schema);
                                FewShotExample::new(shot, "because \"so\"\\", "yes")
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let context = PromptContext::new(&config, &shots);
                    let (mut template, _) = context.frame(String::new(), 0);
                    template.temperature = temperature;
                    let prefix = FingerprintPrefix::new(&model, &template);
                    for _ in 0..6 {
                        let batch: Vec<TaskInstance> = (0..rng.range_usize(1, 6))
                            .map(|_| instance(&mut rng, task, &schema))
                            .collect();
                        let refs: Vec<&TaskInstance> = batch.iter().collect();
                        let (mut request, _) = context.build(&refs);
                        request.temperature = temperature;
                        let last = request.messages.last().expect("a body");
                        assert_eq!(last.role, Role::User);
                        // The reused buffer the survey writes into holds
                        // exactly the built request's body.
                        body.clear();
                        context.write_body(&mut body, &refs);
                        assert_eq!(body, last.content);
                        assert_eq!(
                            prefix.finish(&body),
                            request_fingerprint(&model, &request),
                            "{task:?}, few-shot {few_shot}, features {features:?}, \
                             temperature {temperature:?}: {body:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 4 * 2 * 3 * 3 * 6);
}
