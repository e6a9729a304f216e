//! The contract between the prompt builder and the simulated model's
//! comprehension layer: whatever `dprep-prompt` emits, `dprep-llm` must
//! read back correctly — for every task and every component combination.

use llm_data_preprocessors::llm::comprehend::{comprehend, TaskKind};
use llm_data_preprocessors::prompt::{
    build_request, AttrSpec, FewShotExample, PromptConfig, Task, TaskInstance,
};
use llm_data_preprocessors::tabular::{Record, Schema, Value};
use std::sync::Arc;

fn sample_instance(task: Task) -> TaskInstance {
    let schema = Schema::all_text(&["title", "brand", "price"])
        .unwrap()
        .shared();
    let record = |vals: [&str; 3]| {
        Record::new(
            Arc::clone(&schema),
            vals.iter().map(|v| Value::text(*v)).collect(),
        )
        .unwrap()
    };
    match task {
        Task::ErrorDetection => TaskInstance::ErrorDetection {
            record: record(["sony headphones", "sony", "99"]),
            attribute: "brand".into(),
        },
        Task::Imputation => {
            let mut r = record(["sony headphones", "sony", "99"]);
            let idx = r.schema().index_of("brand").unwrap();
            r.set(idx, Value::Missing).unwrap();
            TaskInstance::Imputation {
                record: r,
                attribute: "brand".into(),
            }
        }
        Task::SchemaMatching => TaskInstance::SchemaMatching {
            a: AttrSpec::new("zip", "postal code"),
            b: AttrSpec::new("postcode", "zip code of the address"),
        },
        Task::EntityMatching => TaskInstance::EntityMatching {
            a: record(["sony wh-1000 headphones", "sony", "299"]),
            b: record(["sony wh1000 wireless headphones", "sony", "301"]),
        },
    }
}

fn sample_example(task: Task) -> FewShotExample {
    FewShotExample::new(
        sample_instance(task),
        "Because the evidence points that way.",
        match task {
            Task::Imputation => "sony",
            Task::ErrorDetection => "no",
            _ => "yes",
        },
    )
}

fn expected_kind(task: Task) -> TaskKind {
    match task {
        Task::ErrorDetection => TaskKind::ErrorDetection,
        Task::Imputation => TaskKind::Imputation,
        Task::SchemaMatching => TaskKind::SchemaMatching,
        Task::EntityMatching => TaskKind::EntityMatching,
    }
}

#[test]
fn every_task_and_component_combination_round_trips() {
    for task in [
        Task::ErrorDetection,
        Task::Imputation,
        Task::SchemaMatching,
        Task::EntityMatching,
    ] {
        for reasoning in [false, true] {
            for n_shots in [0usize, 3] {
                for batch in [1usize, 4] {
                    let config = PromptConfig {
                        task,
                        reasoning,
                        confirm_target: reasoning,
                        type_hint: None,
                        feature_indices: None,
                    };
                    let shots: Vec<FewShotExample> =
                        (0..n_shots).map(|_| sample_example(task)).collect();
                    let instances: Vec<TaskInstance> =
                        (0..batch).map(|_| sample_instance(task)).collect();
                    let refs: Vec<&TaskInstance> = instances.iter().collect();
                    let request = build_request(&config, &shots, &refs);
                    let c = comprehend(&request);

                    let label =
                        format!("{task:?} reasoning={reasoning} shots={n_shots} batch={batch}");
                    assert_eq!(c.task, Some(expected_kind(task)), "{label}");
                    assert_eq!(c.wants_reason, reasoning, "{label}");
                    assert_eq!(c.examples.len(), n_shots, "{label}");
                    assert_eq!(c.questions.len(), batch, "{label}");
                    let expected_instances = match task {
                        Task::SchemaMatching | Task::EntityMatching => 2,
                        _ => 1,
                    };
                    for q in &c.questions {
                        assert_eq!(q.instances.len(), expected_instances, "{label}");
                    }
                    if task == Task::ErrorDetection {
                        assert_eq!(c.confirm_target, reasoning, "{label}");
                        assert_eq!(c.questions[0].target_attribute, Some("brand"), "{label}");
                    }
                    if task == Task::Imputation {
                        assert_eq!(c.questions[0].target_attribute, Some("brand"), "{label}");
                    }
                }
            }
        }
    }
}

#[test]
fn type_hint_round_trips() {
    let config = PromptConfig {
        task: Task::Imputation,
        reasoning: true,
        confirm_target: false,
        type_hint: Some(("hoursperweek".into(), "a range of integers".into())),
        feature_indices: None,
    };
    let inst = sample_instance(Task::Imputation);
    let request = build_request(&config, &[], &[&inst]);
    let c = comprehend(&request);
    assert_eq!(c.type_hint.as_deref(), Some("a range of integers"));
}

#[test]
fn feature_selection_prunes_prompt_attributes() {
    let config = PromptConfig {
        task: Task::EntityMatching,
        reasoning: false,
        confirm_target: false,
        type_hint: None,
        feature_indices: Some(vec![0]), // title only
    };
    let inst = sample_instance(Task::EntityMatching);
    let request = build_request(&config, &[], &[&inst]);
    let c = comprehend(&request);
    let names = c.questions[0].instances[0].names();
    assert_eq!(names, vec!["title"]);
}
