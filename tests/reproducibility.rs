//! Determinism guarantees: the whole stack — generation, prompting,
//! simulation, parsing, scoring — is a pure function of its seeds.

use llm_data_preprocessors::core::{PipelineConfig, Preprocessor};
use llm_data_preprocessors::eval::harness::run_llm_on_dataset;
use llm_data_preprocessors::llm::{
    ChatModel, ChatRequest, ChatResponse, Message, ModelProfile, SimulatedLlm, Usage,
};
use std::sync::{Arc, Barrier, Mutex};

#[test]
fn identical_runs_produce_identical_scores_and_usage() {
    let profile = ModelProfile::gpt35();
    let run = || {
        let ds = llm_data_preprocessors::datasets::dataset_by_name("Beer", 0.5, 77).unwrap();
        let config = PipelineConfig::best(ds.task);
        let scored = run_llm_on_dataset(&profile, &ds, &config, 77);
        (
            scored.value.map(|v| (v * 1000.0).round() as i64),
            scored.usage.total_tokens(),
            (scored.usage.cost_usd * 1e9).round() as i64,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_simulation_seeds_change_something() {
    let profile = ModelProfile::vicuna13b();
    let ds = llm_data_preprocessors::datasets::dataset_by_name("Amazon-Google", 0.1, 5).unwrap();
    let config = PipelineConfig::best(ds.task);
    let a = run_llm_on_dataset(&profile, &ds, &config, 1);
    let b = run_llm_on_dataset(&profile, &ds, &config, 2);
    assert!(
        a.value != b.value || a.usage.total_tokens() != b.usage.total_tokens(),
        "seeds should perturb a noisy model's run"
    );
}

#[test]
fn chat_responses_are_pure_functions_of_requests() {
    let mut kb = llm_data_preprocessors::llm::KnowledgeBase::new();
    kb.add(llm_data_preprocessors::llm::Fact::AreaCode {
        prefix: "770".into(),
        city: "marietta".into(),
    });
    let kb = Arc::new(kb);
    let model = SimulatedLlm::new(ModelProfile::gpt35(), Arc::clone(&kb));
    let req = ChatRequest::new(vec![
        Message::system(
            "You are requested to infer the value of the \"city\" attribute \
             based on the values of other attributes.",
        ),
        Message::user("Question 1: Record is [phone: \"770-933-0909\", city: ???]."),
    ])
    .with_temperature(0.75);
    let r1 = model.chat(&req);
    let r2 = model.chat(&req);
    assert_eq!(r1, r2);

    // A one-character prompt change redraws the stochastic layer but stays
    // deterministic.
    let req2 = ChatRequest::new(vec![
        Message::system(
            "You are requested to infer the value of the \"city\" attribute \
             based on the values of other attributes!",
        ),
        Message::user("Question 1: Record is [phone: \"770-933-0909\", city: ???]."),
    ])
    .with_temperature(0.75);
    let r3 = model.chat(&req2);
    assert_eq!(r3, model.chat(&req2));
}

#[test]
fn memorization_is_stable_across_requests() {
    // A fact a model knows in one request it knows in every request.
    let ds = llm_data_preprocessors::datasets::dataset_by_name("Restaurant", 1.0, 4).unwrap();
    let model = SimulatedLlm::new(ModelProfile::gpt35(), Arc::new(ds.kb.clone()));
    let mem = model.memorizer();
    let known: Vec<bool> = ds.kb.facts().iter().map(|f| mem.knows(f)).collect();
    let mem2 = model.memorizer();
    let known2: Vec<bool> = ds.kb.facts().iter().map(|f| mem2.knows(f)).collect();
    assert_eq!(known, known2);
    // And the coverage fraction is in the right ballpark.
    let frac = known.iter().filter(|k| **k).count() as f64 / known.len() as f64;
    assert!(
        (0.75..=1.0).contains(&frac),
        "gpt-3.5 should memorize most of the restaurant corpus, got {frac:.2}"
    );
}

#[test]
fn dataset_generation_is_seed_stable_across_scales() {
    // Scaling down does not reshuffle what is generated at a given seed in
    // some chaotic way: validation and counts stay coherent.
    for scale in [0.05, 0.2, 1.0] {
        let ds = llm_data_preprocessors::datasets::dataset_by_name("Buy", scale, 99).unwrap();
        ds.validate().unwrap();
        assert_eq!(ds.len(), ((65.0 * scale).round() as usize).max(4));
    }
}

/// Records every request a run sends, answering each with the model it
/// wraps.
struct Recording<'a> {
    model: &'a SimulatedLlm,
    requests: Mutex<Vec<ChatRequest>>,
}

impl ChatModel for Recording<'_> {
    fn name(&self) -> &str {
        self.model.name()
    }
    fn default_temperature(&self) -> f64 {
        self.model.default_temperature()
    }
    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        self.requests
            .lock()
            .expect("recording")
            .push(request.clone());
        self.model.chat(request)
    }
    fn context_window(&self) -> usize {
        self.model.context_window()
    }
    fn cost_usd(&self, usage: &Usage) -> f64 {
        self.model.cost_usd(usage)
    }
}

/// Text, usage and latency of a response, the latency to the bit.
fn answer_of(response: &ChatResponse) -> (String, usize, usize, u64) {
    (
        response.text.clone(),
        response.usage.prompt_tokens,
        response.usage.completion_tokens,
        response.latency_secs.to_bits(),
    )
}

/// A model reuses what it read of a prompt's shared prefix (the task
/// specification and few-shot examples every request of a run repeats).
/// Whatever it saw before, a shared warm model must answer every request
/// exactly as a fresh model does: every request of all 12 datasets under
/// three models, every third also at a retry salt, a request without its
/// questions turn, and two prefixes interleaved on one model from two
/// threads.
///
/// The reference reads each request's prefix afresh. For the first
/// request of a run it is a new model; after that, to keep the test
/// quick, it is one model whose reading an empty request replaced just
/// before, since building a new model's lexicon view per request would
/// cost more than the rest of the test.
#[test]
fn warm_shared_models_answer_every_request_as_a_fresh_model_does() {
    const SEED: u64 = 0x0ead_1e55;
    // Requests checked: [salt 0, salted, without questions, interleaved].
    let mut checked = [0usize; 4];
    for ds in llm_data_preprocessors::datasets::all_datasets(0.02, SEED) {
        let kb = Arc::new(ds.kb.clone());
        for profile in [
            ModelProfile::gpt35(),
            ModelProfile::gpt4(),
            ModelProfile::vicuna13b(),
        ] {
            let new_model = || SimulatedLlm::new(profile.clone(), Arc::clone(&kb)).with_seed(SEED);
            let recording = Recording {
                model: &new_model(),
                requests: Mutex::new(Vec::new()),
            };
            Preprocessor::new(&recording, PipelineConfig::best(ds.task))
                .run(&ds.instances, &ds.few_shot);
            let mut requests = recording.requests.into_inner().expect("recording");
            // Plan order: the executor's workers may send them in any.
            requests.sort_by_key(|r| r.trace_id);
            assert!(!requests.is_empty(), "{} sent no request", ds.name);

            let cold = new_model();
            let fresh = |request: &ChatRequest| {
                cold.chat(&ChatRequest::new(Vec::new()));
                answer_of(&cold.chat(request))
            };
            let warm = new_model();
            assert_eq!(
                answer_of(&warm.chat(&requests[0])),
                answer_of(&new_model().chat(&requests[0])),
                "{} under {}",
                ds.name,
                profile.name
            );
            for (i, request) in requests.iter().enumerate() {
                let salted = request.clone().with_retry_salt(7);
                let salted = (i % 3 == 0).then_some((&salted, 1));
                for (request, slot) in [(request, 0)].into_iter().chain(salted) {
                    assert_eq!(
                        answer_of(&warm.chat(request)),
                        fresh(request),
                        "{} under {}: {request:?}",
                        ds.name,
                        profile.name
                    );
                    checked[slot] += 1;
                }
            }
            // A request whose last turn is not a user turn: its whole list
            // is its prefix, and it has no questions. Its prefix holds the
            // same messages as a request of the run without its questions
            // turn, and must still hash as its own. Then a prefix as long
            // as the run's, one word longer in its system turn.
            let mut headless = requests[0].clone();
            headless.messages.pop();
            headless.prompt_tokens_hint = None;
            let mut without_examples = requests[0].clone();
            without_examples.messages.truncate(1);
            without_examples.prompt_tokens_hint = None;
            let mut retold = requests[0].clone();
            retold.messages[0].content.push_str(" Thanks.");
            retold.prompt_tokens_hint = None;
            for request in [
                &headless,
                &requests[0],
                &headless,
                &without_examples,
                &requests[0],
                &retold,
            ] {
                assert_eq!(
                    answer_of(&warm.chat(request)),
                    fresh(request),
                    "{} under {}: {request:?}",
                    ds.name,
                    profile.name
                );
            }
            checked[2] += 1;

            // Two prefixes on one model from two threads: the run's own,
            // and the same batches without their few-shot turns.
            if profile.name != ModelProfile::gpt35().name {
                continue;
            }
            let zero_shot: Vec<ChatRequest> = requests
                .iter()
                .map(|request| {
                    let mut bare = request.clone();
                    bare.messages = vec![
                        request.messages[0].clone(),
                        request.messages.last().expect("a questions turn").clone(),
                    ];
                    bare.prompt_tokens_hint = None;
                    bare
                })
                .collect();
            // The threads meet before each call, so the two prefixes
            // alternate on the model throughout. They only collect
            // answers: a thread that failed an assertion would leave the
            // other waiting at the barrier.
            let shared = new_model();
            let step = Barrier::new(2);
            let answered: Vec<Vec<_>> = std::thread::scope(|scope| {
                [&requests, &zero_shot]
                    .map(|batch| {
                        let (shared, step) = (&shared, &step);
                        scope.spawn(move || {
                            batch
                                .iter()
                                .map(|request| {
                                    step.wait();
                                    answer_of(&shared.chat(request))
                                })
                                .collect()
                        })
                    })
                    .into_iter()
                    .map(|thread| thread.join().expect("a sending thread"))
                    .collect()
            });
            for (batch, answers) in [&requests, &zero_shot].into_iter().zip(answered) {
                for (request, answer) in batch.iter().zip(answers) {
                    assert_eq!(
                        answer,
                        fresh(request),
                        "{} interleaved: {request:?}",
                        ds.name
                    );
                    checked[3] += 1;
                }
            }
        }
    }
    eprintln!("requests checked [salt 0, salted, without questions, interleaved]: {checked:?}");
    assert!(checked[0] > 800, "{checked:?}");
}
