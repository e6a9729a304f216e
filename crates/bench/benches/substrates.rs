//! Micro-benchmarks of the substrates: tokenizer throughput, embedding,
//! k-means, string similarity, prompt assembly, and one `dprep detect`
//! request's round trip: its render, one simulated-model call, and that
//! call's comprehension and batch-homogeneity shares.
//!
//! Run with `cargo bench -p dprep-bench --bench substrates`.

use std::sync::Arc;

use dprep_bench::timing::{bench, black_box, section};
use dprep_embed::{kmeans, HashedNgramEmbedder};
use dprep_llm::comprehend::comprehend;
use dprep_llm::solvers::batch_homogeneity;
use dprep_llm::{ChatModel, Fact, KnowledgeBase, ModelProfile, SimulatedLlm};
use dprep_prompt::{build_request, PromptConfig, PromptContext, Task, TaskInstance};
use dprep_tabular::csv::read_csv_typed;
use dprep_text::{count_tokens, jaro_winkler, levenshtein, within_one_edit};

const PROSE: &str = "Large language models are capable of understanding and \
     generating human-like text across a diverse range of topics, thereby \
     finding applications in numerous data preprocessing tasks such as \
     error detection, data imputation, schema matching, and entity matching.";

fn main() {
    section("tokenizer");
    bench("tokenizer/count_tokens_prose", || {
        count_tokens(black_box(PROSE))
    });

    section("similarity");
    bench("similarity/levenshtein_title", || {
        levenshtein(
            black_box("apple iphone 12 pro max 128gb"),
            black_box("apple iphone 12 pro 256gb"),
        )
    });
    bench("similarity/within_one_edit_word", || {
        within_one_edit(black_box("hospital"), black_box("hospitol"))
    });
    bench("similarity/jaro_winkler_title", || {
        jaro_winkler(
            black_box("apple iphone 12 pro max 128gb"),
            black_box("apple iphone 12 pro 256gb"),
        )
    });

    section("embedding");
    let embedder = HashedNgramEmbedder::default();
    bench("embed/hashed_ngram_title", || {
        embedder.embed(black_box("apple iphone 12 pro max 128gb black"))
    });

    section("kmeans");
    let points: Vec<_> = (0..200)
        .map(|i| embedder.embed(&format!("product number {i} variant {}", i % 7)))
        .collect();
    for k in [4usize, 16] {
        bench(&format!("kmeans/cluster_200pts/k={k}"), || {
            kmeans(black_box(&points), k, 0)
        });
    }

    section("prompt");
    let ds = dprep_datasets::beer::generate(1.0, 0);
    let config = PromptConfig::best(Task::EntityMatching);
    let batch: Vec<_> = ds.instances.iter().take(15).collect();
    bench("prompt/build_em_batch15_fewshot10", || {
        build_request(
            black_box(&config),
            black_box(&ds.few_shot),
            black_box(&batch),
        )
    });

    let instances = detect_instances();
    let detect_batch: Vec<&TaskInstance> = instances.iter().collect();
    let detect_context = PromptContext::new(&PromptConfig::best(Task::ErrorDetection), &[]);
    bench("prompt/render_ed15", || {
        detect_context.build(black_box(&detect_batch))
    });

    section("simulator");
    let model = detect_model();
    let (request, _) = detect_context.build(&detect_batch);
    bench("simulator/ed_chat_batch15", || {
        model.chat(black_box(&request))
    });
    bench("simulator/comprehend_ed15", || {
        comprehend(black_box(&request)).questions.len()
    });
    let prompt = comprehend(&request);
    bench("simulator/batch_homogeneity_ed15", || {
        batch_homogeneity(black_box(&prompt.questions))
    });
}

/// The legal cities of a `dprep detect` facts file.
const CITIES: [&str; 24] = [
    "atlanta",
    "augusta",
    "boston",
    "chicago",
    "denver",
    "houston",
    "dallas",
    "austin",
    "phoenix",
    "tucson",
    "seattle",
    "spokane",
    "portland",
    "salem",
    "miami",
    "orlando",
    "tampa",
    "detroit",
    "lansing",
    "memphis",
    "nashville",
    "raleigh",
    "charlotte",
    "richmond",
];

/// `sim-gpt-4` knowing what such a facts file states: the city lexicon and
/// the plausible age range.
fn detect_model() -> SimulatedLlm {
    let mut kb = KnowledgeBase::new();
    kb.extend(CITIES.iter().map(|city| Fact::LexiconMember {
        domain: "city".into(),
        value: city.to_string(),
    }));
    kb.add(Fact::NumericRange {
        attribute: "age".into(),
        min: 0.0,
        max: 110.0,
    });
    SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(kb))
}

/// The instances of one error-detection request, as `dprep detect` batches
/// them: 15 cells of `name,age,city,state` rows in row order, among them
/// an out-of-range age and a misspelt city. Rendered with reasoning on
/// (`PromptConfig::best`), they are the request the simulator benches
/// answer.
fn detect_instances() -> Vec<TaskInstance> {
    let mut csv = String::from("name,age,city,state\n");
    for row in 0..4 {
        let age = if row == 1 { 212 } else { 30 + row };
        let city = if row == 2 { "chicaqo" } else { CITIES[row * 5] };
        csv.push_str(&format!("smith {row:06},{age},{city},GA\n"));
    }
    let table = read_csv_typed(&csv).expect("well-formed csv");
    table
        .rows()
        .iter()
        .flat_map(|record| {
            ["name", "age", "city", "state"].map(|attribute| TaskInstance::ErrorDetection {
                record: record.clone(),
                attribute: attribute.into(),
            })
        })
        .take(15)
        .collect()
}
