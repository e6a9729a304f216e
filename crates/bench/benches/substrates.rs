//! Micro-benchmarks of the substrates: tokenizer throughput, embedding,
//! k-means, string similarity, prompt assembly, one `dprep detect`
//! request's round trip (its render, one simulated-model call, and that
//! call's comprehension and batch-homogeneity shares), and one warm
//! simulated call on each of the daemon's heaviest requests: an
//! entity-matching batch and an error-detection batch, each with its
//! dataset's few-shot examples.
//!
//! Run with `cargo bench -p dprep-bench --bench substrates`.

use std::sync::Arc;

use dprep_bench::timing::{bench, black_box, section};
use dprep_datasets::{dataset_by_name, Dataset};
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
    // The bit-parallel path (ASCII, second string at most 64 bytes), then
    // the char path past 64 bytes and on non-ASCII text.
    bench("similarity/jaro_winkler_ascii", || {
        jaro_winkler(
            black_box("sierra nevada brewing co pale ale"),
            black_box("sierra nevada pale ale brewing company"),
        )
    });
    bench("similarity/jaro_winkler_long", || {
        jaro_winkler(
            black_box("samsung galaxy tab s7 11 inch wifi 128gb android tablet mystic black"),
            black_box("samsung galaxy tab s7 11in 128 gb wi-fi android tablet in mystic black"),
        )
    });
    bench("similarity/jaro_winkler_non_ascii", || {
        jaro_winkler(
            black_box("brasserie dupont saison dupont bière"),
            black_box("saison dupont brasserie bière de ferme"),
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

    // A daemon small job's requests (scale 0.5), to a warm `sim-gpt-4`:
    // the first call reads the shared prefix, the timed ones reuse it.
    let (model, request) = fewshot_request("Beer", Task::EntityMatching);
    bench("simulator/em_chat_beer_fewshot10", || {
        model.chat(black_box(&request))
    });
    let (model, request) = fewshot_request("Hospital", Task::ErrorDetection);
    bench("simulator/ed_chat_hospital_fewshot", || {
        model.chat(black_box(&request))
    });
}

/// `sim-gpt-4` over the corpus of the named dataset (scale 0.5, seed 11),
/// and the dataset's first 15-instance batch with its few-shot examples,
/// as `PipelineConfig::best` renders it; the model has answered it once.
fn fewshot_request(name: &str, task: Task) -> (SimulatedLlm, dprep_llm::ChatRequest) {
    let ds: Dataset = dataset_by_name(name, 0.5, 11).expect("a dataset");
    assert_eq!(ds.task, task, "{name}");
    let model = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(ds.kb.clone()));
    let context = PromptContext::new(&PromptConfig::best(task), &ds.few_shot);
    let batch: Vec<&TaskInstance> = ds.instances.iter().take(15).collect();
    let (request, _) = context.build(&batch);
    model.chat(&request);
    (model, request)
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
