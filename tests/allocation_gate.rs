//! Allocation gate for the prompt round trip.
//!
//! Wall time is too noisy to gate on a shared machine; allocation counts
//! are deterministic. This file counts the heap allocations (and
//! reallocations) of the three steps one `dprep detect` request takes
//! through the program — render (`PromptContext::build`), comprehension
//! (`comprehend`) and the whole simulated call (`SimulatedLlm::chat`) — on
//! one 15-question error-detection request, and fails when a count rises
//! past its ceiling: a per-field copy creeping back into the render or the
//! simulator's reading shows here first.
//!
//! The counting allocator counts only on the thread that asked for it, so
//! nothing else the test harness does is counted. It is this binary's
//! global allocator, which is why the gate lives alone in its own file.
//!
//! The ceilings are the counts measured when the gate was set plus a small
//! slack. A debug build's `chat` counts one more: a debug assertion there
//! builds the request's full text to check its token hint.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use llm_data_preprocessors::llm::comprehend::comprehend;
use llm_data_preprocessors::llm::{ChatModel, Fact, KnowledgeBase, ModelProfile, SimulatedLlm};
use llm_data_preprocessors::prompt::{PromptConfig, PromptContext, Task, TaskInstance};
use llm_data_preprocessors::tabular::csv::read_csv_typed;

/// Counts allocations and reallocations on threads whose counter is set.
struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: n allocations so far.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNT.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local `Cell` with no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread. The result is dropped by the caller, outside the count.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    COUNT.with(|count| count.set(Some(0)));
    let result = f();
    let n = COUNT.with(|count| count.replace(None)).expect("counting");
    (result, n)
}

/// The legal cities of the detect facts file.
const CITIES: [&str; 6] = [
    "atlanta", "augusta", "boston", "chicago", "denver", "houston",
];

/// Ceilings as (release, debug) allocation counts. Measured when the gate
/// was set: render 12, comprehension 36, and the whole call 148 (149 in a
/// debug build).
const RENDER_CEILING: (usize, usize) = (14, 14);
const COMPREHEND_CEILING: (usize, usize) = (40, 40);
const CHAT_CEILING: (usize, usize) = (156, 157);

fn ceiling((release, debug): (usize, usize)) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

#[test]
fn one_detect_request_allocates_within_its_ceilings() {
    // `sim-gpt-4` knowing the facts a `dprep detect` facts file states.
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
    let model = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(kb));

    // 15 cells of `name,age,city,state` rows, as `dprep detect` batches
    // them: an out-of-range age and a misspelt city among them.
    let mut csv = String::from("name,age,city,state\n");
    for (row, city) in CITIES.iter().enumerate().take(4) {
        let age = if row == 1 { 212 } else { 30 + row };
        let city = if row == 2 { "chicaqo" } else { city };
        csv.push_str(&format!("smith {row:06},{age},{city},GA\n"));
    }
    let table = read_csv_typed(&csv).expect("well-formed csv");
    let instances: Vec<TaskInstance> = table
        .rows()
        .iter()
        .flat_map(|record| {
            ["name", "age", "city", "state"].map(|attribute| TaskInstance::ErrorDetection {
                record: record.clone(),
                attribute: attribute.into(),
            })
        })
        .take(15)
        .collect();
    let batch: Vec<&TaskInstance> = instances.iter().collect();
    let context = PromptContext::new(&PromptConfig::best(Task::ErrorDetection), &[]);

    // One warm-up of each step: the model builds its lexicon view on its
    // first call.
    let (request, _) = context.build(&batch);
    assert_eq!(comprehend(&request).questions.len(), 15);
    let warm = model.chat(&request);

    let ((built, _), render) = counted(|| context.build(&batch));
    assert_eq!(built, request, "the render is deterministic");
    let (prompt, comprehension) = counted(|| comprehend(&request));
    assert_eq!(prompt.questions.len(), 15);
    let (response, chat) = counted(|| model.chat(&request));
    assert_eq!(response, warm, "the simulator is deterministic");

    let counts = [
        ("PromptContext::build", render, ceiling(RENDER_CEILING)),
        ("comprehend", comprehension, ceiling(COMPREHEND_CEILING)),
        ("SimulatedLlm::chat", chat, ceiling(CHAT_CEILING)),
    ];
    for (step, count, ceiling) in counts {
        assert!(
            count <= ceiling,
            "{step} made {count} allocations, over its ceiling of {ceiling}: {counts:?}"
        );
    }
    eprintln!("allocations per 15-question detect request: {counts:?}");
}
