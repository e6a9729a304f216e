//! Allocation gates for the prompt round trip and for a whole run.
//!
//! Wall time is too noisy to gate on a shared machine; allocation counts
//! are deterministic. This file counts the heap allocations (and
//! reallocations) of two things and fails when a count rises past its
//! ceiling:
//!
//! * the three steps one `dprep detect` request takes through the program
//!   — render (`PromptContext::build`), comprehension (`comprehend`) and
//!   the whole simulated call (`SimulatedLlm::chat`) — on one 15-question
//!   error-detection request: a per-field copy creeping back into the
//!   render or the simulator's reading shows here first;
//! * a whole one-worker `Preprocessor::try_run` over a fixed 1,000-row
//!   detect table, with the peak of its live heap bytes too: a request
//!   rendered twice, or a completion text kept past its parse, shows here;
//! * the same table run the way `dprep detect` runs it, through its cell
//!   source and verdict sink: an instance kept per cell, or a reason kept
//!   for a cell the command never prints, shows in its peak.
//!
//! The counting allocator counts only on the thread that asked for it, so
//! nothing else the test harness does is counted. A one-worker run spawns
//! no thread, so its whole run is on the counting thread. The allocator
//! is this binary's global allocator, which is why the gates live alone
//! in their own file.
//!
//! The ceilings are the counts measured when each gate was set plus a
//! small slack. A debug build counts more: debug assertions build a
//! request's full text to check its token hint, and fingerprint each
//! request a second time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use llm_data_preprocessors::cli::commands::detect::{Cells, Verdict, Verdicts};
use llm_data_preprocessors::core::{PipelineConfig, Preprocessor};
use llm_data_preprocessors::llm::comprehend::comprehend;
use llm_data_preprocessors::llm::{ChatModel, Fact, KnowledgeBase, ModelProfile, SimulatedLlm};
use llm_data_preprocessors::prompt::{
    InstanceSource, PromptConfig, PromptContext, Task, TaskInstance,
};
use llm_data_preprocessors::tabular::csv::read_csv_typed;
use llm_data_preprocessors::tabular::Table;

/// Counts allocations and reallocations, and live heap bytes, on threads
/// whose counter is set.
struct Counting;

/// What a counting thread has seen since it started counting.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Allocations and reallocations.
    allocations: usize,
    /// Bytes allocated minus bytes freed on this thread.
    live: isize,
    /// The highest `live` reached.
    peak: isize,
}

thread_local! {
    /// `Some(tally)` while this thread counts.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Notes one allocation (`grown` bytes more live) or one free (`grown`
/// negative, not counted as an allocation).
fn note(allocates: bool, grown: isize) {
    let _ = TALLY.try_with(|tally| {
        if let Some(mut t) = tally.get() {
            t.allocations += usize::from(allocates);
            t.live += grown;
            t.peak = t.peak.max(t.live);
            tally.set(Some(t));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// tally is a const-initialized thread-local `Cell` with no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with what it allocated on this thread.
/// The result is dropped by the caller, outside the count.
fn tallied<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|tally| tally.set(Some(Tally::default())));
    let result = f();
    let tally = TALLY.with(|tally| tally.replace(None)).expect("counting");
    (result, tally)
}

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (result, tally) = tallied(f);
    (result, tally.allocations)
}

/// The legal cities of the detect facts file.
const CITIES: [&str; 6] = [
    "atlanta", "augusta", "boston", "chicago", "denver", "houston",
];

/// Ceilings as (release, debug) allocation counts. Measured when the gate
/// was set: render 12, comprehension 36, and the whole call 148 (149 in a
/// debug build). The render lost one reallocation (its message vector is
/// allocated at its final size) and the call 30 (edit distances reuse one
/// row), so they read 11 and 118 (119) now.
const RENDER_CEILING: (usize, usize) = (13, 13);
const COMPREHEND_CEILING: (usize, usize) = (40, 40);
const CHAT_CEILING: (usize, usize) = (124, 125);

fn ceiling((release, debug): (usize, usize)) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

#[test]
fn one_detect_request_allocates_within_its_ceilings() {
    let model = detect_model();
    // 15 cells of `name,age,city,state` rows, as `dprep detect` batches
    // them: an out-of-range age and a misspelt city among them.
    let instances: Vec<TaskInstance> = detect_cells(&detect_table(4)).take(15).collect();
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

/// Ceilings of the whole run as (release, debug): allocations, then peak
/// live heap bytes. Measured when the gate was set: 40,826 allocations
/// (41,093 in a debug build) and a peak of 1,234,638 live bytes (in
/// both). The allocation slack is under one allocation per request, as
/// the counts repeat exactly: building a request around a second render
/// of its body instead of the one the survey kept read 41,103 (41,370),
/// and keeping every completion text past its parse peaked at 2,069,710
/// bytes. A shard's responses then stayed in dispatch order instead of
/// moving into a map, and the counts fell to 40,818 (41,085) and
/// 1,029,287 bytes; the ceilings fell with them.
const RUN_ALLOCATIONS_CEILING: (usize, usize) = (40_992, 41_262);
const RUN_PEAK_BYTES_CEILING: (usize, usize) = (1_090_000, 1_090_000);
/// What the one-worker 1,000-row run held at its peak before the
/// verdict sink: the slice run's peak when the gate was set. With the
/// instance vector it ran on, that is what `dprep detect` used to hold.
const SLICE_RUN_PEAK_BYTES: usize = 1_234_638;

#[test]
fn one_worker_detect_run_allocates_within_its_ceilings() {
    let model = detect_model();
    // 1,000 rows, 4,000 cells: 267 requests of 15 questions.
    let instances: Vec<TaskInstance> = detect_cells(&detect_table(1_000)).collect();
    let config = PipelineConfig::best(Task::ErrorDetection);
    assert_eq!(
        config.workers, 1,
        "one worker: the whole run is on this thread"
    );
    let preprocessor = Preprocessor::new(&model, config);
    // The model builds its lexicon view on its first call; warm it so the
    // count is the run's own.
    let warm = preprocessor.try_run(&instances[..1], &[]).expect("a run");
    assert_eq!(warm.predictions.len(), 1);

    let (result, tally) = tallied(|| preprocessor.try_run(&instances, &[]));
    let result = result.expect("a run");
    assert_eq!(result.usage.requests, 267);
    let flagged = result
        .predictions
        .iter()
        .filter(|p| p.as_yes_no() == Some(true))
        .count();
    assert!(flagged > 0, "the table holds errors");

    let peak = tally.peak.max(0) as usize;
    let counts = [
        (
            "allocations",
            tally.allocations,
            ceiling(RUN_ALLOCATIONS_CEILING),
        ),
        ("peak live bytes", peak, ceiling(RUN_PEAK_BYTES_CEILING)),
    ];
    for (what, count, ceiling) in counts {
        assert!(
            count <= ceiling,
            "the run's {what} read {count}, over its ceiling of {ceiling}: {counts:?}"
        );
    }
    eprintln!("one-worker 1,000-row detect run: {counts:?}");
}

/// Ceilings of the run through `dprep detect`'s source and sink, as
/// (release, debug): allocations, then peak live heap bytes. Measured when
/// the gate was set: 44,829 allocations (45,096 in a debug build), about
/// one more per cell than the slice run, for the instance each render
/// builds, and a peak of 708,993 live bytes (in both), most of it the
/// batch bodies the survey keeps. Before the sink, the command held its
/// instance vector, 400,000 bytes, and the slice run's 1,234,638.
const DETECT_ALLOCATIONS_CEILING: (usize, usize) = (45_003, 45_273);
const DETECT_PEAK_BYTES_CEILING: (usize, usize) = (730_000, 730_000);

#[test]
fn one_worker_detect_command_run_allocates_within_its_ceilings() {
    let model = detect_model();
    let table = detect_table(1_000);
    let attrs: Vec<String> = ["name", "age", "city", "state"].map(String::from).into();
    let preprocessor = Preprocessor::new(&model, PipelineConfig::best(Task::ErrorDetection));
    // Warm the model's lexicon view, as the slice run does.
    let first: Vec<TaskInstance> = detect_cells(&table).take(1).collect();
    preprocessor.try_run(&first, &[]).expect("a run");

    let (result, tally) = tallied(|| {
        let cells = Cells::new(&table, &attrs)?;
        let verdicts = Verdicts::new(cells.len(), false);
        preprocessor.try_run_into(&cells, verdicts, &[])
    });
    let result = result.expect("a run");
    assert_eq!(result.usage.requests, 267);
    let flagged = (0..4_000)
        .filter(|&cell| result.predictions.verdict(cell) == Verdict::Error)
        .count();
    assert!(flagged > 0, "the table holds errors");

    // What the command held before: every cell's instance, and the slice
    // run over them.
    let (instances, built) = tallied(|| detect_cells(&table).collect::<Vec<_>>());
    drop(instances);
    let before = built.peak as usize + SLICE_RUN_PEAK_BYTES;
    let peak = tally.peak.max(0) as usize;
    assert!(
        peak < before / 2,
        "the run peaked at {peak} live bytes, not under half of the {before} it held before"
    );
    let counts = [
        (
            "allocations",
            tally.allocations,
            ceiling(DETECT_ALLOCATIONS_CEILING),
        ),
        ("peak live bytes", peak, ceiling(DETECT_PEAK_BYTES_CEILING)),
    ];
    for (what, count, ceiling) in counts {
        assert!(
            count <= ceiling,
            "the run's {what} read {count}, over its ceiling of {ceiling}: {counts:?}"
        );
    }
    eprintln!("one-worker 1,000-row `dprep detect` run: {counts:?}, before: {before}");
}

/// `sim-gpt-4` knowing the facts a `dprep detect` facts file states.
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

/// A `rows`-row `name,age,city,state` table: every seventh row's age is
/// out of range and every eleventh row's city is misspelt (row 2's is
/// `chicaqo`).
fn detect_table(rows: usize) -> Table {
    let mut csv = String::from("name,age,city,state\n");
    for row in 0..rows {
        let age = if row % 7 == 1 { 212 } else { 30 + row % 60 };
        let city = if row % 11 == 2 {
            let city = CITIES[(row + 1) % CITIES.len()];
            format!("{}q{}", &city[..5], &city[6..])
        } else {
            CITIES[row % CITIES.len()].to_string()
        };
        csv.push_str(&format!("smith {row:06},{age},{city},GA\n"));
    }
    read_csv_typed(&csv).expect("well-formed csv")
}

/// Every cell of `table`, row by row, as `dprep detect` checks them.
fn detect_cells(table: &Table) -> impl Iterator<Item = TaskInstance> + '_ {
    table.rows().iter().flat_map(|record| {
        ["name", "age", "city", "state"].map(|attribute| TaskInstance::ErrorDetection {
            record: record.clone(),
            attribute: attribute.into(),
        })
    })
}
