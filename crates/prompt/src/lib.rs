//! # dprep-prompt
//!
//! The paper's prompt-engineering framework (§3): everything between a data
//! instance and a chat request, and everything between the model's
//! completion text and a structured answer.
//!
//! ```text
//! You are a database engineer.     ─┐
//! [Zero-shot prompt]                │ system message   (template)
//! [Few-shot prompt]                ─┘ user+assistant   (fewshot)
//! [Batch prompt]                      final user turn  (builder + batch)
//! ```
//!
//! * [`task`] — the four preprocessing tasks and their data instances,
//! * [`template`] — zero-shot instruction text: task specification, answer
//!   format, chain-of-thought reasoning, the ED target-confirmation
//!   safeguard, DI data-type hints,
//! * [`fewshot`] — few-shot examples rendered as user/assistant turns,
//! * [`batch`] — batch prompting (§3.5): random batching and cluster
//!   batching over instance embeddings,
//! * [`builder`] — assembles complete [`ChatRequest`]s
//!   (contextualization §3.3 + feature selection §3.4 included),
//! * [`parse`] — extracts per-question answers back out of completions,
//! * [`source`] — [`InstanceSource`]: a run's instances, read one at a
//!   time.
//!
//! [`ChatRequest`]: dprep_llm::ChatRequest

pub mod batch;
pub mod builder;
pub mod fewshot;
pub mod parse;
pub mod source;
pub mod task;
pub mod template;

pub use batch::{make_batches, BatchStrategy};
pub use builder::{
    build_request, build_request_sections, PromptConfig, PromptContext, PromptSections,
};
pub use fewshot::FewShotExample;
#[doc(hidden)]
pub use parse::parse_response_legacy;
pub use parse::{parse_batch, parse_batch_with, parse_response, BatchAnswers, ExtractedAnswer};
pub use source::InstanceSource;
pub use task::{AttrSpec, Task, TaskInstance};
