//! # llm-data-preprocessors
//!
//! A from-scratch Rust reproduction of **"Large Language Models as Data
//! Preprocessors"** (Zhang, Dong, Xiao, Oyamada — VLDB 2024).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`tabular`] — relational data model + contextualization grammar,
//! * [`text`] — tokenizer and string-similarity substrate,
//! * [`embed`] — embeddings and k-means (cluster batching),
//! * [`ml`] — classic-ML substrate used by the baselines,
//! * [`llm`] — the deterministic simulated-LLM substrate,
//! * [`obs`] — tracing, metrics, and online ledger auditing,
//! * [`prompt`] — the paper's prompt-engineering framework (§3),
//! * [`core`] — the end-to-end preprocessing pipeline,
//! * [`datasets`] — the 12 synthetic benchmark datasets,
//! * [`baselines`] — HoloClean/HoloDetect/IMP/SMAT/Magellan/Ditto-style
//!   reimplementations,
//! * [`eval`] — metrics and the experiment harness,
//! * [`cli`] — the `dprep` commands as a library: flag parsing, the
//!   serving setup, and the daemon's job handler.
//!
//! See `examples/quickstart.rs` for a three-minute tour.

pub use dprep_baselines as baselines;
pub use dprep_cli as cli;
pub use dprep_core as core;
pub use dprep_datasets as datasets;
pub use dprep_embed as embed;
pub use dprep_eval as eval;
pub use dprep_llm as llm;
pub use dprep_ml as ml;
pub use dprep_obs as obs;
pub use dprep_prompt as prompt;
pub use dprep_tabular as tabular;
pub use dprep_text as text;
