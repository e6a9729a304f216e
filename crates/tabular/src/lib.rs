//! # dprep-tabular
//!
//! Relational-table substrate for the `llm-data-preprocessors` workspace.
//!
//! The paper ("Large Language Models as Data Preprocessors", VLDB 2024)
//! operates on relational tables specified by schemas, where every attribute
//! is either numerical (including binary) or textual (including categorical).
//! This crate provides that data model:
//!
//! * [`Value`] — a dynamically typed cell value,
//! * [`Attribute`] / [`Schema`] — attribute metadata (name, optional
//!   description, declared type),
//! * [`Record`] — one row bound to its schema,
//! * [`Table`] — a schema plus rows, with CSV round-tripping and column
//!   statistics,
//! * [`context`] — the *contextualization grammar* of §3.3 of the paper:
//!   serializing a data instance to `[name: "value", …]` text and parsing it
//!   back. Both the prompt builder (`dprep-prompt`) and the simulated LLM
//!   (`dprep-llm`) speak this grammar, which is what lets the simulator
//!   comprehend prompts without ever touching ground truth.

pub mod context;
pub mod csv;
pub mod error;
pub mod record;
pub mod schema;
pub mod table;
pub mod value;

pub use context::{contextualize, contextualize_selected_into, parse_instance, ParsedInstance};
pub use error::TabularError;
pub use record::Record;
pub use schema::{AttrType, Attribute, Schema};
pub use table::Table;
pub use value::Value;
