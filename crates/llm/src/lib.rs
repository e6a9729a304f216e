//! # dprep-llm
//!
//! A **deterministic simulated large language model** — the workspace's
//! substitute for the OpenAI/Vicuna endpoints the paper evaluates.
//!
//! ## Why a simulator
//!
//! The paper's contribution is a *prompting framework*; its experiments
//! measure how prompt components (zero-shot task specification, chain-of-
//! thought reasoning, few-shot examples, batching, feature selection) change
//! result quality and cost across models of different capability. Those are
//! all functions of (a) the prompt text and (b) model capability — both of
//! which this crate reproduces mechanistically, offline, and reproducibly:
//!
//! * [`chat`] — the chat-completion API surface ([`ChatModel`],
//!   [`ChatRequest`], [`ChatResponse`]) with token-accurate usage metering,
//! * [`profile`] — capability profiles for `sim-gpt-4`, `sim-gpt-3.5`,
//!   `sim-gpt-3`, `sim-vicuna-13b`: knowledge coverage, per-task skill,
//!   instruction following, format adherence, pricing, and latency,
//! * [`knowledge`] — the world-knowledge corpus ("pretraining data"): facts
//!   emitted by dataset generators, of which each model deterministically
//!   memorizes a coverage-dependent subset,
//! * [`comprehend`] — prompt comprehension: the simulator parses the raw
//!   prompt text (task, target attribute, answer-format instruction,
//!   few-shot examples, batched questions) exactly as received — ground
//!   truth never crosses the API,
//! * [`solvers`] — per-task internal heuristics (error detection, data
//!   imputation, schema matching, entity matching) whose evidence
//!   combination depends on which prompt components are present,
//! * [`respond`] — response rendering and mechanistic failure injection
//!   (format violations, wrong-attribute confusion, batch misalignment,
//!   hallucinated imputations),
//! * [`model`] — [`SimulatedLlm`], wiring everything together,
//! * [`middleware`] — composable serving layers over any [`ChatModel`]:
//!   bounded retries with salted re-issue, request-hash response caching,
//!   deterministic fault injection,
//! * [`fault`] — scenario-driven fault schedules ([`FaultScenario`]
//!   presets: burst outages, rate-limit storms, latency spikes, garbled
//!   and partial completions),
//! * [`stack`] — [`StackSpec`], the one builder of a serving stack: which
//!   models (one, or a cascade), fault scenario, retry budget, cache and
//!   tracer, in the one layer order every caller serves through,
//! * [`router`] — cheap-first model-cascade routing ([`RouterLayer`]
//!   escalation across routes) and the circuit breaker: per-route health
//!   settled in plan order by [`RouteFold`], for one route or several.
//!
//! ## Determinism
//!
//! Every stochastic choice is drawn from an RNG seeded by
//! `hash(model seed, full prompt text)`, and fact memorization is a pure
//! function of `(fact key, model name, corpus seed)`. Identical requests
//! always produce identical responses.

pub mod chat;
pub mod comprehend;
pub mod fault;
pub mod knowledge;
pub mod middleware;
pub mod model;
pub mod profile;
pub mod respond;
pub mod rng;
pub mod router;
pub mod solvers;
pub mod stack;
pub mod usage;

pub use chat::{ChatModel, ChatRequest, ChatResponse, FaultKind, Message, ResponseMeta, Role};
pub use fault::{FaultEffect, FaultRule, FaultScenario};
pub use knowledge::{Fact, KnowledgeBase};
pub use middleware::{
    check_retries, is_complete, is_complete_for, request_fingerprint, warm_cache_store, CacheLayer,
    CacheStore, FaultLayer, FingerprintPrefix, MiddlewareStats, RetryLayer, StatsSnapshot,
    MAX_RETRIES,
};
pub use model::SimulatedLlm;
pub use profile::{LatencyModel, ModelProfile, Pricing, TaskSkills};
pub use router::{
    BreakerConfig, EscalationPolicy, RouteAttempt, RouteFold, RouteOutcome, RoutePending,
    RouteSettlement, RouterLayer, SettledLeg,
};
pub use stack::StackSpec;
pub use usage::{Usage, UsageTotals};
