//! # dprep-core
//!
//! The paper's data-preprocessing framework, end to end: given a chat model
//! (real or simulated), a task, labeled few-shot examples, and a stream of
//! data instances, the [`Preprocessor`] builds prompts (zero-shot
//! instruction + few-shot examples + batched questions), queries the model,
//! parses answers back out, and meters token/cost/time totals.
//!
//! * [`config`] — [`PipelineConfig`] and the Table 2 component switches,
//! * [`pipeline`] — the [`Preprocessor`] facade and its [`RunResult`],
//! * [`stream`] — the planner: [`stream::PlanStream`] batches, renders,
//!   and deduplicates requests and yields the plan in fixed-size shards,
//!   so million-row runs execute in bounded memory,
//! * [`exec`] — the executor: one run loop over plan shards
//!   ([`exec::ExecutionPlan`] is a plan built as one shard) that
//!   [`exec::Executor`] dispatches across worker threads with
//!   bit-identical output at any worker count,
//! * [`blocking`] — the EM blocking stage (§2.1) the paper's benchmarks
//!   presuppose: n-gram key blocking and embedding blocking, with pair
//!   completeness / reduction ratio evaluation,
//! * [`repair`] — detect-then-repair table cleaning, composing ED and DI,
//! * [`serve`] — multi-tenant serving: the round-robin shard turnstile,
//!   per-tenant token ledgers, the job scheduler, the live ops plane
//!   (windowed metrics + SLO burn-rate alerts + flight recorder), and the
//!   `dprep serve` NDJSON-over-TCP daemon core.

pub mod blocking;
pub mod config;
pub mod exec;
pub mod pipeline;
pub mod repair;
pub mod serve;
pub mod stream;

pub use blocking::{
    evaluate_blocking, BlockingStats, CandidatePairs, EmbeddingBlocker, NgramBlocker,
};
pub use config::{ComponentSet, PipelineConfig};
pub use exec::{
    journal_write_error, Durability, ExecStats, ExecutionOptions, ExecutionPlan, Executor,
    KillSwitch,
};
pub use pipeline::{FailureKind, Prediction, Preprocessor, RunResult};
pub use repair::{Repair, RepairOutcome, Repairer};
pub use serve::{
    result_fingerprint, Daemon, JobError, JobGrant, JobHandler, JobOutcome, JobScheduler, OpsPlane,
    OverloadPolicy, OverloadSnapshot, Rejection, ShardGate, TenantHealth, TenantLedger,
    TenantUsage, Turnstile, TurnstileHandle, WireLimits,
};
pub use stream::{PlanShard, PlanStream};
