//! The request-lifecycle event vocabulary.
//!
//! Events are plain data: token counts as `usize`, kinds as `&'static str`
//! labels (this crate sits below the crates that own the typed enums).
//! All times are **virtual seconds** from the simulator's latency model.
//!
//! A run emits, in causal order, once per plan shard (a materialized plan
//! is one shard):
//!
//! ```text
//! RunStarted
//!   Planned*        (one per unique request first seen in the shard)
//!   Deduped*        (one per batch served by an earlier identical request)
//!   Dispatched*     (one per unique request, from its worker thread)
//!     CacheHit | RetryAttempt* | FaultInjected*   (middleware, interleaved)
//!   Completed*      (one per unique request, in plan order)
//!   PromptComponents*   (one per completion, right after it, in plan order)
//!   Parsed* / Failed*   (one per instance, in plan order)
//! Stage{plan} Stage{prompt-build} Stage{dispatch} Stage{parse}
//!                   (span totals across every shard, once)
//! RunFinished       (the run's ledger totals)
//! ```
//!
//! `Stage` events carry both the stage's **wall-clock** duration (real
//! time spent computing, the only non-reproducible field in a trace) and
//! its **virtual-time** share (billed simulator latency; zero for stages
//! that never call the model). A `Stage` with `run == 0` is a pipeline
//! phase outside any single run (e.g. the repairer's apply phase).

/// One structured request-lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run began: the plan's shape before any model call.
    RunStarted {
        /// Run id (process-wide, from [`crate::next_run_id`]).
        run: u64,
        /// Input instances covered by the plan.
        instances: usize,
        /// Planned batches (before dedup).
        batches: usize,
        /// Unique requests to dispatch (after dedup).
        requests: usize,
    },
    /// A unique request entered the plan.
    Planned {
        /// Request id.
        request: u64,
        /// Batches this request serves (> 1 when identical batches dedup).
        batches: usize,
        /// Instances this request covers across those batches.
        instances: usize,
    },
    /// A batch was served by an earlier identical request (no dispatch).
    Deduped {
        /// The request that serves the batch.
        request: u64,
        /// Index of the deduplicated batch in plan order.
        batch: usize,
    },
    /// A worker claimed the request; its virtual-time span starts.
    Dispatched {
        /// Request id.
        request: u64,
        /// Worker index (0-based; 0 for serial runs).
        worker: usize,
        /// Virtual-clock start of the request's span on that worker.
        vt_start_secs: f64,
    },
    /// The cache middleware served the request from its store: zero fresh
    /// tokens were spent.
    CacheHit {
        /// Request id (0 when issued outside an executor).
        request: u64,
    },
    /// The retry middleware re-issued the request, billing the failed
    /// attempt it replaces.
    RetryAttempt {
        /// Request id (0 when issued outside an executor).
        request: u64,
        /// 1-based attempt counter (1 = first retry).
        attempt: u32,
        /// Prompt tokens billed for the failed attempt.
        prompt_tokens: usize,
        /// Completion tokens billed for the failed attempt.
        completion_tokens: usize,
        /// Exponential backoff added to virtual latency before re-issue.
        backoff_secs: f64,
    },
    /// The fault middleware injected a serving-layer fault.
    FaultInjected {
        /// Request id (0 when issued outside an executor).
        request: u64,
        /// Fault kind label (`timeout` / `truncated-completion`).
        kind: &'static str,
    },
    /// One cascade leg of a routed request, settled in plan order by the
    /// executor's route fold. Emitted immediately before the request's
    /// `Completed` (one event per dispatched leg, in cascade order); the
    /// billed numbers here sum, across a request's legs, to exactly the
    /// `Completed` event's billed totals. A `shorted` leg — one whose
    /// route's breaker was open when it settled — bills zeros.
    RouteLeg {
        /// Request id.
        request: u64,
        /// Route model name (e.g. `sim-gpt-3.5`).
        route: String,
        /// Cascade position (0 = primary).
        index: u32,
        /// How the leg ended: `served` / `escalated` / `shorted`.
        outcome: &'static str,
        /// Fault label the leg's final response carried, if any (kept for
        /// shorted legs: it is the failure the open breaker absorbed).
        fault: Option<&'static str>,
        /// Billed retry attempts on this route (zero when shorted).
        retries: u32,
        /// Billed prompt tokens on this route (zero when shorted).
        prompt_tokens: usize,
        /// Billed completion tokens on this route (zero when shorted).
        completion_tokens: usize,
        /// Billed dollar cost at this route's own pricing (zero when
        /// shorted).
        cost_usd: f64,
        /// Billed virtual latency on this route (zero when shorted).
        latency_secs: f64,
    },
    /// The executor received the request's final response.
    Completed {
        /// Request id.
        request: u64,
        /// Worker that served it.
        worker: usize,
        /// Served from cache (bills zero fresh tokens).
        cache_hit: bool,
        /// Retry attempts folded into this response.
        retries: u32,
        /// Fault label carried by the final response, if any.
        fault: Option<&'static str>,
        /// Prompt tokens accumulated over every attempt.
        prompt_tokens: usize,
        /// Completion tokens accumulated over every attempt.
        completion_tokens: usize,
        /// Prompt tokens of the final attempt alone.
        attempt_prompt_tokens: usize,
        /// Completion tokens of the final attempt alone.
        attempt_completion_tokens: usize,
        /// Dollar cost billed for this request (0 for cache hits).
        cost_usd: f64,
        /// Virtual latency including retries and backoff.
        latency_secs: f64,
        /// Virtual-clock start of the span on the worker.
        vt_start_secs: f64,
        /// Virtual-clock end of the span on the worker.
        vt_end_secs: f64,
    },
    /// Attribution of a completion's billed prompt tokens to prompt
    /// components. Each billed prompt token belongs to exactly one
    /// component; the six fields sum to the completion's accumulated
    /// `prompt_tokens` (each retry attempt re-bills the same prompt, so
    /// per-section counts are scaled by the attempt count). A cache hit
    /// bills zero fresh tokens and therefore attributes zero everywhere.
    PromptComponents {
        /// Request id.
        request: u64,
        /// Served from cache (all component counts are zero).
        cache_hit: bool,
        /// Persona + zero-shot task specification + data-type hints.
        task_spec: usize,
        /// Contextualization-format and answer-numbering instructions,
        /// plus the ED confirm-target safeguard.
        answer_format: usize,
        /// The chain-of-thought two-line answer instruction (zero when
        /// reasoning is off).
        cot: usize,
        /// Few-shot example questions and answers.
        few_shot: usize,
        /// The batched instance questions — contextualized records with
        /// feature-selected columns.
        instances: usize,
        /// Message framing: role tags plus tokenization residue. Computed
        /// as billed-total minus the tagged sections, so sums reconcile
        /// exactly.
        framing: usize,
    },
    /// A pipeline stage finished: its aggregate wall-clock and
    /// virtual-time span.
    Stage {
        /// Run id the stage belongs to, or 0 for a pipeline phase outside
        /// any single run (e.g. the repairer's apply phase).
        run: u64,
        /// Stage label: `plan`, `prompt-build`, `dispatch`, `parse`,
        /// `repair`.
        stage: &'static str,
        /// Real time spent, in seconds. The only non-deterministic field
        /// in a trace; profile folds keep it out of their determinism
        /// contract.
        wall_secs: f64,
        /// Billed virtual latency attributed to the stage (zero for
        /// stages that never call the model).
        vt_secs: f64,
    },
    /// An instance's answer parsed out of its batch response.
    Parsed {
        /// The request that carried the answer.
        request: u64,
        /// Instance index in the input slice.
        instance: usize,
    },
    /// An instance ended with no answer, classified.
    Failed {
        /// The request that should have carried the answer.
        request: u64,
        /// Instance index in the input slice.
        instance: usize,
        /// Failure-kind label (e.g. `skipped-answer`, `context-overflow`).
        kind: &'static str,
    },
    /// A planned request was cancelled before dispatch results were used:
    /// a run budget tripped, so its instances fail without billing.
    Cancelled {
        /// Request id.
        request: u64,
        /// What tripped: `deadline` or `token-budget`.
        reason: &'static str,
    },
    /// A run budget tripped: in-flight work finishes, the rest is
    /// cancelled. Emitted once, before `RunFinished`.
    BudgetTripped {
        /// Run id.
        run: u64,
        /// What tripped: `deadline` or `token-budget`.
        reason: &'static str,
        /// Unique requests cancelled as a result.
        cancelled: usize,
    },
    /// The executor split a degraded batch in half for re-dispatch.
    BatchSplit {
        /// The fresh sub-request carrying the split group.
        request: u64,
        /// Instances in the split group.
        instances: usize,
    },
    /// A completed request was rehydrated from a run journal instead of
    /// dispatched: its original billed usage re-enters this run's ledger
    /// (so a resumed run's totals match the uninterrupted run), but no
    /// model call happened. Emitted immediately before the request's
    /// `Completed`, which carries the journaled numbers.
    Replayed {
        /// Request id.
        request: u64,
    },
    /// The run's journal reconciliation: how many planned requests were
    /// rehydrated from the journal, how many terminal entries this run
    /// appended, and how many torn tail lines recovery truncated. Emitted
    /// once per journaled run, before `RunFinished`.
    JournalState {
        /// Run id.
        run: u64,
        /// Planned requests served by journal replay.
        replayed: usize,
        /// Terminal entries appended during this run.
        written: usize,
        /// Torn final lines truncated when the journal was recovered.
        truncated: usize,
    },
    /// A serve job passed admission: the scheduler granted it a turn slot
    /// and an effective token budget (its own request clamped to the
    /// tenant's remaining allowance).
    JobAccepted {
        /// Job id (per-scheduler, starts at 1).
        job: u64,
        /// Tenant the job bills against.
        tenant: String,
    },
    /// A serve job finished and settled its bill against the tenant.
    JobCompleted {
        /// Job id.
        job: u64,
        /// Tenant the job billed against.
        tenant: String,
        /// Billed tokens (prompt + completion, fresh attempts only).
        tokens: usize,
        /// Billed dollar cost.
        cost_usd: f64,
        /// Whether the job's own deadline or token budget tripped.
        budget_tripped: bool,
    },
    /// A serve job was turned away at admission (tenant budget exhausted)
    /// or failed while running.
    JobRejected {
        /// Tenant whose job was rejected.
        tenant: String,
        /// Why the job did not complete.
        reason: String,
    },
    /// The daemon's overload policy shed a serve job at admission: the
    /// queue and in-flight slots were saturated (or the daemon was
    /// draining), so the job was rejected *before* any model work — a
    /// shed job bills exactly zero tokens (audit invariant 10).
    JobShed {
        /// Job id the admission gate assigned before shedding (ids are
        /// allocated up front so the audit can prove a shed id never
        /// completes or bills).
        job: u64,
        /// Tenant whose job was shed.
        tenant: String,
        /// Shed class: `overloaded` / `draining` / `deadline`.
        reason: String,
        /// Suggested client backoff before resubmitting, in seconds.
        retry_after_secs: f64,
        /// Jobs waiting in the admission queue at the shed decision.
        queued: usize,
        /// Jobs holding in-flight slots at the shed decision.
        inflight: usize,
    },
    /// The admission queue's occupancy changed: a job entered the bounded
    /// wait queue or was promoted out of it into an in-flight slot.
    QueueDepth {
        /// Jobs waiting in the admission queue after the change.
        queued: usize,
        /// Jobs holding in-flight slots after the change.
        inflight: usize,
    },
    /// The daemon's drain state machine advanced. Legal chain per daemon
    /// lifetime: `serving → draining → closed` (audit invariant 10).
    DrainTransition {
        /// State before: `serving` / `draining`.
        from: &'static str,
        /// State after: `draining` / `closed`.
        to: &'static str,
        /// Jobs still in flight at the transition (checkpoint candidates
        /// for `draining`; must be zero for `closed`).
        inflight: usize,
    },
    /// A tenant's SLO alert changed state (`ok` / `warning` / `paging`).
    /// Emitted by the SLO engine when a multi-window burn rate crosses an
    /// objective's threshold; the burn values are the evidence for the
    /// crossing, measured at virtual time `vt_secs` on the tenant's
    /// sequential-account clock.
    SloTransition {
        /// Tenant whose objective changed state.
        tenant: String,
        /// Objective kind label (`latency-p95` / `failure-rate` /
        /// `budget-headroom`).
        slo: &'static str,
        /// Alert state before the crossing.
        from: &'static str,
        /// Alert state after the crossing.
        to: &'static str,
        /// Long-window burn rate at the crossing (1.0 = burning the error
        /// budget exactly at the sustainable rate).
        burn_long: f64,
        /// Short-window burn rate at the crossing.
        burn_short: f64,
        /// Virtual time of the crossing on the tenant's sequential clock.
        vt_secs: f64,
    },
    /// The run finished; the ledger the run reported.
    RunFinished {
        /// Run id.
        run: u64,
        /// Input instances.
        instances: usize,
        /// Instances with a parsed answer.
        answered: usize,
        /// Instances classified as failed.
        failed: usize,
        /// Unique requests in the plan.
        requests: usize,
        /// Requests billed fresh (dispatched past the cache).
        fresh_requests: usize,
        /// Requests served from cache.
        cache_hits: usize,
        /// Billed prompt tokens (fresh attempts only).
        prompt_tokens: usize,
        /// Billed completion tokens (fresh attempts only).
        completion_tokens: usize,
        /// Billed dollar cost.
        cost_usd: f64,
        /// Billed virtual latency (sequential-account, as the paper's
        /// Table 3 measures).
        latency_secs: f64,
    },
}

impl TraceEvent {
    /// Stable snake_case name of the event variant (JSONL `"event"` tag).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::RunStarted { .. } => "run_started",
            TraceEvent::Planned { .. } => "planned",
            TraceEvent::Deduped { .. } => "deduped",
            TraceEvent::Dispatched { .. } => "dispatched",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::RetryAttempt { .. } => "retry_attempt",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::RouteLeg { .. } => "route_leg",
            TraceEvent::Completed { .. } => "completed",
            TraceEvent::PromptComponents { .. } => "prompt_components",
            TraceEvent::Stage { .. } => "stage",
            TraceEvent::Parsed { .. } => "parsed",
            TraceEvent::Failed { .. } => "failed",
            TraceEvent::Cancelled { .. } => "cancelled",
            TraceEvent::BudgetTripped { .. } => "budget_tripped",
            TraceEvent::BatchSplit { .. } => "batch_split",
            TraceEvent::Replayed { .. } => "replayed",
            TraceEvent::JournalState { .. } => "journal_state",
            TraceEvent::JobAccepted { .. } => "job_accepted",
            TraceEvent::JobCompleted { .. } => "job_completed",
            TraceEvent::JobRejected { .. } => "job_rejected",
            TraceEvent::JobShed { .. } => "job_shed",
            TraceEvent::QueueDepth { .. } => "queue_depth",
            TraceEvent::DrainTransition { .. } => "drain_transition",
            TraceEvent::SloTransition { .. } => "slo_transition",
            TraceEvent::RunFinished { .. } => "run_finished",
        }
    }

    /// The request id the event concerns, when it concerns one.
    pub fn request(&self) -> Option<u64> {
        match self {
            TraceEvent::Planned { request, .. }
            | TraceEvent::Deduped { request, .. }
            | TraceEvent::Dispatched { request, .. }
            | TraceEvent::CacheHit { request }
            | TraceEvent::RetryAttempt { request, .. }
            | TraceEvent::FaultInjected { request, .. }
            | TraceEvent::RouteLeg { request, .. }
            | TraceEvent::Completed { request, .. }
            | TraceEvent::PromptComponents { request, .. }
            | TraceEvent::Parsed { request, .. }
            | TraceEvent::Failed { request, .. }
            | TraceEvent::Cancelled { request, .. }
            | TraceEvent::BatchSplit { request, .. }
            | TraceEvent::Replayed { request } => Some(*request),
            TraceEvent::RunStarted { .. }
            | TraceEvent::Stage { .. }
            | TraceEvent::BudgetTripped { .. }
            | TraceEvent::JournalState { .. }
            | TraceEvent::JobAccepted { .. }
            | TraceEvent::JobCompleted { .. }
            | TraceEvent::JobRejected { .. }
            | TraceEvent::JobShed { .. }
            | TraceEvent::QueueDepth { .. }
            | TraceEvent::DrainTransition { .. }
            | TraceEvent::SloTransition { .. }
            | TraceEvent::RunFinished { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        let e = TraceEvent::CacheHit { request: 3 };
        assert_eq!(e.name(), "cache_hit");
        assert_eq!(e.request(), Some(3));
        let run = TraceEvent::RunStarted {
            run: 1,
            instances: 0,
            batches: 0,
            requests: 0,
        };
        assert_eq!(run.name(), "run_started");
        assert_eq!(run.request(), None);
    }
}
