//! The executor: one run loop over plan shards, dispatching each shard
//! across worker threads and reassembling results in plan order.
//!
//! Planning — batching, context-window fitting, rendering, dedup, and
//! fingerprinting — happens in [`crate::stream`]. A [`PlanStream`] yields
//! the plan in shards; an [`ExecutionPlan`] is the same survey with the
//! whole plan as its one shard, surveyed before the run. Both run through
//! the same loop: for each shard, [`Executor`] dispatches the shard's
//! unique requests across `N` worker threads (`std::thread::scope`,
//! work-stealing off an atomic cursor), folds their terminals into the
//! ledger in plan order, then parses the shard's batches in plan order.
//! After the last shard, the degradation ladder re-asks what the parse
//! left unanswered through the same send and fold, on the calling thread.
//!
//! The work beside each model call happens on the worker that makes it:
//! the worker builds the request (around the body the survey kept, or one
//! it renders), sends it, parses the completion into per-position answers,
//! and drops the request. The plan-order fold and parse loop then only
//! bill and move answers into predictions.
//!
//! Because batch membership, request payloads, and deduplication are all
//! fixed by the survey before the first dispatch, and aggregation walks
//! the plan rather than completion order, a run with 8 workers is
//! bit-identical to a run with 1 — same predictions, same usage totals,
//! same counters. Parallelism changes wall-clock time and nothing else.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dprep_llm::middleware::expected_answers;
use dprep_llm::{
    is_complete_for, request_fingerprint, ChatModel, ChatRequest, ChatResponse, FaultKind,
    RouteFold, RouteOutcome, RoutePending, SettledLeg, Usage, UsageTotals,
};
use dprep_obs::{
    DurableJournal, JournalEntry, MetricsRecorder, NullTracer, ResumedJournal, RouteLegRecord,
    TerminalKind, TraceEvent, Tracer,
};
use dprep_prompt::{build_request, parse_batch, BatchAnswers, FewShotExample, TaskInstance};

use crate::config::PipelineConfig;
use crate::pipeline::{FailureKind, Prediction, RunResult};
use crate::serve::ShardGate;
use crate::stream::{PlanShard, PlanStream, RenderScratch};

/// One planned batch: which instances it covers and which unique request
/// serves it.
#[derive(Debug, Clone)]
pub struct PlannedBatch {
    /// Indices into the input instance slice, in prompt question order
    /// (question `k` is instance `instance_indices[k - 1]`).
    pub instance_indices: Vec<usize>,
    /// Index into the plan's unique requests (first-occurrence order) of
    /// the request that serves this batch. Several batches share an index
    /// when their prompts are byte-identical.
    pub request_index: usize,
}

/// Everything about a run that is decided before the model is called: the
/// [`PlanStream`] survey with the whole plan as its one shard. [`build`]
/// finishes all planning before it returns, and keeps every unique
/// request's body for the worker that will send it; the accessors read
/// that shard.
///
/// [`build`]: ExecutionPlan::build
#[derive(Debug)]
pub struct ExecutionPlan<'a> {
    survey: PlanStream<'a>,
    shard: PlanShard,
}

impl<'a> ExecutionPlan<'a> {
    /// Plans a run: batches `instances` per the configuration (clamping the
    /// batch size to what fits the model's context window when
    /// `fit_context` is set), builds one request per batch, and deduplicates
    /// identical requests so each is dispatched once.
    pub fn build<M: ChatModel + ?Sized>(
        model: &M,
        config: &PipelineConfig,
        instances: &'a [TaskInstance],
        examples: &[FewShotExample],
    ) -> ExecutionPlan<'a> {
        let mut survey = PlanStream::new(model, config, instances, examples, usize::MAX);
        let shard = survey.next_shard().unwrap_or_default();
        ExecutionPlan { survey, shard }
    }

    /// The planned batches, in dispatch order.
    pub fn batches(&self) -> &[PlannedBatch] {
        &self.shard.batches
    }

    /// The unique requests the plan dispatches (deduplicated), each
    /// rendered on demand, as the worker that sends it builds it. For tests
    /// and inspection: a run builds each request once, on its worker, and
    /// this leaves the plan's kept bodies in place.
    pub fn requests(&self) -> Vec<ChatRequest> {
        self.rendered()
            .into_iter()
            .map(|(request, _)| request)
            .collect()
    }

    /// Per-request prompt-component token counts, aligned with
    /// [`requests`](Self::requests) and rendered on demand like them.
    /// Order: task-spec, answer-format, cot, few-shot, instances (message
    /// framing is the billed remainder).
    pub fn sections(&self) -> Vec<[usize; 5]> {
        self.rendered()
            .into_iter()
            .map(|(_, sections)| sections)
            .collect()
    }

    /// Every unique request with its section counts, freshly rendered.
    fn rendered(&self) -> Vec<(ChatRequest, [usize; 5])> {
        let mut scratch = RenderScratch::default();
        (0..self.shard.fingerprints.len())
            .map(|i| self.survey.render_request(&self.shard, i, &mut scratch))
            .collect()
    }

    /// Batches whose request is served by an earlier identical batch.
    pub fn deduped_batches(&self) -> usize {
        self.survey.deduped_batches()
    }

    /// `request_fingerprint` of each unique request, aligned with
    /// [`requests`](Self::requests).
    pub fn fingerprints(&self) -> &[u64] {
        &self.shard.fingerprints
    }

    /// The plan fingerprint a run journal is recorded under (see
    /// [`PlanStream::fingerprint`]): a resumed run refuses a journal whose
    /// plan fingerprint differs.
    pub fn fingerprint(&self) -> u64 {
        self.survey.fingerprint()
    }
}

/// How the executor dispatches a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionOptions {
    /// Worker threads. 1 = serial in the calling thread (no threads
    /// spawned); the output is identical either way.
    pub workers: usize,
    /// Virtual-time deadline for the run, in seconds. The request whose
    /// billed latency reaches the deadline still completes; every later
    /// unique request is cancelled unbilled and its instances fail with
    /// [`FailureKind::BudgetExhausted`].
    pub deadline_secs: Option<f64>,
    /// Ceiling on billed tokens (prompt + completion) for the run, with the
    /// same reach-then-stop semantics as `deadline_secs`. Cache hits bill
    /// zero and never consume budget.
    pub token_budget: Option<usize>,
    /// Graceful batch degradation: a multi-instance batch left with
    /// unanswered instances is deterministically split into smaller
    /// sub-batches (halving down to single instances) before any instance
    /// is marked failed.
    pub degrade: bool,
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions {
            workers: 1,
            deadline_secs: None,
            token_budget: None,
            degrade: false,
        }
    }
}

/// Serving-layer counters for one run, aggregated from response metadata in
/// plan order (worker-count independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Unique requests dispatched to the model.
    pub requests: usize,
    /// Batches served by deduplication against an identical earlier batch.
    pub deduped: usize,
    /// Total retry attempts spent by the retry middleware on *fresh*
    /// responses (a cache hit replays its recorded metadata without
    /// spending anything, so it does not count here).
    pub retries: usize,
    /// Responses served from the cache middleware.
    pub cache_hits: usize,
    /// Fresh responses that still carried a fault after all middleware ran.
    pub faulted: usize,
    /// Unique requests cancelled unbilled by a tripped deadline or token
    /// budget.
    pub cancelled: usize,
    /// Degradation sub-batches dispatched after splitting a failing batch.
    pub splits: usize,
    /// Instances recovered by a degradation sub-batch after the original
    /// batch left them unanswered.
    pub split_recovered: usize,
}

impl ExecStats {
    /// Folds another run's counters into this one (multi-pass pipelines).
    pub fn merge(&mut self, other: &ExecStats) {
        self.requests += other.requests;
        self.deduped += other.deduped;
        self.retries += other.retries;
        self.cache_hits += other.cache_hits;
        self.faulted += other.faulted;
        self.cancelled += other.cancelled;
        self.splits += other.splits;
        self.split_recovered += other.split_recovered;
    }
}

/// Durable-run wiring for an executor: an optional journal that records
/// every terminal request, and (on resume) a replay map of completed
/// requests recovered from a previous journal plus the plan fingerprint
/// that journal was recorded under.
///
/// A `Durability` value is shared across the sequential runs of a
/// multi-pass pipeline (clean = detect + impute): the expected plan
/// fingerprint is validated once, by the first run — later passes derive
/// deterministically from the first run's results and are covered by it.
/// Each replay entry is consumed by the first request that matches it;
/// later duplicates of the same fingerprint dispatch normally and are
/// served by the (journal-warmed) cache layer, exactly as they would have
/// been in the uninterrupted run.
#[derive(Debug, Clone, Default)]
pub struct Durability {
    journal: Option<Arc<DurableJournal>>,
    replay: Arc<Mutex<HashMap<u64, JournalEntry>>>,
    expected_plan: Arc<Mutex<Option<u64>>>,
    /// Torn-tail truncations performed by a recovery whose journal handle
    /// is not carried here (read-only resume, or resume into a different
    /// journal file). Drained into the first run's `JournalState`.
    truncated: Arc<Mutex<usize>>,
    /// Whether this durability was built from a recovered journal (kept
    /// separate from the replay map, which drains as entries are consumed).
    resumed: bool,
}

impl Durability {
    /// Durability that neither journals nor replays (the default).
    pub fn new() -> Self {
        Durability::default()
    }

    /// Appends every terminal request to `journal`.
    pub fn with_journal(mut self, journal: Arc<DurableJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Rehydrates completed requests from recovered journal `entries` and
    /// arms the plan-fingerprint check: the first run must compute exactly
    /// `expected_plan` or it is rejected before any request executes.
    /// Cancelled entries are ignored — they billed nothing and re-execute.
    pub fn with_replay(mut self, entries: &[JournalEntry], expected_plan: u64) -> Self {
        let map: HashMap<u64, JournalEntry> = entries
            .iter()
            .filter(|e| e.kind == TerminalKind::Completed)
            .map(|e| (e.fingerprint, e.clone()))
            .collect();
        self.replay = Arc::new(Mutex::new(map));
        self.expected_plan = Arc::new(Mutex::new(Some(expected_plan)));
        self.resumed = true;
        self
    }

    /// Records `count` torn-tail truncations performed by a recovery whose
    /// journal handle is not attached here (read-only resume, or resume
    /// into a different journal file). Reported once in `JournalState`.
    pub fn with_truncated(self, count: usize) -> Self {
        *self.truncated.lock().expect("truncated lock") = count;
        self
    }

    /// The journal, when one is attached.
    pub fn journal(&self) -> Option<&Arc<DurableJournal>> {
        self.journal.as_ref()
    }

    /// Whether runs under this durability replay a recovered journal.
    pub fn resumes(&self) -> bool {
        self.resumed
    }

    /// Opens the durability a run executes under, identified by its
    /// `model` name, config descriptor and `seed`: `journal` is the file
    /// to append every terminal request to, `resume` the journal to
    /// recover and replay.
    ///
    /// A recovered journal is rejected unless its header's model, config
    /// and seed all match; the executor checks the header's plan
    /// fingerprint against the actual plan before any request runs. A
    /// recovered file with no header (a crash between creating the journal
    /// and writing its first line) has nothing to replay, and the run
    /// starts fresh. When `journal` names the recovered file, appends
    /// extend it; another `journal` starts fresh, and no `journal` replays
    /// read-only. Opening `journal` up front doubles as its writability
    /// probe.
    pub fn open(
        journal: Option<&Path>,
        resume: Option<&Path>,
        model: &str,
        config: &str,
        seed: u64,
    ) -> Result<OpenedDurability, String> {
        let fresh = |path: &Path| {
            DurableJournal::fresh(path, model, config, seed)
                .map(Arc::new)
                .map_err(|e| format!("cannot create journal {path:?}: {e}"))
        };
        let unresumed = |warning| -> Result<OpenedDurability, String> {
            let mut durability = Durability::new();
            if let Some(path) = journal {
                durability = durability.with_journal(fresh(path)?);
            }
            Ok(OpenedDurability {
                durability,
                warm: Vec::new(),
                warning,
            })
        };
        let Some(resume_path) = resume else {
            return unresumed(None);
        };
        let ResumedJournal {
            journal: recovered,
            header,
            entries,
            warning,
        } = DurableJournal::resume(resume_path)?;
        let Some(header) = header else {
            drop(recovered);
            return unresumed(warning);
        };
        let mismatch = |what: &str, recorded: &str, current: &str| {
            format!(
                "journal {resume_path:?} was recorded under {what} {recorded:?} \
                 but this run uses {current:?}; refusing to resume"
            )
        };
        if header.model != model {
            return Err(mismatch("model", &header.model, model));
        }
        if header.config != config {
            return Err(mismatch("config", &header.config, config));
        }
        if header.seed != seed {
            return Err(mismatch(
                "seed",
                &header.seed.to_string(),
                &seed.to_string(),
            ));
        }
        let replay = Durability::new().with_replay(&entries, header.plan);
        // The recovered handle carries its torn-tail truncation count into
        // the run's `JournalState`; when it is dropped, the durability
        // carries the count instead.
        let truncated = recovered.truncated();
        let durability = match journal {
            Some(path) if same_path(path, resume_path) => replay.with_journal(Arc::new(recovered)),
            Some(path) => replay.with_journal(fresh(path)?).with_truncated(truncated),
            None => replay.with_truncated(truncated),
        };
        Ok(OpenedDurability {
            durability,
            warm: entries,
            warning,
        })
    }

    /// Whether runs under this durability journal or replay at all.
    fn active(&self) -> bool {
        self.journal.is_some() || self.resumed
    }

    /// Consumes the replay entry for `fingerprint`, if one remains.
    fn take_replay(&self, fingerprint: u64) -> Option<JournalEntry> {
        self.replay
            .lock()
            .expect("replay lock")
            .remove(&fingerprint)
    }

    /// Drains the recovery-time truncation count (reported at most once).
    fn take_truncated(&self) -> usize {
        std::mem::take(&mut *self.truncated.lock().expect("truncated lock"))
    }
}

/// A run's durability as [`Durability::open`] opened it.
#[derive(Debug)]
pub struct OpenedDurability {
    /// Journal and replay wiring for the executor.
    pub durability: Durability,
    /// The recovered entries, to warm-start a response cache with; empty
    /// unless a journal is replayed.
    pub warm: Vec<JournalEntry>,
    /// The recovery's note (a torn tail truncated, an empty file), if any.
    pub warning: Option<String>,
}

/// Whether two paths name the same file. Falls back to literal equality
/// when either path cannot be canonicalized (e.g. does not exist yet): a
/// nonexistent journal target cannot be the recovered file.
fn same_path(a: &Path, b: &Path) -> bool {
    if a == b {
        return true;
    }
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(ca), Ok(cb)) => ca == cb,
        _ => false,
    }
}

/// A seeded abort trigger for kill-point drills: fires after the Nth
/// terminal event reaches the journal, making the executor return early
/// exactly where a crash at that point would have stopped it (minus the
/// process exit). The partial [`RunResult`] it returns is what a crashed
/// process would never have delivered — drills discard it and assert that
/// a resumed run reproduces the uninterrupted one.
#[derive(Debug, Clone)]
pub struct KillSwitch {
    countdown: Arc<AtomicUsize>,
    fired: Arc<AtomicBool>,
}

impl KillSwitch {
    /// A switch that fires after the `n`th terminal event (`n >= 1`).
    pub fn after(n: usize) -> KillSwitch {
        assert!(n >= 1, "a kill switch must allow at least one terminal");
        KillSwitch {
            countdown: Arc::new(AtomicUsize::new(n)),
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A switch that never fires on its own: the countdown is parked at
    /// `usize::MAX` so terminal events cannot plausibly drain it, and only
    /// an explicit [`trigger`](Self::trigger) fires it. Serve drains hand
    /// one of these to every in-flight job as its checkpoint halt handle.
    pub fn unarmed() -> KillSwitch {
        KillSwitch {
            countdown: Arc::new(AtomicUsize::new(usize::MAX)),
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Fires the switch immediately. The owning run stops at its next
    /// journaled terminal boundary, exactly as if the countdown had just
    /// drained there.
    pub fn trigger(&self) {
        self.fired.store(true, Ordering::Relaxed);
    }

    /// Whether the switch has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// Counts one terminal event; true once the switch has fired.
    fn on_terminal(&self) -> bool {
        if !self.fired() && self.countdown.fetch_sub(1, Ordering::Relaxed) <= 1 {
            self.fired.store(true, Ordering::Relaxed);
        }
        self.fired()
    }
}

/// Dispatches an [`ExecutionPlan`] and reassembles a [`RunResult`].
#[derive(Clone)]
pub struct Executor {
    options: ExecutionOptions,
    tracer: Arc<dyn Tracer>,
    durability: Durability,
    kill: Option<KillSwitch>,
    gate: Option<Arc<dyn ShardGate>>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            options: ExecutionOptions::default(),
            tracer: Arc::new(NullTracer),
            durability: Durability::default(),
            kill: None,
            gate: None,
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// An executor with the given options.
    pub fn new(options: ExecutionOptions) -> Self {
        Executor {
            options,
            ..Executor::default()
        }
    }

    /// A serial executor (`workers == 1`).
    pub fn serial() -> Self {
        Executor::default()
    }

    /// Streams request-lifecycle events into `tracer` during
    /// [`run`](Self::run) and [`try_run_stream`](Self::try_run_stream):
    /// run start/finish, planned/deduped requests, live per-worker
    /// dispatches with virtual-time spans, completions, and per-instance
    /// parse/failure outcomes. Wire the *same* tracer into the middleware
    /// stack (`with_tracer` on the retry/cache/fault layers) so their
    /// events correlate by request id.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Journals terminal requests and/or replays a recovered journal
    /// during runs (see [`Durability`]).
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Arms a kill-point drill: the run aborts right after the Nth terminal
    /// event is journaled (see [`KillSwitch`]).
    pub fn with_kill_switch(mut self, kill: KillSwitch) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Brackets every plan-shard iteration with `gate.acquire()` /
    /// `gate.release()`, so concurrent jobs sharing a [`ShardGate`] (e.g. a
    /// serve turnstile) interleave at shard granularity. Each turn still
    /// uses the executor's full worker pool, and shard boundaries don't
    /// affect results, so gating never changes a run's output — only when
    /// its shards execute. An [`ExecutionPlan`] is one shard, so its run
    /// takes exactly one turn.
    pub fn with_shard_gate(mut self, gate: Arc<dyn ShardGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Runs the plan against `model`.
    ///
    /// With `workers > 1`, requests are claimed off an atomic cursor by
    /// scoped threads; each response lands in its plan slot, and all
    /// aggregation (usage totals, counters, per-instance predictions)
    /// happens afterwards in plan order — so the result is bit-identical to
    /// a serial run: every total, counter, the metrics snapshot and the
    /// journal are worker-count independent. A trace is not, past one
    /// worker: the `dispatched` events and the middleware's own
    /// (`retry_attempt`, `cache_hit`, `fault_injected`) are recorded live
    /// on the worker threads and interleave in claim order, and each
    /// `completed` event carries the `worker` and `vt_start_secs` /
    /// `vt_end_secs` of the thread that claimed its request.
    ///
    /// **Ledger semantics.** [`UsageTotals`] bills *fresh* model work only:
    /// a cache-hit response replays recorded text and metadata but spends
    /// zero tokens, zero dollars, and zero virtual time, so it contributes
    /// nothing (its original attempt was billed by the run that missed).
    /// Likewise `stats.retries` / `stats.faulted` count fresh responses
    /// only. Context-overflow classification compares a **single attempt's**
    /// prompt size against the window ([`dprep_llm::ResponseMeta`]'s
    /// `attempt_usage`), never the retry-accumulated total.
    ///
    /// # Panics
    /// Panics when durability rejects the run ([`try_run`](Self::try_run)
    /// returns the rejection as an error instead).
    pub fn run<M: ChatModel + ?Sized>(&self, model: &M, plan: &ExecutionPlan<'_>) -> RunResult {
        self.try_run(model, plan).expect("durable run rejected")
    }

    /// [`run`](Self::run), with durability failures surfaced as errors: a
    /// resumed journal whose plan fingerprint does not match this plan is
    /// rejected **before any request executes**, and a journal write
    /// failure aborts the run at the request it could not record.
    pub fn try_run<M: ChatModel + ?Sized>(
        &self,
        model: &M,
        plan: &ExecutionPlan<'_>,
    ) -> Result<RunResult, String> {
        self.run_shards(model, Shards::Plan(&plan.survey, Some(&plan.shard)))
    }

    /// [`try_run`](Self::try_run) over a streaming plan: consumes `stream`
    /// shard by shard — dispatching, folding, and parsing each shard before
    /// the next — so the executor holds at most one shard of batches plus
    /// the responses still referenced by a later batch, instead of the
    /// whole plan. Each request is built on the worker that sends it and
    /// lives only while it is in flight: in the first shard around the
    /// body the survey kept, in later shards around a body the worker
    /// renders. The worker also parses the completion, so the plan-order
    /// fold and parse only bill and move answers.
    ///
    /// **Shard size.** Predictions, usage totals, serving counters, the
    /// metrics snapshot and the journal bytes are the same at every shard
    /// size and worker count, f64 bits included: dedup and batch
    /// membership come from the same survey, unique requests are folded in
    /// the same global plan order (each worker's virtual clock persists
    /// across shards), and the degradation ladder runs once, after the last
    /// shard, so every primary request is billed before any ladder request
    /// and the budget gauge and the breaker advance along the same
    /// sequence. A journal written at one shard size resumes bit-identically
    /// at another. In a trace, `Planned`/`Deduped` arrive per shard (same
    /// payloads, global totals), ladder events follow the last batch's
    /// `parsed`/`failed` events, and the four `Stage` events arrive once at
    /// the end with wall-clock totals across every shard: `plan` and
    /// `prompt-build` are the survey's (plus the shard bookkeeping),
    /// `dispatch` holds the workers' renders, model calls and parses, and
    /// `parse` the plan-order loop that moves answers into predictions
    /// (and parses what settlement replaced) and the ladder. Their
    /// `vt_secs` split the billed latency: `dispatch` holds the primary
    /// requests' and `parse` the ladder's, so the four sum to
    /// `usage.latency_secs`.
    pub fn try_run_stream<M: ChatModel + ?Sized>(
        &self,
        model: &M,
        stream: &mut PlanStream<'_>,
    ) -> Result<RunResult, String> {
        self.run_shards(model, Shards::Stream(stream))
    }

    /// The run loop behind [`try_run`](Self::try_run) and
    /// [`try_run_stream`](Self::try_run_stream): per shard, dispatch its
    /// unique requests, fold every terminal in plan order, then parse every
    /// batch in plan order; after the last shard, run the ladder.
    fn run_shards<M: ChatModel + ?Sized>(
        &self,
        model: &M,
        mut shards: Shards<'_, '_>,
    ) -> Result<RunResult, String> {
        let survey = shards.survey();
        let plan_fp = survey.fingerprint();
        let n_instances = survey.n_instances();
        let n_requests = survey.n_requests();
        let n_batches = survey.n_batches();
        let deduped = survey.deduped_batches();
        if let Some(expected) = self
            .durability
            .expected_plan
            .lock()
            .expect("plan lock")
            .take()
        {
            if expected != plan_fp {
                return Err(format!(
                    "journal was recorded for plan {expected:016x} but this run plans \
                     {plan_fp:016x} (model, config, data, or seed changed); refusing to resume"
                ));
            }
        }
        if let Some(journal) = &self.durability.journal {
            journal
                .ensure_header(plan_fp)
                .map_err(|e| journal_write_error(journal.path(), &e))?;
        }
        let written_before = self
            .durability
            .journal
            .as_deref()
            .map_or(0, DurableJournal::written);
        let run_id = dprep_obs::next_run_id();
        let base_id = dprep_obs::reserve_request_ids(n_requests);
        let recorder = MetricsRecorder::new();
        // Plan-order events feed both the run's own metrics snapshot and
        // the external tracer.
        let emit = |event: TraceEvent| {
            recorder.record(&event);
            self.tracer.record(&event);
        };

        emit(TraceEvent::RunStarted {
            run: run_id,
            instances: n_instances,
            batches: n_batches,
            requests: n_requests,
        });

        let mut predictions = vec![Prediction::Failed(FailureKind::SkippedAnswer); n_instances];
        let mut ledger = Ledger {
            usage: UsageTotals::default(),
            stats: ExecStats {
                requests: n_requests,
                deduped,
                ..ExecStats::default()
            },
            gauge: BudgetGauge::new(self.options.deadline_secs, self.options.token_budget),
            breaker: RouteFold::default(),
            replayed: 0,
        };
        let mut request_cancelled = vec![false; n_requests];
        let mut batch_seen = vec![false; n_requests];
        // Responses that a batch in a not-yet-parsed shard still references;
        // bounded by how far dedup reaches across shards, not by plan size.
        let mut live: HashMap<usize, DispatchedResponse> = HashMap::new();
        // One virtual clock per thread a shard can use, persisting across
        // shards, so the virtual-time span layout matches one uninterrupted
        // dispatch of the whole plan. No shard spawns more threads than the
        // plan has unique requests, whatever `workers` asks for.
        let mut clocks = vec![0.0; self.options.workers.min(n_requests).max(1)];
        // Batches the parse left with unanswered instances, in plan order,
        // for the degradation ladder after the last shard.
        let mut ladder: Vec<MissedBatch> = Vec::new();
        let mut dispatch_wall_secs = 0.0;
        let mut dispatch_vt_secs = 0.0;
        let mut parse_wall_secs = 0.0;
        let mut ladder_vt_secs = 0.0;
        let mut killed = false;

        while !shards.is_exhausted() {
            // One gate turn spans the whole shard iteration — rendering,
            // dispatch, fold, and parse — and is released even on an
            // error return, so a failing job never wedges the rotation.
            let _turn = self.gate.as_deref().map(GateTurn::acquire);
            let shard = shards.next().expect("a shard remains");
            let survey = shards.survey();
            for i in 0..shard.fingerprints.len() {
                let g = shard.first_request + i;
                emit(TraceEvent::Planned {
                    request: base_id + g as u64,
                    batches: survey.batches_per(g),
                    instances: survey.instances_per(g),
                });
            }
            for (offset, batch) in shard.batches.iter().enumerate() {
                if batch_seen[batch.request_index] {
                    emit(TraceEvent::Deduped {
                        request: base_id + batch.request_index as u64,
                        batch: shard.first_batch + offset,
                    });
                } else {
                    batch_seen[batch.request_index] = true;
                }
            }

            let dispatch_started = std::time::Instant::now();
            let dispatched = self.dispatch_slice(
                model,
                survey,
                &shard,
                base_id + shard.first_request as u64,
                &mut clocks,
            );
            dispatch_wall_secs += dispatch_started.elapsed().as_secs_f64();

            // Usage and serving counters: once per unique request, plan
            // order. Cache hits bill zero fresh tokens/cost/latency — the
            // run that missed already paid for the attempt this response
            // replays.
            let vt_before_fold = ledger.usage.latency_secs;
            for (i, mut d) in dispatched.into_iter().enumerate() {
                let g = shard.first_request + i;
                let (cancelled, fired) = self.fold_terminal(
                    model,
                    base_id + g as u64,
                    shard.fingerprints[i],
                    &mut d,
                    &mut ledger,
                    &emit,
                )?;
                request_cancelled[g] = cancelled;
                if !cancelled {
                    live.insert(g, d);
                }
                if fired {
                    killed = true;
                    break;
                }
            }
            dispatch_vt_secs += ledger.usage.latency_secs - vt_before_fold;
            if killed {
                break;
            }

            // Predictions: move each batch's answers into place and
            // classify the misses. A batch whose request was
            // budget-cancelled fails wholesale; a multi-instance batch with
            // unanswered instances is queued for the degradation ladder
            // when enabled (failure events for its missed instances are
            // deferred until the ladder exhausts, so every instance gets
            // exactly one terminal event).
            let parse_started = std::time::Instant::now();
            for (offset, batch) in shard.batches.iter().enumerate() {
                let g = batch.request_index;
                // The last batch a response serves takes its answers; an
                // earlier one, served by dedup, copies them.
                let last_use = survey.last_batch_of(g) == shard.first_batch + offset;
                let d = (!request_cancelled[g]).then(|| {
                    live.get_mut(&g)
                        .expect("response retained until its last referencing batch")
                });
                self.parse_one_batch(
                    model,
                    &batch.instance_indices,
                    base_id + g as u64,
                    d,
                    last_use,
                    survey.reasoning(),
                    &mut predictions,
                    &mut ladder,
                    &emit,
                );
            }
            // The ladder runs once, after the last shard has parsed and
            // inside its gate turn: every primary request is billed before
            // any ladder request, whatever the shard size.
            if shards.is_exhausted() && !ladder.is_empty() {
                let vt_before_ladder = ledger.usage.latency_secs;
                killed = self.run_ladder(
                    model,
                    survey,
                    std::mem::take(&mut ladder),
                    &mut ledger,
                    &mut predictions,
                    &emit,
                )?;
                ladder_vt_secs = ledger.usage.latency_secs - vt_before_ladder;
            }
            parse_wall_secs += parse_started.elapsed().as_secs_f64();
            if killed {
                break;
            }

            // Drop responses no later batch references: `frontier` is the
            // first batch of the next shard, so anything whose last use is
            // behind it is done.
            let frontier = shard.first_batch + shard.batches.len();
            live.retain(|&g, _| survey.last_batch_of(g) >= frontier);
        }

        if killed {
            return Ok(RunResult {
                predictions,
                usage: ledger.usage,
                stats: ledger.stats,
                metrics: recorder.snapshot(),
            });
        }

        // Stage wall-clock totals aggregate across every shard (the survey
        // pass counts toward plan/prompt-build), emitted once.
        let survey = shards.survey();
        emit(TraceEvent::Stage {
            run: run_id,
            stage: "plan",
            wall_secs: survey.plan_wall_secs(),
            vt_secs: 0.0,
        });
        emit(TraceEvent::Stage {
            run: run_id,
            stage: "prompt-build",
            wall_secs: survey.prompt_build_wall_secs(),
            vt_secs: 0.0,
        });
        emit(TraceEvent::Stage {
            run: run_id,
            stage: "dispatch",
            wall_secs: dispatch_wall_secs,
            vt_secs: dispatch_vt_secs,
        });
        emit(TraceEvent::Stage {
            run: run_id,
            stage: "parse",
            wall_secs: parse_wall_secs,
            vt_secs: ladder_vt_secs,
        });

        let Ledger {
            usage,
            stats,
            gauge,
            replayed,
            ..
        } = ledger;
        if let Some(reason) = gauge.tripped {
            emit(TraceEvent::BudgetTripped {
                run: run_id,
                reason,
                cancelled: stats.cancelled,
            });
        }

        if self.durability.active() {
            let journal = self.durability.journal.as_deref();
            emit(TraceEvent::JournalState {
                run: run_id,
                replayed,
                written: journal.map_or(0, |j| j.written() - written_before),
                truncated: journal.map_or(0, DurableJournal::take_truncated)
                    + self.durability.take_truncated(),
            });
        }

        let answered = predictions.iter().filter(|p| p.failure().is_none()).count();
        emit(TraceEvent::RunFinished {
            run: run_id,
            instances: n_instances,
            answered,
            failed: n_instances - answered,
            requests: stats.requests,
            fresh_requests: stats.requests - stats.cache_hits - stats.cancelled,
            cache_hits: stats.cache_hits,
            prompt_tokens: usage.prompt_tokens,
            completion_tokens: usage.completion_tokens,
            cost_usd: usage.cost_usd,
            latency_secs: usage.latency_secs,
        });

        Ok(RunResult {
            predictions,
            usage,
            stats,
            metrics: recorder.snapshot(),
        })
    }

    /// Appends one terminal entry to the journal, when one is attached.
    fn journal_append(&self, entry: &JournalEntry) -> Result<(), String> {
        let Some(journal) = &self.durability.journal else {
            return Ok(());
        };
        journal
            .append(entry)
            .map_err(|e| journal_write_error(journal.path(), &e))
    }

    /// Folds one dispatched request's terminal into the ledger: either a
    /// budget cancellation (the gauge tripped before this request's slot in
    /// plan order) or a completion with its billing, component attribution,
    /// and, when a journal is attached, its journal entry. The run loop
    /// walks unique requests in plan order at every shard size, then the
    /// ladder's sub-requests after the last shard, so the fold sequence
    /// (and therefore the journal, the gauge, the breaker and every
    /// counter) does not depend on it.
    ///
    /// The `Completed` / `Parsed` / `Failed` / `Cancelled` events this fold
    /// emits are the observability plane's deterministic spine: the sliding
    /// window ([`dprep_obs::WindowAggregator`]) and the SLO engine advance
    /// their sequential-account virtual clock by each fresh completion's
    /// `latency_secs` in this fold order, never by the worker-thread
    /// `Dispatched` stream, which is why windowed rates and alert timelines
    /// are bit-identical at any `--workers` count.
    ///
    /// Returns `(cancelled, killed)`; `killed` means an armed kill switch
    /// fired on this terminal and the run must return its partial result.
    fn fold_terminal<M: ChatModel + ?Sized>(
        &self,
        model: &M,
        request_id: u64,
        fingerprint: u64,
        d: &mut DispatchedResponse,
        ledger: &mut Ledger,
        emit: &dyn Fn(TraceEvent),
    ) -> Result<(bool, bool), String> {
        if let Some(reason) = ledger.gauge.tripped {
            ledger.stats.cancelled += 1;
            emit(TraceEvent::Cancelled {
                request: request_id,
                reason,
            });
            self.journal_append(&JournalEntry::cancelled(fingerprint))?;
            let killed = self.kill.as_ref().is_some_and(KillSwitch::on_terminal);
            return Ok((true, killed));
        }
        if d.replayed {
            // The journal already holds this request's completion: no
            // model call happened, but its billed numbers re-enter the
            // ledger so the resumed run's totals match the
            // uninterrupted run's.
            ledger.replayed += 1;
            emit(TraceEvent::Replayed {
                request: request_id,
            });
            if !d.legs.is_empty() {
                // A routed completion: re-advance the settlement breaker
                // from the journaled outcomes and re-emit the legs, so a
                // resumed run's breaker state, trace, and per-route
                // ledger match the uninterrupted run's exactly.
                let outcomes: Vec<(String, RouteOutcome, Option<FaultKind>)> = d
                    .legs
                    .iter()
                    .filter_map(|leg| {
                        RouteOutcome::from_label(&leg.outcome).map(|outcome| {
                            (
                                leg.route.clone(),
                                outcome,
                                leg.fault.as_deref().and_then(FaultKind::from_label),
                            )
                        })
                    })
                    .collect();
                ledger.breaker.replay(&outcomes);
                for (index, leg) in d.legs.iter().enumerate() {
                    emit(route_leg_event(request_id, index, leg));
                }
            }
        }
        // Replayed completions re-bill the journaled cost: a routed entry's
        // settled per-leg sum is not reconstructible from summed usage.
        let mut settled_cost = d.replay_cost;
        if let Some(pending) = d.pending.take() {
            // Settle the speculative cascade in plan order: breaker
            // decisions happen here, not at dispatch, so they are
            // worker-count independent. The settled response replaces
            // the speculative one for billing, parsing, and journaling.
            let settlement = ledger.breaker.settle(pending);
            d.legs = settlement.legs.iter().map(settled_leg_record).collect();
            for (index, leg) in d.legs.iter().enumerate() {
                emit(route_leg_event(request_id, index, leg));
            }
            d.response = settlement.response;
            settled_cost = Some(settlement.cost_usd);
            // `send` saw the speculative response: the settled one is
            // judged here, and parsed by the loop that reads its answers.
            if self.durability.journal.is_some() {
                d.complete = is_complete_for(d.expected, &d.response);
            }
        }
        let response = &d.response;
        let fresh = !response.meta.cache_hit;
        let attempt = response.meta.attempt_usage.unwrap_or(response.usage);
        let cost = if fresh {
            // A settled cascade bills each leg at its own route's pricing;
            // the composite model's price does not apply.
            settled_cost.unwrap_or_else(|| model.cost_usd(&response.usage))
        } else {
            0.0
        };
        if fresh {
            ledger
                .usage
                .record(&response.usage, cost, response.latency_secs);
            ledger.stats.retries += response.meta.retries as usize;
            ledger.stats.faulted += usize::from(response.meta.fault.is_some());
            ledger
                .gauge
                .charge(response.latency_secs, response.usage.total_tokens());
        } else {
            ledger.stats.cache_hits += 1;
        }
        emit(TraceEvent::Completed {
            request: request_id,
            worker: d.worker,
            cache_hit: response.meta.cache_hit,
            retries: response.meta.retries,
            fault: response.meta.fault.map(FaultKind::label),
            prompt_tokens: response.usage.prompt_tokens,
            completion_tokens: response.usage.completion_tokens,
            attempt_prompt_tokens: attempt.prompt_tokens,
            attempt_completion_tokens: attempt.completion_tokens,
            cost_usd: cost,
            latency_secs: response.latency_secs,
            vt_start_secs: d.vt_start_secs,
            vt_end_secs: d.vt_end_secs,
        });
        // Attribute every billed prompt token to a prompt component.
        // Each retry attempt re-bills the same prompt, so the planned
        // section counts scale by the attempt count; the framing
        // remainder (role tags, tokenization residue) reconciles the
        // sum to exactly the billed total. A cache hit billed nothing
        // fresh and attributes zero everywhere.
        let attributed = if fresh {
            let attempts = response.meta.retries as usize + 1;
            let scaled = d.sections.map(|n| n * attempts);
            dprep_obs::component::reconcile(scaled, response.usage.prompt_tokens)
        } else {
            [0; 6]
        };
        emit(TraceEvent::PromptComponents {
            request: request_id,
            cache_hit: response.meta.cache_hit,
            task_spec: attributed[0],
            answer_format: attributed[1],
            cot: attributed[2],
            few_shot: attributed[3],
            instances: attributed[4],
            framing: attributed[5],
        });
        if self.durability.journal.is_some() {
            // Answers parsed on the worker leave the text no other reader.
            let text = if d.answers.is_some() {
                std::mem::take(&mut d.response.text)
            } else {
                d.response.text.clone()
            };
            let mut entry =
                completion_entry(fingerprint, &d.response, text, d.complete, attempt, cost);
            entry.legs = std::mem::take(&mut d.legs);
            self.journal_append(&entry)?;
        }
        let killed = self.kill.as_ref().is_some_and(KillSwitch::on_terminal);
        Ok((false, killed))
    }

    /// Turns one batch's response into predictions: answered instances get
    /// their extracted answers, misses are classified (or queued for the
    /// degradation ladder when enabled), and a batch whose request was
    /// budget-cancelled (`d` is `None`) fails wholesale. The worker parsed
    /// the response already, unless settlement replaced it; then it is
    /// parsed here, once. The answers move into the predictions at the
    /// response's `last_use` and are copied before it.
    #[allow(clippy::too_many_arguments)]
    fn parse_one_batch<M: ChatModel + ?Sized>(
        &self,
        model: &M,
        instance_indices: &[usize],
        request_id: u64,
        d: Option<&mut DispatchedResponse>,
        last_use: bool,
        reasoning: bool,
        predictions: &mut [Prediction],
        ladder: &mut Vec<MissedBatch>,
        emit: &dyn Fn(TraceEvent),
    ) {
        let Some(d) = d else {
            for &instance_idx in instance_indices {
                emit(TraceEvent::Failed {
                    request: request_id,
                    instance: instance_idx,
                    kind: FailureKind::BudgetExhausted.label(),
                });
                predictions[instance_idx] = Prediction::Failed(FailureKind::BudgetExhausted);
            }
            return;
        };
        let parsed = d.answers.get_or_insert_with(|| {
            parse_batch(&d.response.text, reasoning, instance_indices.len())
        });
        let nothing_parsed = parsed.nothing_parsed;
        let mut missed: Vec<usize> = Vec::new();
        for (position, &instance_idx) in instance_indices.iter().enumerate() {
            let slot = parsed.answers.get_mut(position);
            let extracted = slot.and_then(|slot| if last_use { slot.take() } else { slot.clone() });
            match extracted {
                Some(extracted) => {
                    emit(TraceEvent::Parsed {
                        request: request_id,
                        instance: instance_idx,
                    });
                    predictions[instance_idx] = Prediction::Answered(extracted);
                }
                None => missed.push(instance_idx),
            }
        }
        if missed.is_empty() {
            return;
        }
        if self.options.degrade && instance_indices.len() > 1 {
            ladder.push(MissedBatch {
                request: request_id,
                missed,
                batch_len: instance_indices.len(),
                worker: d.worker,
                vt_end_secs: d.vt_end_secs,
            });
            return;
        }
        let kind = classify_miss(model, &d.response, nothing_parsed);
        for &instance_idx in &missed {
            emit(TraceEvent::Failed {
                request: request_id,
                instance: instance_idx,
                kind: kind.label(),
            });
            predictions[instance_idx] = Prediction::Failed(kind);
        }
    }

    /// The graceful-degradation ladder, run once after the last shard over
    /// the batches the parse left with misses, in plan order: each batch's
    /// missed instances are rebuilt into smaller sub-batches and sent one
    /// at a time until every instance is answered or has shrunk to a
    /// single-instance request that still fails. Returns whether an armed
    /// kill switch fired.
    ///
    /// The ladder never re-sends a group identical to the one that missed
    /// (see [`requeue_misses`]). Each sub-request is sent by [`send`] on the
    /// calling thread, on its parent's worker and virtual clock, and folded
    /// by [`fold_terminal`] exactly like a primary request: replayed,
    /// settled through the run's one breaker, billed, journaled, and
    /// counted by the kill switch. Once the budget gauge trips, the
    /// remaining groups are never sent and fail with `BudgetExhausted`.
    ///
    /// [`send`]: Self::send
    /// [`fold_terminal`]: Self::fold_terminal
    fn run_ladder<M: ChatModel + ?Sized>(
        &self,
        model: &M,
        survey: &PlanStream<'_>,
        ladder: Vec<MissedBatch>,
        ledger: &mut Ledger,
        predictions: &mut [Prediction],
        emit: &dyn Fn(TraceEvent),
    ) -> Result<bool, String> {
        let reasoning = survey.reasoning();
        for batch in ladder {
            let mut clock = batch.vt_end_secs;
            let mut queue = VecDeque::new();
            requeue_misses(&mut queue, batch.missed, batch.batch_len);
            while let Some(group) = queue.pop_front() {
                if ledger.gauge.tripped.is_some() {
                    // Never sent, so nothing to cancel: the group's
                    // instances fail as budget-exhausted.
                    for &instance_idx in &group {
                        emit(TraceEvent::Failed {
                            request: batch.request,
                            instance: instance_idx,
                            kind: FailureKind::BudgetExhausted.label(),
                        });
                        predictions[instance_idx] =
                            Prediction::Failed(FailureKind::BudgetExhausted);
                    }
                    continue;
                }
                let sub_id = dprep_obs::reserve_request_ids(1);
                let refs: Vec<&TaskInstance> =
                    group.iter().map(|&i| &survey.instances()[i]).collect();
                let (mut request, sections) = survey.context().build(&refs);
                request.temperature = survey.temperature();
                let request = request.with_trace_id(sub_id);
                let fingerprint = request_fingerprint(model, &request);
                emit(TraceEvent::Planned {
                    request: sub_id,
                    batches: 1,
                    instances: group.len(),
                });
                emit(TraceEvent::BatchSplit {
                    request: sub_id,
                    instances: group.len(),
                });
                ledger.stats.splits += 1;
                ledger.stats.requests += 1;
                let mut d = self.send(
                    model,
                    request,
                    fingerprint,
                    sections.as_array(),
                    group.len(),
                    reasoning,
                    batch.worker,
                    &mut clock,
                );
                let (_, killed) =
                    self.fold_terminal(model, sub_id, fingerprint, &mut d, ledger, emit)?;
                if killed {
                    return Ok(true);
                }
                let parsed = d
                    .answers
                    .get_or_insert_with(|| parse_batch(&d.response.text, reasoning, group.len()));
                let mut still_missed: Vec<usize> = Vec::new();
                for (&instance_idx, extracted) in group.iter().zip(&mut parsed.answers) {
                    match extracted.take() {
                        Some(extracted) => {
                            ledger.stats.split_recovered += 1;
                            emit(TraceEvent::Parsed {
                                request: sub_id,
                                instance: instance_idx,
                            });
                            predictions[instance_idx] = Prediction::Answered(extracted);
                        }
                        None => still_missed.push(instance_idx),
                    }
                }
                if still_missed.is_empty() {
                    continue;
                }
                if group.len() == 1 {
                    let kind = classify_miss(model, &d.response, parsed.nothing_parsed);
                    emit(TraceEvent::Failed {
                        request: sub_id,
                        instance: still_missed[0],
                        kind: kind.label(),
                    });
                    predictions[still_missed[0]] = Prediction::Failed(kind);
                } else {
                    requeue_misses(&mut queue, still_missed, group.len());
                }
            }
        }
        Ok(false)
    }

    /// Sends one request and readies its response for the plan-order fold:
    /// replays it from the journal or calls the model, takes the cascade's
    /// pending legs, judges `complete` for the journal (only when one is
    /// attached), parses the completion into `questions` answers by
    /// position unless settlement will replace it, drops the text when no
    /// journal will carry it, and advances `clock` by the response's
    /// latency.
    ///
    /// Shard requests are sent by the worker that claims them, ladder
    /// sub-requests on the calling thread. A replayed request parses from
    /// its journaled text, and its journaled latency still advances the
    /// clock, so the span layout matches the uninterrupted run.
    #[allow(clippy::too_many_arguments)]
    fn send<M: ChatModel + ?Sized>(
        &self,
        model: &M,
        request: ChatRequest,
        fingerprint: u64,
        sections: [usize; 5],
        questions: usize,
        reasoning: bool,
        worker: usize,
        clock: &mut f64,
    ) -> DispatchedResponse {
        self.tracer.record(&TraceEvent::Dispatched {
            request: request.trace_id,
            worker,
            vt_start_secs: *clock,
        });
        // A routed model stack stashes its speculative cascade legs keyed
        // by trace id; collecting them here, on the sending thread, keeps
        // settlement a pure plan-order fold.
        let (mut response, replayed, pending, legs, replay_cost) =
            match self.durability.take_replay(fingerprint) {
                Some(entry) => {
                    let response = replay_response(&entry);
                    (response, true, None, entry.legs, Some(entry.cost_usd))
                }
                None => {
                    let response = model.chat(&request);
                    let pending = model.take_route_pending(request.trace_id);
                    (response, false, pending, Vec::new(), None)
                }
            };
        let journaled = self.durability.journal.is_some();
        let expected = if journaled {
            expected_answers(&request)
        } else {
            0
        };
        drop(request);
        let complete = journaled && is_complete_for(expected, &response);
        let answers = pending
            .is_none()
            .then(|| parse_batch(&response.text, reasoning, questions));
        if answers.is_some() && !journaled {
            response.text = String::new();
        }
        let vt_start_secs = *clock;
        *clock += response.latency_secs;
        DispatchedResponse {
            response,
            replayed,
            pending,
            legs,
            replay_cost,
            sections,
            complete,
            expected,
            answers,
            worker,
            vt_start_secs,
            vt_end_secs: *clock,
        }
    }

    /// Dispatches a shard's unique requests across the configured workers,
    /// continuing each worker's virtual clock from `clocks` (and writing the
    /// advanced clocks back). The run loop calls it once per plan shard, so
    /// virtual-time spans accumulate across shards exactly as they would in
    /// one uninterrupted dispatch. `clocks` holds one clock per thread the
    /// shard can use: `workers.min(requests)`, at least one.
    ///
    /// Each request is handled start to end by the worker that claims it,
    /// which builds it from its kept or freshly rendered body, checks it
    /// against the surveyed fingerprint and hands it to
    /// [`send`](Self::send). Request ids are `base_id + index`.
    fn dispatch_slice<'a, M: ChatModel + ?Sized>(
        &self,
        model: &M,
        survey: &PlanStream<'a>,
        shard: &PlanShard,
        base_id: u64,
        clocks: &mut [f64],
    ) -> Vec<DispatchedResponse> {
        let n = shard.fingerprints.len();
        let serve = |idx: usize,
                     worker: usize,
                     clock: &mut f64,
                     scratch: &mut RenderScratch<'a>|
         -> DispatchedResponse {
            let (request, sections) = survey.take_request(shard, idx, scratch);
            let request = request.with_trace_id(base_id + idx as u64);
            debug_assert_eq!(
                request_fingerprint(model, &request),
                shard.fingerprints[idx],
                "a request built on its worker diverged from the survey"
            );
            let questions = shard.batches[shard.request_batches[idx]]
                .instance_indices
                .len();
            self.send(
                model,
                request,
                shard.fingerprints[idx],
                sections,
                questions,
                survey.reasoning(),
                worker,
                clock,
            )
        };
        if self.options.workers <= 1 || n <= 1 {
            let clock = &mut clocks[0];
            let mut scratch = RenderScratch::default();
            return (0..n)
                .map(|idx| serve(idx, 0, clock, &mut scratch))
                .collect();
        }

        let slots: Vec<Mutex<Option<DispatchedResponse>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let workers = self.options.workers.min(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let slots = &slots;
                    let cursor = &cursor;
                    let serve = &serve;
                    // Each worker runs its own virtual clock: spans on one
                    // worker are sequential, workers overlap.
                    let mut clock = clocks[worker];
                    scope.spawn(move || {
                        let mut scratch = RenderScratch::default();
                        loop {
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= n {
                                break;
                            }
                            let served = serve(idx, worker, &mut clock, &mut scratch);
                            *slots[idx].lock().expect("slot poisoned") = Some(served);
                        }
                        clock
                    })
                })
                .collect();
            for (worker, handle) in handles.into_iter().enumerate() {
                clocks[worker] = handle.join().expect("worker panicked");
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot poisoned")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }
}

/// Where the run loop takes its shards from.
enum Shards<'r, 'a> {
    /// A built plan's survey and its one shard; the shard is `None` once
    /// the loop has taken it.
    Plan(&'r PlanStream<'a>, Option<&'r PlanShard>),
    /// A stream, yielding each shard when the loop asks for it.
    Stream(&'r mut PlanStream<'a>),
}

impl<'r, 'a> Shards<'r, 'a> {
    /// The survey every shard comes from.
    fn survey(&self) -> &PlanStream<'a> {
        match self {
            Shards::Plan(survey, _) => survey,
            Shards::Stream(stream) => stream,
        }
    }

    /// Whether every shard has been taken.
    fn is_exhausted(&self) -> bool {
        match self {
            Shards::Plan(_, shard) => shard.is_none(),
            Shards::Stream(stream) => stream.is_exhausted(),
        }
    }

    /// Takes the next shard.
    fn next(&mut self) -> Option<Cow<'r, PlanShard>> {
        match self {
            Shards::Plan(_, shard) => shard.take().map(Cow::Borrowed),
            Shards::Stream(stream) => stream.next_shard().map(Cow::Owned),
        }
    }
}

/// RAII shard turn: acquired at the top of a shard iteration, released
/// when the iteration ends — including early `?` returns and kill-switch
/// breaks.
struct GateTurn<'a>(&'a dyn ShardGate);

impl<'a> GateTurn<'a> {
    fn acquire(gate: &'a dyn ShardGate) -> GateTurn<'a> {
        gate.acquire();
        GateTurn(gate)
    }
}

impl Drop for GateTurn<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// A response plus where and when (in virtual time) it was served.
struct DispatchedResponse {
    response: ChatResponse,
    /// Rehydrated from a run journal — no model call happened.
    replayed: bool,
    /// Speculative cascade legs awaiting plan-order settlement (present
    /// only for fresh dispatches through a routed model stack).
    pending: Option<RoutePending>,
    /// Settled route legs, journaled with the completion; pre-filled from
    /// the journal entry on replay, filled at settlement otherwise.
    legs: Vec<RouteLegRecord>,
    /// The journaled billed cost on replay. A routed completion bills the
    /// settled per-leg sum, which the composite model's own pricing cannot
    /// re-derive from the summed usage.
    replay_cost: Option<f64>,
    /// The request's prompt-component token counts, as its render counted
    /// them.
    sections: [usize; 5],
    /// Whether the response fully serves the request: the journal entry's
    /// `complete`. Judged only when a journal is attached.
    complete: bool,
    /// The request's `Question N:` count, which a response settlement
    /// replaces is judged against. Counted only when a journal is attached.
    expected: usize,
    /// The response parsed by position, by `send`; `None` until a response
    /// that settlement replaces is parsed by the loop that reads it.
    answers: Option<BatchAnswers>,
    worker: usize,
    vt_start_secs: f64,
    vt_end_secs: f64,
}

/// The run's plan-order fold state, which [`Executor::fold_terminal`]
/// advances once per terminal request: the primaries shard by shard, then
/// the ladder's sub-requests.
struct Ledger {
    usage: UsageTotals,
    stats: ExecStats,
    /// The budget fold. Every request of a shard is dispatched
    /// speculatively (so cache state and response content stay
    /// worker-count independent), but the gauge is authoritative: once the
    /// cumulative billed latency or tokens reach a configured ceiling,
    /// every later response is discarded unbilled — a `cancelled` terminal
    /// event instead of a completion.
    gauge: BudgetGauge,
    /// The run's one circuit breaker: a cascade's settlement, whether the
    /// request is a primary or a ladder sub-request.
    breaker: RouteFold,
    /// Requests rehydrated from the journal.
    replayed: usize,
}

/// A batch the plan-order parse left with unanswered instances, queued for
/// the degradation ladder.
struct MissedBatch {
    /// The batch's request id, which a budget-exhausted group's failures
    /// name.
    request: u64,
    /// The unanswered instances, in question order.
    missed: Vec<usize>,
    /// How many instances the batch asked about.
    batch_len: usize,
    /// The worker that sent the batch's request and its virtual clock
    /// after it: the ladder's sub-requests continue from there.
    worker: usize,
    vt_end_secs: f64,
}

/// Builds the `RouteLeg` trace event for one leg record at cascade
/// position `index`. Labels round-trip through the vocabulary interner so
/// replayed (journal-parsed) legs carry the same static spellings live
/// settlements do.
fn route_leg_event(request: u64, index: usize, leg: &RouteLegRecord) -> TraceEvent {
    TraceEvent::RouteLeg {
        request,
        route: leg.route.clone(),
        index: index as u32,
        outcome: dprep_obs::component::intern_label(&leg.outcome),
        fault: leg
            .fault
            .as_deref()
            .and_then(FaultKind::from_label)
            .map(FaultKind::label),
        retries: leg.retries,
        prompt_tokens: leg.prompt_tokens,
        completion_tokens: leg.completion_tokens,
        cost_usd: leg.cost_usd,
        latency_secs: leg.latency_secs,
    }
}

/// Converts one settled cascade leg into the record its journal entry
/// (and a resumed run's re-emitted trace) carries.
fn settled_leg_record(leg: &SettledLeg) -> RouteLegRecord {
    RouteLegRecord {
        route: leg.route.clone(),
        outcome: leg.outcome.label().to_string(),
        fault: leg.fault.map(|f| f.label().to_string()),
        retries: leg.retries,
        prompt_tokens: leg.usage.prompt_tokens,
        completion_tokens: leg.usage.completion_tokens,
        cost_usd: leg.cost_usd,
        latency_secs: leg.latency_secs,
    }
}

/// Renders a journal I/O failure as an operator-facing error instead of a
/// raw io error: it names the journal path, states that the job's
/// checkpoint is incomplete (a resume replays only the entries that were
/// flushed before the failure), and tags the two causes with a known
/// remedy — a full disk and a short write.
pub fn journal_write_error(path: &std::path::Path, e: &std::io::Error) -> String {
    use std::io::ErrorKind;
    let hint = if e.kind() == ErrorKind::StorageFull || e.raw_os_error() == Some(28) {
        " (disk full: free space on the journal volume and resume)"
    } else if e.kind() == ErrorKind::WriteZero {
        " (short write: the entry was not fully flushed)"
    } else {
        ""
    };
    format!(
        "journal write failed, job checkpoint incomplete: {}: {e}{hint}",
        path.display()
    )
}

/// Reconstructs the response a journaled completion recorded: same text,
/// billed and final-attempt usage, retry count, fault, and latency, so the
/// plan-order fold re-bills it exactly as the original run did.
fn replay_response(entry: &JournalEntry) -> ChatResponse {
    let mut response = ChatResponse::new(
        entry.text.clone(),
        Usage {
            prompt_tokens: entry.prompt_tokens,
            completion_tokens: entry.completion_tokens,
        },
        entry.latency_secs,
    );
    response.meta.retries = entry.retries;
    response.meta.cache_hit = entry.cache_hit;
    response.meta.fault = entry.fault.as_deref().and_then(FaultKind::from_label);
    response.meta.attempt_usage = Some(Usage {
        prompt_tokens: entry.attempt_prompt_tokens,
        completion_tokens: entry.attempt_completion_tokens,
    });
    response
}

/// The journal entry for a completed request, without route legs: `text`
/// is the response's completion, and `complete` whether the response fully
/// served the request ([`dprep_llm::is_complete`]) — exactly the condition the cache
/// layer memoizes under, so a journal-warmed cache on resume holds the same
/// entries the uninterrupted run's store would.
fn completion_entry(
    fingerprint: u64,
    response: &ChatResponse,
    text: String,
    complete: bool,
    attempt: Usage,
    cost: f64,
) -> JournalEntry {
    JournalEntry {
        fingerprint,
        kind: TerminalKind::Completed,
        text,
        prompt_tokens: response.usage.prompt_tokens,
        completion_tokens: response.usage.completion_tokens,
        attempt_prompt_tokens: attempt.prompt_tokens,
        attempt_completion_tokens: attempt.completion_tokens,
        retries: response.meta.retries,
        fault: response.meta.fault.map(|f| f.label().to_string()),
        cache_hit: response.meta.cache_hit,
        complete,
        cost_usd: cost,
        latency_secs: response.latency_secs,
        legs: Vec::new(),
    }
}

/// The run-level budget fold: cumulative billed virtual latency and billed
/// tokens, checked after each fresh completion (charge-then-check, so the
/// request that reaches a ceiling still completes).
#[derive(Debug)]
struct BudgetGauge {
    deadline_secs: Option<f64>,
    token_budget: Option<usize>,
    latency_secs: f64,
    tokens: usize,
    /// `Some(reason)` once a ceiling was reached ("deadline" or
    /// "token-budget"); the deadline wins when one completion trips both.
    tripped: Option<&'static str>,
}

impl BudgetGauge {
    fn new(deadline_secs: Option<f64>, token_budget: Option<usize>) -> BudgetGauge {
        BudgetGauge {
            deadline_secs,
            token_budget,
            latency_secs: 0.0,
            tokens: 0,
            tripped: None,
        }
    }

    fn charge(&mut self, latency_secs: f64, tokens: usize) {
        if self.tripped.is_some() {
            return;
        }
        self.latency_secs += latency_secs;
        self.tokens += tokens;
        if self.deadline_secs.is_some_and(|d| self.latency_secs >= d) {
            self.tripped = Some("deadline");
        } else if self.token_budget.is_some_and(|b| self.tokens >= b) {
            self.tripped = Some("token-budget");
        }
    }
}

/// Queues the `missed` instances of a group that asked about `asked`
/// instances, for the ladder to send again. A deterministic model given
/// the same prompt and salt returns the same response, faults included, so
/// the ladder never re-sends a group identical to the one that missed: a
/// strict subset is retried whole (its prompt already differs), and a
/// whole miss is split in halves.
fn requeue_misses(queue: &mut VecDeque<Vec<usize>>, missed: Vec<usize>, asked: usize) {
    if missed.len() < asked {
        queue.push_back(missed);
    } else {
        let mid = missed.len().div_ceil(2);
        queue.push_back(missed[..mid].to_vec());
        queue.push_back(missed[mid..].to_vec());
    }
}

/// Why an instance's answer is missing from an otherwise-delivered
/// response, of which `nothing_parsed` says whether any answer parsed.
fn classify_miss<M: ChatModel + ?Sized>(
    model: &M,
    response: &ChatResponse,
    nothing_parsed: bool,
) -> FailureKind {
    let fault = response.meta.fault;
    // A retried request accumulates usage over attempts; only the final
    // attempt's own prompt says whether the window overflowed.
    let attempt = response.meta.attempt_usage.unwrap_or(response.usage);
    if matches!(fault, Some(FaultKind::CircuitOpen)) {
        FailureKind::CircuitOpen
    } else if fault.is_some() {
        if response.meta.retries > 0 {
            FailureKind::RetriesExhausted
        } else {
            FailureKind::Faulted
        }
    } else if attempt.prompt_tokens > model.context_window() {
        FailureKind::ContextOverflow
    } else if nothing_parsed {
        FailureKind::FormatViolation
    } else {
        FailureKind::SkippedAnswer
    }
}

/// Largest batch size whose prompt fits in ~85% of the model's context
/// window, estimated from a one-instance sample request.
///
/// Returns the configured batch size unchanged when batching is off or
/// there is nothing to sample; returns 1 when even the fixed prompt
/// overhead (instructions + few-shot examples + one question) blows the
/// budget — a single oversized question cannot be split further.
pub fn context_fitted_batch_size<M: ChatModel + ?Sized>(
    model: &M,
    config: &PipelineConfig,
    instances: &[TaskInstance],
    shots: &[FewShotExample],
) -> usize {
    let configured = config.effective_batch_size();
    if configured <= 1 || instances.is_empty() {
        return configured.max(1);
    }
    let prompt_config = config.prompt_config();
    let sample = build_request(&prompt_config, shots, &[&instances[0]]);
    let fixed_plus_one = dprep_text::count_tokens(&sample.full_text());
    let per_question = dprep_text::count_tokens(
        &instances[0].question_text(prompt_config.feature_indices.as_deref()),
    ) + 8;
    let budget = (model.context_window() as f64 * 0.85) as usize;
    if fixed_plus_one >= budget {
        return 1;
    }
    (1 + (budget - fixed_plus_one) / per_question.max(1)).min(configured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprep_llm::{CacheLayer, ChatResponse, RetryLayer, Usage};
    use dprep_prompt::Task;
    use dprep_tabular::{Record, Schema, Value};

    /// Answers every `Question N:` line (or all but the last when
    /// `answer_all` is off), billing 100 prompt tokens per attempt.
    struct CountingModel {
        window: usize,
        answer_all: bool,
    }

    impl ChatModel for CountingModel {
        fn name(&self) -> &str {
            "counting"
        }
        fn context_window(&self) -> usize {
            self.window
        }
        fn cost_usd(&self, usage: &Usage) -> f64 {
            usage.total_tokens() as f64 * 1e-6
        }
        fn chat(&self, request: &ChatRequest) -> ChatResponse {
            let body = &request.messages.last().unwrap().content;
            let count = body
                .lines()
                .filter(|l| l.trim_start().starts_with("Question "))
                .count()
                .max(1);
            let n = if self.answer_all {
                count
            } else {
                count.saturating_sub(1)
            };
            let mut text = String::new();
            for i in 1..=n {
                text.push_str(&format!("Answer {i}: yes\n"));
            }
            ChatResponse::new(
                text,
                Usage {
                    prompt_tokens: 100,
                    completion_tokens: 10 * n,
                },
                2.0,
            )
        }
    }

    fn em_instances(n: usize) -> Vec<TaskInstance> {
        let schema = Schema::all_text(&["title"]).unwrap().shared();
        (0..n)
            .map(|i| {
                let rec =
                    Record::new(schema.clone(), vec![Value::text(format!("product {i}"))]).unwrap();
                TaskInstance::EntityMatching {
                    a: rec.clone(),
                    b: rec,
                }
            })
            .collect()
    }

    fn plan_for<'a, M: ChatModel + ?Sized>(
        model: &M,
        instances: &'a [TaskInstance],
        batch_size: usize,
    ) -> ExecutionPlan<'a> {
        let mut config = PipelineConfig::best(Task::EntityMatching);
        config.components.few_shot = false;
        config.components.reasoning = false;
        config.batch_size = batch_size;
        // Keep the planned batch shape fixed even for tiny test windows —
        // these tests steer overflow via the window deliberately.
        config.fit_context = false;
        ExecutionPlan::build(model, &config, instances, &[])
    }

    #[test]
    fn cache_hits_bill_zero_fresh_usage() {
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let cached = CacheLayer::new(&base);
        let instances = em_instances(6);
        let plan = plan_for(&cached, &instances, 3);
        let exec = Executor::serial();
        let first = exec.run(&cached, &plan);
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(first.usage.requests, 2);
        assert!(first.usage.prompt_tokens > 0 && first.usage.cost_usd > 0.0);

        // The same plan again over the warm cache: every response replays,
        // so the run bills zero fresh tokens, cost, latency, and requests.
        let second = exec.run(&cached, &plan);
        assert_eq!(second.stats.cache_hits, first.stats.requests);
        assert_eq!(second.usage.requests, 0);
        assert_eq!(second.usage.prompt_tokens, 0);
        assert_eq!(second.usage.completion_tokens, 0);
        assert_eq!(second.usage.cost_usd, 0.0);
        assert_eq!(second.usage.latency_secs, 0.0);
        assert_eq!(second.predictions, first.predictions);
        // The metrics snapshot tells the same story.
        assert_eq!(second.metrics.cache_hits, first.stats.requests);
        assert_eq!(second.metrics.fresh_requests, 0);
        assert_eq!(second.metrics.prompt_tokens, 0);
        // Replayed metadata does not re-count retries or faults.
        assert_eq!(second.stats.retries, 0);
        assert_eq!(second.stats.faulted, 0);
    }

    #[test]
    fn retried_requests_are_not_misclassified_as_overflow() {
        // Window 250: a single attempt (100 prompt tokens) fits comfortably,
        // but the retry-accumulated total (3 × 100) does not. The final
        // attempt's own size decides overflow, so the missing answer is a
        // skip — not a phantom context overflow.
        let base = CountingModel {
            window: 250,
            answer_all: false,
        };
        let model = RetryLayer::new(&base, 2);
        let instances = em_instances(2);
        let plan = plan_for(&model, &instances, 2);
        let result = Executor::serial().run(&model, &plan);
        assert_eq!(result.stats.retries, 2, "budget spent");
        assert!(
            result.usage.prompt_tokens > model.context_window(),
            "accumulated usage exceeds the window — the bug's trigger"
        );
        let kinds: Vec<FailureKind> = result
            .predictions
            .iter()
            .filter_map(|p| p.failure())
            .collect();
        assert_eq!(kinds, vec![FailureKind::SkippedAnswer]);
    }

    #[test]
    fn single_oversized_attempt_still_classifies_as_overflow() {
        let base = CountingModel {
            window: 50,
            answer_all: false,
        };
        let instances = em_instances(2);
        let plan = plan_for(&base, &instances, 2);
        let result = Executor::serial().run(&base, &plan);
        let kinds: Vec<FailureKind> = result
            .predictions
            .iter()
            .filter_map(|p| p.failure())
            .collect();
        assert_eq!(kinds, vec![FailureKind::ContextOverflow]);
    }

    #[test]
    fn dedup_and_cache_agree_on_unset_vs_default_temperature() {
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let cached = CacheLayer::new(&base);
        let instances = em_instances(4);
        let mut config = PipelineConfig::best(Task::EntityMatching);
        config.components.few_shot = false;
        config.components.reasoning = false;
        config.batch_size = 2;
        config.fit_context = false;
        // Plan A leaves the temperature unset; plan B pins it to the model's
        // default explicitly. Both fingerprint identically, so run B is
        // served entirely from run A's cache entries.
        config.temperature = None;
        let plan_unset = ExecutionPlan::build(&cached, &config, &instances, &[]);
        config.temperature = Some(cached.default_temperature());
        let plan_pinned = ExecutionPlan::build(&cached, &config, &instances, &[]);

        let exec = Executor::serial();
        let first = exec.run(&cached, &plan_unset);
        let second = exec.run(&cached, &plan_pinned);
        assert_eq!(second.stats.cache_hits, first.stats.requests);
        assert_eq!(second.usage.requests, 0, "no fresh dispatches");
        assert_eq!(second.predictions, first.predictions);
    }

    #[test]
    fn executor_emits_a_complete_event_stream() {
        use dprep_obs::CollectingTracer;
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let tracer = Arc::new(CollectingTracer::new());
        let instances = em_instances(4);
        let plan = plan_for(&base, &instances, 2);
        let exec = Executor::new(ExecutionOptions {
            workers: 2,
            ..ExecutionOptions::default()
        })
        .with_tracer(tracer.clone() as Arc<dyn Tracer>);
        let result = exec.run(&base, &plan);
        assert_eq!(tracer.count("run_started"), 1);
        assert_eq!(tracer.count("planned"), plan.requests().len());
        assert_eq!(tracer.count("dispatched"), plan.requests().len());
        assert_eq!(tracer.count("completed"), plan.requests().len());
        assert_eq!(tracer.count("prompt_components"), plan.requests().len());
        assert_eq!(
            tracer.count("stage"),
            4,
            "plan, prompt-build, dispatch, parse"
        );
        assert_eq!(tracer.count("parsed"), 4);
        assert_eq!(tracer.count("failed"), 0);
        assert_eq!(tracer.count("run_finished"), 1);
        assert_eq!(result.metrics.answered, 4);
        assert_eq!(result.metrics.fresh_requests, plan.requests().len());
        // Every billed prompt token lands in exactly one component.
        assert_eq!(
            result.metrics.component_tokens.values().sum::<usize>(),
            result.metrics.prompt_tokens
        );
    }

    #[test]
    fn absurd_worker_counts_run_like_the_serial_run() {
        // One virtual clock per worker used to be allocated up front, so a
        // client asking for 2^40 workers aborted the process on an 8 TiB
        // allocation. Clocks now cover only the threads a shard can use.
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let instances = em_instances(8);
        let plan = plan_for(&base, &instances, 2);
        let serial = Executor::serial().run(&base, &plan);
        let wide = Executor::new(ExecutionOptions {
            workers: 1 << 40,
            ..ExecutionOptions::default()
        })
        .run(&base, &plan);
        assert_eq!(wide.predictions, serial.predictions);
        assert_eq!(wide.usage, serial.usage);
        assert_eq!(wide.stats, serial.stats);
        assert_eq!(wide.metrics, serial.metrics);
    }

    /// Counts gate turns, checking they are balanced and never nested.
    #[derive(Default)]
    struct CountingGate {
        acquired: AtomicUsize,
        released: AtomicUsize,
    }

    impl ShardGate for CountingGate {
        fn acquire(&self) {
            let acquired = self.acquired.fetch_add(1, Ordering::SeqCst);
            assert_eq!(acquired, self.released.load(Ordering::SeqCst));
        }
        fn release(&self) {
            self.released.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_built_plan_runs_in_exactly_one_gate_turn() {
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let instances = em_instances(8);
        let plan = plan_for(&base, &instances, 2);
        assert_eq!(plan.requests().len(), 4);
        let gate = Arc::new(CountingGate::default());
        let gated = Executor::new(ExecutionOptions {
            workers: 2,
            ..ExecutionOptions::default()
        })
        .with_shard_gate(gate.clone() as Arc<dyn ShardGate>)
        .run(&base, &plan);
        assert_eq!(gate.acquired.load(Ordering::SeqCst), 1);
        assert_eq!(gate.released.load(Ordering::SeqCst), 1);
        assert_eq!(
            gated.predictions,
            Executor::serial().run(&base, &plan).predictions
        );
    }

    #[test]
    fn token_budget_trips_mid_run_and_cancels_the_rest() {
        use dprep_obs::CollectingTracer;
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let audit = Arc::new(dprep_obs::AuditTracer::new());
        let instances = em_instances(6);
        let plan = plan_for(&base, &instances, 2);
        assert_eq!(plan.requests().len(), 3);
        let tracer = Arc::new(CollectingTracer::new());
        let fan = Arc::new(
            dprep_obs::MultiTracer::new()
                .with(audit.clone() as Arc<dyn Tracer>)
                .with(tracer.clone() as Arc<dyn Tracer>),
        );
        // Each request bills 120 tokens (100 prompt + 20 completion). A
        // 150-token ceiling lets two complete (charge-then-check: the
        // second crosses) and cancels the third unbilled.
        let exec = Executor::new(ExecutionOptions {
            token_budget: Some(150),
            ..ExecutionOptions::default()
        })
        .with_tracer(fan as Arc<dyn Tracer>);
        let result = exec.run(&base, &plan);
        assert_eq!(result.stats.cancelled, 1);
        assert_eq!(result.usage.prompt_tokens, 200, "third request unbilled");
        assert_eq!(result.metrics.cancelled, 1);
        assert_eq!(tracer.count("cancelled"), 1);
        assert_eq!(tracer.count("budget_tripped"), 1);
        let failed: Vec<FailureKind> = result
            .predictions
            .iter()
            .filter_map(|p| p.failure())
            .collect();
        assert_eq!(
            failed,
            vec![FailureKind::BudgetExhausted, FailureKind::BudgetExhausted],
            "the cancelled batch's two instances fail as budget-exhausted"
        );
        assert_eq!(result.predictions.len() - failed.len(), 4, "partial run");
        audit.assert_clean();
    }

    #[test]
    fn deadline_trips_on_virtual_latency() {
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let instances = em_instances(6);
        let plan = plan_for(&base, &instances, 2);
        // Each request takes 2.0s of virtual time; a 2.0s deadline is
        // reached by the first completion, cancelling the other two.
        let exec = Executor::new(ExecutionOptions {
            deadline_secs: Some(2.0),
            ..ExecutionOptions::default()
        });
        let result = exec.run(&base, &plan);
        assert_eq!(result.stats.cancelled, 2);
        assert!((result.usage.latency_secs - 2.0).abs() < 1e-12);
        assert_eq!(
            result
                .predictions
                .iter()
                .filter(|p| p.failure() == Some(FailureKind::BudgetExhausted))
                .count(),
            4
        );
    }

    /// Answers only single-question prompts; any larger batch gets an
    /// empty response.
    struct SingletonModel;

    impl ChatModel for SingletonModel {
        fn name(&self) -> &str {
            "singleton"
        }
        fn context_window(&self) -> usize {
            100_000
        }
        fn cost_usd(&self, usage: &Usage) -> f64 {
            usage.total_tokens() as f64 * 1e-6
        }
        fn chat(&self, request: &ChatRequest) -> ChatResponse {
            let body = &request.messages.last().unwrap().content;
            let count = body
                .lines()
                .filter(|l| l.trim_start().starts_with("Question "))
                .count()
                .max(1);
            let text = if count == 1 {
                "Answer 1: yes\n".to_string()
            } else {
                String::new()
            };
            ChatResponse::new(
                text,
                Usage {
                    prompt_tokens: 50,
                    completion_tokens: 5,
                },
                1.0,
            )
        }
    }

    #[test]
    fn degradation_splits_a_failing_batch_down_to_single_instances() {
        use dprep_obs::CollectingTracer;
        let audit = Arc::new(dprep_obs::AuditTracer::new());
        let tracer = Arc::new(CollectingTracer::new());
        let fan = Arc::new(
            dprep_obs::MultiTracer::new()
                .with(audit.clone() as Arc<dyn Tracer>)
                .with(tracer.clone() as Arc<dyn Tracer>),
        );
        let instances = em_instances(4);
        let plan = plan_for(&SingletonModel, &instances, 4);
        assert_eq!(plan.requests().len(), 1);

        // Without degradation the whole batch fails flat.
        let flat = Executor::serial().run(&SingletonModel, &plan);
        assert_eq!(flat.failed_count(), 4);

        // With degradation the ladder halves 4 -> (2, 2) -> four singles,
        // each of which answers: every instance recovers.
        let exec = Executor::new(ExecutionOptions {
            degrade: true,
            ..ExecutionOptions::default()
        })
        .with_tracer(fan as Arc<dyn Tracer>);
        let result = exec.run(&SingletonModel, &plan);
        assert_eq!(result.failed_count(), 0, "all four recovered");
        assert_eq!(result.stats.splits, 6, "two halves + four singles");
        assert_eq!(result.stats.split_recovered, 4);
        assert_eq!(result.stats.requests, 7);
        assert_eq!(tracer.count("batch_split"), 6);
        assert_eq!(tracer.count("planned"), 7);
        assert_eq!(result.metrics.batch_splits, 6);
        audit.assert_clean();
    }

    #[test]
    fn degradation_retries_a_partial_miss_whole_before_splitting() {
        // The parent batch answers questions 1 and 3 but skips 2: the miss
        // set is a strict subset, so the ladder retries it as one
        // single-instance request (a different prompt than the parent's)
        // and recovers it without further splitting.
        struct SkipSecond;
        impl ChatModel for SkipSecond {
            fn name(&self) -> &str {
                "skip-second"
            }
            fn context_window(&self) -> usize {
                100_000
            }
            fn cost_usd(&self, _usage: &Usage) -> f64 {
                0.0
            }
            fn chat(&self, request: &ChatRequest) -> ChatResponse {
                let body = &request.messages.last().unwrap().content;
                let count = body
                    .lines()
                    .filter(|l| l.trim_start().starts_with("Question "))
                    .count()
                    .max(1);
                let mut text = String::new();
                for i in 1..=count {
                    if i != 2 {
                        text.push_str(&format!("Answer {i}: yes\n"));
                    }
                }
                ChatResponse::new(text, Usage::default(), 0.5)
            }
        }
        let instances = em_instances(3);
        let plan = plan_for(&SkipSecond, &instances, 3);
        let exec = Executor::new(ExecutionOptions {
            degrade: true,
            ..ExecutionOptions::default()
        });
        let result = exec.run(&SkipSecond, &plan);
        assert_eq!(result.failed_count(), 0);
        assert_eq!(result.stats.splits, 1, "one whole-miss retry, no halving");
        assert_eq!(result.stats.split_recovered, 1);
    }

    #[test]
    fn degraded_run_is_bit_identical_across_worker_counts() {
        let instances = em_instances(12);
        let mut reference: Option<RunResult> = None;
        for workers in [1usize, 4] {
            let plan = plan_for(&SingletonModel, &instances, 3);
            let exec = Executor::new(ExecutionOptions {
                workers,
                degrade: true,
                token_budget: Some(260),
                ..ExecutionOptions::default()
            });
            let result = exec.run(&SingletonModel, &plan);
            if let Some(reference) = &reference {
                assert_eq!(result.predictions, reference.predictions);
                assert_eq!(result.stats, reference.stats);
                assert_eq!(result.metrics, reference.metrics, "workers={workers}");
            } else {
                reference = Some(result);
            }
        }
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "dprep-exec-test-{}-{name}.jsonl",
            std::process::id()
        ));
        p
    }

    #[test]
    fn killed_and_resumed_runs_are_bit_identical_at_every_kill_point() {
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let instances = em_instances(8);
        let plan = plan_for(&base, &instances, 2);
        assert_eq!(plan.requests().len(), 4);
        let reference = Executor::serial().run(&base, &plan);

        for kill_at in 1..=plan.requests().len() {
            let path = journal_path(&format!("kill-{kill_at}"));
            let journal = Arc::new(DurableJournal::fresh(&path, "counting", "cfg", 0).unwrap());
            let kill = KillSwitch::after(kill_at);
            let killed = Executor::serial()
                .with_durability(Durability::new().with_journal(journal))
                .with_kill_switch(kill.clone())
                .run(&base, &plan);
            assert!(kill.fired(), "kill_at={kill_at}");
            assert!(killed.usage.requests <= kill_at);

            let recovered = DurableJournal::resume(&path).unwrap();
            assert!(recovered.warning.is_none());
            assert_eq!(recovered.entries.len(), kill_at);
            let audit = Arc::new(dprep_obs::AuditTracer::new());
            let durability = Durability::new()
                .with_replay(&recovered.entries, recovered.require_header().unwrap().plan)
                .with_journal(Arc::new(recovered.journal));
            let resumed = Executor::serial()
                .with_durability(durability)
                .with_tracer(audit.clone() as Arc<dyn Tracer>)
                .run(&base, &plan);
            audit.assert_clean();
            assert_eq!(
                resumed.predictions, reference.predictions,
                "kill_at={kill_at}"
            );
            assert_eq!(resumed.stats, reference.stats, "kill_at={kill_at}");
            assert_eq!(resumed.usage.total_tokens(), reference.usage.total_tokens());
            assert!((resumed.usage.cost_usd - reference.usage.cost_usd).abs() < 1e-15);
            assert!((resumed.usage.latency_secs - reference.usage.latency_secs).abs() < 1e-15);
            // The metrics reconcile too, modulo the journal counters the
            // uninterrupted run never incremented.
            let mut metrics = resumed.metrics.clone();
            assert_eq!(metrics.journal_replayed, kill_at);
            assert_eq!(
                metrics.journal_written,
                plan.requests().len() - kill_at,
                "only the remainder is appended on resume"
            );
            metrics.journal_replayed = 0;
            metrics.journal_written = 0;
            metrics.journal_truncated = 0;
            assert_eq!(metrics, reference.metrics, "kill_at={kill_at}");
            // The journal now covers the whole run: a second resume replays
            // everything and appends nothing.
            let full = DurableJournal::resume(&path).unwrap();
            assert_eq!(full.entries.len(), plan.requests().len());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_plan() {
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let instances = em_instances(4);
        let plan = plan_for(&base, &instances, 2);
        let other_instances = em_instances(6);
        let other_plan = plan_for(&base, &other_instances, 2);
        assert_ne!(plan.fingerprint(), other_plan.fingerprint());

        let path = journal_path("mismatch");
        let journal = Arc::new(DurableJournal::fresh(&path, "counting", "cfg", 0).unwrap());
        Executor::serial()
            .with_durability(Durability::new().with_journal(journal))
            .run(&base, &plan);
        let recovered = DurableJournal::resume(&path).unwrap();
        let durability = Durability::new()
            .with_replay(&recovered.entries, recovered.require_header().unwrap().plan);
        let err = Executor::serial()
            .with_durability(durability)
            .try_run(&base, &other_plan)
            .unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cancelled_entries_reexecute_and_stay_unbilled_on_resume() {
        // A token budget trips mid-run: the uninterrupted run completes two
        // requests and cancels the third. Kill after the cancellation is
        // journaled; the resumed run must re-execute (not replay) the
        // cancelled request, cancel it again at the same gauge state, and
        // bill exactly the reference totals.
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let instances = em_instances(6);
        let plan = plan_for(&base, &instances, 2);
        assert_eq!(plan.requests().len(), 3);
        let options = ExecutionOptions {
            token_budget: Some(150),
            ..ExecutionOptions::default()
        };
        let reference = Executor::new(options).run(&base, &plan);
        assert_eq!(reference.stats.cancelled, 1);

        let path = journal_path("cancelled");
        let journal = Arc::new(DurableJournal::fresh(&path, "counting", "cfg", 0).unwrap());
        let kill = KillSwitch::after(3);
        let _ = Executor::new(options)
            .with_durability(Durability::new().with_journal(journal))
            .with_kill_switch(kill.clone())
            .run(&base, &plan);
        assert!(kill.fired());
        let recovered = DurableJournal::resume(&path).unwrap();
        assert_eq!(recovered.entries.len(), 3);
        assert_eq!(recovered.entries[2].kind, TerminalKind::Cancelled);
        let durability = Durability::new()
            .with_replay(&recovered.entries, recovered.require_header().unwrap().plan)
            .with_journal(Arc::new(recovered.journal));
        let resumed = Executor::new(options)
            .with_durability(durability)
            .run(&base, &plan);
        assert_eq!(resumed.predictions, reference.predictions);
        assert_eq!(resumed.stats, reference.stats);
        assert_eq!(resumed.usage.total_tokens(), reference.usage.total_tokens());
        assert_eq!(
            resumed.metrics.journal_replayed, 2,
            "cancelled entry re-executes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn audit_tracer_passes_on_a_faulty_retried_cached_run() {
        use dprep_llm::FaultLayer;
        let base = CountingModel {
            window: 100_000,
            answer_all: true,
        };
        let audit = Arc::new(dprep_obs::AuditTracer::new());
        let tracer = audit.clone() as Arc<dyn Tracer>;
        let stack = CacheLayer::new(
            RetryLayer::new(
                FaultLayer::new(&base, 0.2, 11).with_tracer(Arc::clone(&tracer)),
                2,
            )
            .with_tracer(Arc::clone(&tracer)),
        )
        .with_tracer(Arc::clone(&tracer));
        let instances = em_instances(20);
        let plan = plan_for(&stack, &instances, 2);
        let exec = Executor::new(ExecutionOptions {
            workers: 4,
            ..ExecutionOptions::default()
        })
        .with_tracer(Arc::clone(&tracer));
        let _ = exec.run(&stack, &plan);
        // A second run replays from the shared cache and must stay clean.
        let _ = exec.run(&stack, &plan);
        audit.assert_clean();
        assert_eq!(audit.runs_audited(), 2);
    }

    #[test]
    fn unarmed_kill_switch_fires_only_on_trigger() {
        let kill = KillSwitch::unarmed();
        assert!(!kill.fired());
        // Terminal events never drain an unarmed countdown.
        for _ in 0..1000 {
            assert!(!kill.on_terminal());
        }
        kill.trigger();
        assert!(kill.fired());
        assert!(kill.on_terminal());
    }

    #[test]
    fn journal_write_error_names_path_and_classifies_causes() {
        use std::io::{Error, ErrorKind};
        let path = std::path::Path::new("/tmp/jobs/j1.journal");

        let full = journal_write_error(path, &Error::new(ErrorKind::StorageFull, "quota"));
        assert!(full.starts_with("journal write failed, job checkpoint incomplete:"));
        assert!(full.contains("/tmp/jobs/j1.journal"));
        assert!(full.contains("disk full"));

        let enospc = journal_write_error(path, &Error::from_raw_os_error(28));
        assert!(
            enospc.contains("disk full"),
            "raw ENOSPC maps too: {enospc}"
        );

        let short = journal_write_error(path, &Error::new(ErrorKind::WriteZero, "0 of 64"));
        assert!(short.contains("short write"));
        assert!(short.contains("/tmp/jobs/j1.journal"));

        let other = journal_write_error(path, &Error::new(ErrorKind::PermissionDenied, "denied"));
        assert!(other.contains("journal write failed, job checkpoint incomplete:"));
        assert!(!other.contains("disk full") && !other.contains("short write"));
    }

    #[test]
    fn resuming_an_empty_journal_falls_back_to_a_fresh_one() {
        let path =
            std::env::temp_dir().join(format!("dprep-core-empty-journal-{}", std::process::id()));
        // A crash between journal creation and the first header write
        // leaves a zero-length file behind.
        std::fs::write(&path, "").unwrap();
        let opened = Durability::open(Some(&path), Some(&path), "sim-gpt-4", "cfg", 7)
            .expect("empty file recovers");
        assert!(opened.warm.is_empty(), "nothing to replay");
        assert!(!opened.durability.resumes());
        assert!(
            opened.durability.journal().is_some(),
            "journaling restarts fresh at the same path"
        );
        std::fs::remove_file(&path).ok();
    }
}
