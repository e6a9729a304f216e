//! The end-to-end preprocessing pipeline (the paper's Figure 1).
//!
//! ```text
//! instances ── batching ──► prompt builder ──► chat model ──► parser ──► predictions
//!                  ▲              ▲                                │
//!             (clustering)   (few-shot, zero-shot,             (usage,
//!                             contextualization,             cost, time)
//!                             feature selection)
//! ```
//!
//! The [`Preprocessor`] is a thin facade: it plans the run with
//! [`crate::stream::PlanStream`] and runs its shards through
//! [`crate::exec::Executor`], serially or across worker threads per
//! [`crate::config::PipelineConfig::workers`]. Without
//! [`crate::config::PipelineConfig::plan_shard_size`] the whole plan is
//! one shard.
//!
//! A run reads its instances through an [`InstanceSource`] and hands each
//! instance's outcome to a [`PredictionSink`]. A slice of instances and a
//! vector of [`Prediction`]s are the source and the sink of
//! [`Preprocessor::try_run`]; a caller with a leaner representation of
//! either passes its own to [`Preprocessor::try_run_into`].

use std::sync::Arc;

use dprep_llm::{ChatModel, UsageTotals};
use dprep_obs::{MetricsSnapshot, NullTracer, Tracer};
use dprep_prompt::{ExtractedAnswer, FewShotExample, InstanceSource, TaskInstance};

use crate::config::PipelineConfig;
use crate::exec::{Durability, ExecStats, ExecutionOptions, Executor, KillSwitch};
use crate::stream::PlanStream;

/// Why the pipeline has no answer for an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The response ignored the answer format entirely — nothing parsed.
    FormatViolation,
    /// The response answered other questions in the batch but skipped this
    /// one (batch misalignment).
    SkippedAnswer,
    /// The prompt exceeded the model's context window; answers past the
    /// truncation point never existed.
    ContextOverflow,
    /// The serving layer faulted (timeout / truncated stream) and no retry
    /// middleware was in play.
    Faulted,
    /// The serving layer faulted and the retry budget ran out.
    RetriesExhausted,
    /// The run's deadline or token budget tripped before this instance's
    /// request was consumed; its response (if any) was discarded unbilled.
    BudgetExhausted,
    /// The circuit breaker was open and short-circuited the request without
    /// reaching the model.
    CircuitOpen,
}

impl FailureKind {
    /// A short stable label (CLI tables, reports).
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::FormatViolation => "format-violation",
            FailureKind::SkippedAnswer => "skipped-answer",
            FailureKind::ContextOverflow => "context-overflow",
            FailureKind::Faulted => "faulted",
            FailureKind::RetriesExhausted => "retries-exhausted",
            FailureKind::BudgetExhausted => "budget-exhausted",
            FailureKind::CircuitOpen => "circuit-open",
        }
    }

    /// All kinds, in reporting order.
    pub fn all() -> [FailureKind; 7] {
        [
            FailureKind::FormatViolation,
            FailureKind::SkippedAnswer,
            FailureKind::ContextOverflow,
            FailureKind::Faulted,
            FailureKind::RetriesExhausted,
            FailureKind::BudgetExhausted,
            FailureKind::CircuitOpen,
        ]
    }
}

/// The pipeline's output for one data instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prediction {
    /// A parsed answer.
    Answered(ExtractedAnswer),
    /// No answer, with the reason.
    Failed(FailureKind),
}

impl Prediction {
    /// The parsed answer, if any.
    pub fn answer(&self) -> Option<&ExtractedAnswer> {
        match self {
            Prediction::Answered(a) => Some(a),
            Prediction::Failed(_) => None,
        }
    }

    /// The failure, if any.
    pub fn failure(&self) -> Option<FailureKind> {
        match self {
            Prediction::Answered(_) => None,
            Prediction::Failed(kind) => Some(*kind),
        }
    }

    /// Yes/no view of the answer (for ED/SM/EM).
    pub fn as_yes_no(&self) -> Option<bool> {
        self.answer().and_then(ExtractedAnswer::as_yes_no)
    }

    /// Value view of the answer (for DI).
    pub fn value(&self) -> Option<&str> {
        self.answer().map(|a| a.value.as_str())
    }
}

/// Where a run hands each instance's outcome.
///
/// The executor hands instance `i` its outcome exactly once, in plan
/// order, where it emits the instance's `parsed` or `failed` event,
/// degradation ladder included. A run a kill switch stopped never reaches
/// the rest, which keep the sink's starting value, a skipped answer.
///
/// A parsed answer reaches the sink in the sink's own [`Answer`] form:
/// the worker that parses a response [`shrink`]s each of its answers
/// before the response waits for the plan-order fold, so what waits is
/// only what the sink keeps. `Vec<Prediction>` keeps every answer whole.
///
/// [`Answer`]: PredictionSink::Answer
/// [`shrink`]: PredictionSink::shrink
pub trait PredictionSink: Sync {
    /// What the sink keeps of a parsed answer. Cloned when one response
    /// serves several batches through deduplication.
    type Answer: Clone + Send;

    /// Shrinks one parsed answer to what the sink keeps of it. Called on
    /// the worker thread that parsed the response.
    fn shrink(&self, answer: ExtractedAnswer) -> Self::Answer;

    /// Takes instance `instance`'s outcome: its answer, or why it has none.
    fn put(&mut self, instance: usize, outcome: Result<Self::Answer, FailureKind>);
}

/// One prediction per instance, every answer whole: the sink of
/// [`Preprocessor::try_run`]. It must hold one prediction per instance
/// before the run starts.
impl PredictionSink for Vec<Prediction> {
    type Answer = ExtractedAnswer;

    fn shrink(&self, answer: ExtractedAnswer) -> ExtractedAnswer {
        answer
    }

    fn put(&mut self, instance: usize, outcome: Result<ExtractedAnswer, FailureKind>) {
        self[instance] = match outcome {
            Ok(answer) => Prediction::Answered(answer),
            Err(kind) => Prediction::Failed(kind),
        };
    }
}

/// `n` predictions at the default an instance keeps until its outcome
/// arrives: a skipped answer.
pub(crate) fn unanswered(n: usize) -> Vec<Prediction> {
    vec![Prediction::Failed(FailureKind::SkippedAnswer); n]
}

/// Result of a full run: the prediction sink, by default one prediction
/// per input instance (same order), plus usage totals and serving-layer
/// counters.
#[derive(Debug, Clone)]
pub struct RunResult<P = Vec<Prediction>> {
    /// The run's prediction sink: by default, per-instance predictions,
    /// parallel to the input slice.
    pub predictions: P,
    /// Aggregated tokens, cost, and virtual time.
    pub usage: UsageTotals,
    /// Request-level counters (dedup, retries, cache hits, faults).
    pub stats: ExecStats,
    /// Serving metrics for the run: latency/token histograms, failure-kind
    /// counters, cache/dedup/retry tallies. Aggregated in plan order, so
    /// identical at any worker count.
    pub metrics: MetricsSnapshot,
}

impl RunResult {
    /// Number of instances with no parsed answer.
    pub fn failed_count(&self) -> usize {
        self.predictions
            .iter()
            .filter(|p| matches!(p, Prediction::Failed(_)))
            .count()
    }

    /// Fraction of failed instances (0 for an empty run).
    pub fn failure_rate(&self) -> f64 {
        if self.predictions.is_empty() {
            return 0.0;
        }
        self.failed_count() as f64 / self.predictions.len() as f64
    }

    /// Failure counts per kind, in [`FailureKind::all`] order.
    pub fn failure_breakdown(&self) -> [(FailureKind, usize); 7] {
        FailureKind::all().map(|kind| {
            let count = self
                .predictions
                .iter()
                .filter(|p| p.failure() == Some(kind))
                .count();
            (kind, count)
        })
    }
}

/// Drives a chat model through a preprocessing run.
pub struct Preprocessor<'a, M: ChatModel + ?Sized> {
    model: &'a M,
    config: PipelineConfig,
    tracer: Arc<dyn Tracer>,
    exec_options: Option<ExecutionOptions>,
    durability: Durability,
    kill: Option<KillSwitch>,
    gate: Option<Arc<dyn crate::serve::ShardGate>>,
}

impl<'a, M: ChatModel + ?Sized> Preprocessor<'a, M> {
    /// Creates a preprocessor over `model` with `config`.
    pub fn new(model: &'a M, config: PipelineConfig) -> Self {
        Preprocessor {
            model,
            config,
            tracer: Arc::new(NullTracer),
            exec_options: None,
            durability: Durability::default(),
            kill: None,
            gate: None,
        }
    }

    /// Overrides the executor options wholesale (deadline, token budget,
    /// batch degradation, workers). When set, the override's `workers`
    /// field wins over [`PipelineConfig::workers`], for the plan survey as
    /// for the executor.
    pub fn with_exec_options(mut self, options: ExecutionOptions) -> Self {
        self.exec_options = Some(options);
        self
    }

    /// Streams the executor's request-lifecycle events into `tracer`. Wire
    /// the same tracer into the model's middleware stack so cache-hit,
    /// retry-attempt, and fault-injected events correlate by request id.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Journals terminal requests and/or replays a recovered journal
    /// (see [`Durability`]). Failures surface through
    /// [`try_run`](Self::try_run); [`run`](Self::run) panics on them.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Arms a kill-point drill: the run aborts right after the Nth
    /// terminal event is journaled (see [`KillSwitch`]).
    pub fn with_kill_switch(mut self, kill: KillSwitch) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Interleaves this run's plan shards with other jobs sharing the same
    /// gate (see [`ShardGate`](crate::serve::ShardGate)), one turn per
    /// shard. Without [`PipelineConfig::plan_shard_size`] the whole plan
    /// is one shard, so the run takes a single turn.
    pub fn with_shard_gate(mut self, gate: Arc<dyn crate::serve::ShardGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the pipeline over `instances`, using `examples` when the
    /// configuration enables few-shot prompting.
    ///
    /// # Panics
    /// Panics when durability rejects the run ([`try_run`](Self::try_run)
    /// returns the rejection as an error instead).
    pub fn run(&self, instances: &[TaskInstance], examples: &[FewShotExample]) -> RunResult {
        self.try_run(instances, examples)
            .expect("durable run rejected")
    }

    /// [`run`](Self::run), with durability failures surfaced as errors
    /// (plan-fingerprint mismatch on resume, journal write failure).
    ///
    /// The run plans through [`PlanStream`] in shards of
    /// [`PipelineConfig::plan_shard_size`] batches (> 0), or as one shard
    /// when it is unset — same predictions, usage, counters, and metrics,
    /// with planner memory bounded by the shard size.
    pub fn try_run(
        &self,
        instances: &[TaskInstance],
        examples: &[FewShotExample],
    ) -> Result<RunResult, String> {
        self.try_run_into(instances, unanswered(instances.len()), examples)
    }

    /// [`try_run`](Self::try_run) over the instances `source` reads,
    /// handing each instance's outcome to `sink` (see [`PredictionSink`]),
    /// which the result carries as its `predictions`. The run reads each
    /// instance from the source only while a batch that holds it is
    /// rendered, so a source that builds instances on demand never holds
    /// them all.
    pub fn try_run_into<S: InstanceSource + ?Sized, K: PredictionSink>(
        &self,
        source: &S,
        sink: K,
        examples: &[FewShotExample],
    ) -> Result<RunResult<K>, String> {
        let options = self.exec_options.unwrap_or(ExecutionOptions {
            workers: self.config.workers,
            ..ExecutionOptions::default()
        });
        let mut executor = Executor::new(options)
            .with_tracer(Arc::clone(&self.tracer))
            .with_durability(self.durability.clone());
        if let Some(kill) = &self.kill {
            executor = executor.with_kill_switch(kill.clone());
        }
        if let Some(gate) = &self.gate {
            executor = executor.with_shard_gate(Arc::clone(gate));
        }
        let shard_size = match self.config.plan_shard_size {
            // Rejected rather than silently running one shard: a zero
            // shard is a config bug, and a caller asking for bounded
            // planner memory must not get an unbounded plan.
            Some(0) => {
                return Err("plan_shard_size must be at least 1 (0 disables nothing; \
                     unset the option to run the whole plan as one shard)"
                    .to_string())
            }
            Some(shard_size) => shard_size,
            None => usize::MAX,
        };
        // The survey renders on as many threads as the executor dispatches
        // on, whichever of the two set that count.
        let config = PipelineConfig {
            workers: options.workers,
            ..self.config.clone()
        };
        let mut stream = PlanStream::new(self.model, &config, source, examples, shard_size);
        executor.try_run_stream_into(self.model, &mut stream, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ComponentSet;
    use crate::exec::context_fitted_batch_size;
    use dprep_llm::{ChatRequest, ChatResponse, Usage};
    use dprep_prompt::Task;
    use dprep_tabular::{Record, Schema, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A scripted model echoing a fixed verdict, counting requests
    /// (atomically — the executor may call it from several threads).
    struct ScriptedModel {
        verdict: &'static str,
        requests: AtomicUsize,
    }

    impl ScriptedModel {
        fn new(verdict: &'static str) -> Self {
            ScriptedModel {
                verdict,
                requests: AtomicUsize::new(0),
            }
        }

        fn requests(&self) -> usize {
            self.requests.load(Ordering::Relaxed)
        }
    }

    impl ChatModel for ScriptedModel {
        fn name(&self) -> &str {
            "scripted"
        }
        fn context_window(&self) -> usize {
            100_000
        }
        fn cost_usd(&self, usage: &Usage) -> f64 {
            usage.total_tokens() as f64 * 1e-6
        }
        fn chat(&self, request: &ChatRequest) -> ChatResponse {
            self.requests.fetch_add(1, Ordering::Relaxed);
            // Answer every numbered question in the final user message.
            let body = &request.messages.last().unwrap().content;
            let count = body.matches("Question ").count().max(1);
            let mut text = String::new();
            for i in 1..=count {
                text.push_str(&format!("Answer {i}: {}\n", self.verdict));
            }
            ChatResponse::new(
                text,
                Usage {
                    prompt_tokens: 100,
                    completion_tokens: 10 * count,
                },
                1.0,
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

    #[test]
    fn run_answers_every_instance() {
        let model = ScriptedModel::new("yes");
        let mut config = PipelineConfig::best(Task::EntityMatching);
        config.components.few_shot = false;
        config.batch_size = 4;
        let pre = Preprocessor::new(&model, config);
        let instances = em_instances(10);
        let result = pre.run(&instances, &[]);
        assert_eq!(result.predictions.len(), 10);
        assert_eq!(result.failed_count(), 0);
        assert!(result
            .predictions
            .iter()
            .all(|p| p.as_yes_no() == Some(true)));
        // 10 instances at batch size 4 -> 3 requests.
        assert_eq!(model.requests(), 3);
        assert_eq!(result.usage.requests, 3);
        assert_eq!(result.stats.requests, 3);
        assert!(result.usage.cost_usd > 0.0);
        assert!((result.usage.latency_secs - 3.0).abs() < 1e-12);
    }

    #[test]
    fn batching_off_sends_one_request_per_instance() {
        let model = ScriptedModel::new("no");
        let config = PipelineConfig::ablation(
            Task::EntityMatching,
            ComponentSet {
                few_shot: false,
                batching: false,
                reasoning: false,
            },
            15,
        );
        let pre = Preprocessor::new(&model, config);
        let instances = em_instances(5);
        let result = pre.run(&instances, &[]);
        assert_eq!(model.requests(), 5);
        assert!(result
            .predictions
            .iter()
            .all(|p| p.as_yes_no() == Some(false)));
    }

    #[test]
    fn zero_plan_shard_size_is_rejected_with_a_clear_error() {
        let model = ScriptedModel::new("yes");
        let mut config = PipelineConfig::best(Task::EntityMatching);
        config.components.few_shot = false;
        config.plan_shard_size = Some(0);
        let err = Preprocessor::new(&model, config)
            .try_run(&em_instances(3), &[])
            .expect_err("zero shard size must be rejected");
        assert!(err.contains("plan_shard_size"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        assert_eq!(model.requests(), 0, "nothing may dispatch");
    }

    #[test]
    fn empty_run_is_empty() {
        let model = ScriptedModel::new("yes");
        let pre = Preprocessor::new(&model, PipelineConfig::best(Task::EntityMatching));
        let result = pre.run(&[], &[]);
        assert!(result.predictions.is_empty());
        assert_eq!(result.usage.requests, 0);
        assert_eq!(result.failure_rate(), 0.0);
    }

    /// A model that never answers question 2.
    struct SkippingModel;

    impl ChatModel for SkippingModel {
        fn name(&self) -> &str {
            "skipper"
        }
        fn context_window(&self) -> usize {
            100_000
        }
        fn cost_usd(&self, _usage: &Usage) -> f64 {
            0.0
        }
        fn chat(&self, request: &ChatRequest) -> ChatResponse {
            let body = &request.messages.last().unwrap().content;
            let count = body.matches("Question ").count().max(1);
            let mut text = String::new();
            for i in 1..=count {
                if i != 2 {
                    text.push_str(&format!("Answer {i}: yes\n"));
                }
            }
            ChatResponse::new(text, Usage::default(), 0.1)
        }
    }

    #[test]
    fn skipped_answers_are_classified() {
        let model = SkippingModel;
        let mut config = PipelineConfig::best(Task::EntityMatching);
        config.components.few_shot = false;
        config.batch_size = 3;
        config.components.reasoning = false;
        let pre = Preprocessor::new(&model, config);
        let instances = em_instances(3);
        let result = pre.run(&instances, &[]);
        assert_eq!(result.failed_count(), 1);
        assert!((result.failure_rate() - 1.0 / 3.0).abs() < 1e-12);
        let skipped = result
            .failure_breakdown()
            .iter()
            .find(|(k, _)| *k == FailureKind::SkippedAnswer)
            .map(|&(_, n)| n)
            .unwrap();
        assert_eq!(skipped, 1);
        // Every instance is accounted for: answered + failed == total.
        let answered = result
            .predictions
            .iter()
            .filter(|p| p.answer().is_some())
            .count();
        assert_eq!(answered + result.failed_count(), instances.len());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let instances = em_instances(23);
        let mut reference: Option<RunResult> = None;
        for workers in [1usize, 2, 8] {
            let model = ScriptedModel::new("yes");
            let mut config = PipelineConfig::best(Task::EntityMatching);
            config.components.few_shot = false;
            config.batch_size = 3;
            config.workers = workers;
            let result = Preprocessor::new(&model, config).run(&instances, &[]);
            if let Some(reference) = &reference {
                assert_eq!(
                    result.predictions, reference.predictions,
                    "workers={workers}"
                );
                assert_eq!(result.stats, reference.stats, "workers={workers}");
                assert_eq!(
                    result.usage.total_tokens(),
                    reference.usage.total_tokens(),
                    "workers={workers}"
                );
                assert_eq!(result.usage.requests, reference.usage.requests);
                assert!((result.usage.cost_usd - reference.usage.cost_usd).abs() < 1e-15);
                assert!((result.usage.latency_secs - reference.usage.latency_secs).abs() < 1e-15);
                // The metrics snapshot aggregates in plan order, so it is
                // worker-count independent too (histograms included).
                assert_eq!(result.metrics, reference.metrics, "workers={workers}");
            } else {
                reference = Some(result);
            }
        }
    }

    #[test]
    fn identical_batches_are_deduplicated_at_plan_time() {
        // Ten byte-identical instances at batch size 1 produce ten identical
        // prompts -> one dispatched request regardless of worker count.
        let schema = Schema::all_text(&["title"]).unwrap().shared();
        let rec = Record::new(schema, vec![Value::text("same product")]).unwrap();
        let instances: Vec<TaskInstance> = (0..10)
            .map(|_| TaskInstance::EntityMatching {
                a: rec.clone(),
                b: rec.clone(),
            })
            .collect();
        for workers in [1usize, 4] {
            let model = ScriptedModel::new("yes");
            let mut config = PipelineConfig::best(Task::EntityMatching);
            config.components.few_shot = false;
            config.components.batching = false;
            config.workers = workers;
            let result = Preprocessor::new(&model, config).run(&instances, &[]);
            assert_eq!(model.requests(), 1, "workers={workers}");
            assert_eq!(result.stats.deduped, 9);
            assert_eq!(result.usage.requests, 1);
            assert!(result
                .predictions
                .iter()
                .all(|p| p.as_yes_no() == Some(true)));
        }
    }

    // --- context_fitted_batch_size edge cases ---------------------------

    fn fit_config(batch_size: usize) -> PipelineConfig {
        let mut config = PipelineConfig::best(Task::EntityMatching);
        config.components.few_shot = false;
        config.batch_size = batch_size;
        config
    }

    #[test]
    fn context_fit_empty_slice_keeps_configured_size() {
        let model = ScriptedModel::new("yes");
        let config = fit_config(12);
        let none: &[TaskInstance] = &[];
        assert_eq!(context_fitted_batch_size(&model, &config, none, &[]), 12);
    }

    #[test]
    fn context_fit_batch_size_one_is_passthrough() {
        let model = ScriptedModel::new("yes");
        let mut config = fit_config(1);
        let instances = em_instances(3);
        assert_eq!(
            context_fitted_batch_size(&model, &config, &instances, &[]),
            1
        );
        // Batching disabled entirely behaves the same.
        config.components.batching = false;
        config.batch_size = 15;
        assert_eq!(
            context_fitted_batch_size(&model, &config, &instances, &[]),
            1
        );
    }

    #[test]
    fn context_fit_oversized_question_clamps_to_one() {
        /// A model whose window is smaller than any one-question prompt.
        struct TinyWindow;
        impl ChatModel for TinyWindow {
            fn name(&self) -> &str {
                "tiny"
            }
            fn context_window(&self) -> usize {
                10
            }
            fn cost_usd(&self, _usage: &Usage) -> f64 {
                0.0
            }
            fn chat(&self, _request: &ChatRequest) -> ChatResponse {
                ChatResponse::new("", Usage::default(), 0.0)
            }
        }
        let config = fit_config(15);
        let instances = em_instances(5);
        assert_eq!(
            context_fitted_batch_size(&TinyWindow, &config, &instances, &[]),
            1
        );
    }

    #[test]
    fn context_fit_never_exceeds_configured_size() {
        let model = ScriptedModel::new("yes");
        let config = fit_config(4);
        let instances = em_instances(50);
        // A 100k window fits far more than 4 questions; the configured size
        // is the ceiling.
        assert_eq!(
            context_fitted_batch_size(&model, &config, &instances, &[]),
            4
        );
    }
}
