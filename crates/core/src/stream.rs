//! The planner: batching, context-window fitting, rendering, dedup, and
//! fingerprinting, yielded as bounded-memory plan shards.
//!
//! [`PlanStream`] yields a plan in fixed-size shards of batches, so the
//! executor holds at most one shard of rendered requests (plus the
//! responses still referenced by a later batch) at a time. A materialized
//! [`crate::exec::ExecutionPlan`] is the same stream with the whole plan
//! as its one shard, rendered before `build` returns.
//!
//! ## Two passes
//!
//! The stream is built in a **survey pass** and consumed in a **render
//! pass**:
//!
//! 1. **Survey** ([`PlanStream::new`]): render every batch's request and
//!    fingerprint it for dedup, then walk the fingerprints in plan order.
//!    Rendering and fingerprinting run on the run's worker threads
//!    ([`PipelineConfig::workers`]): the batches are cut into at most that
//!    many contiguous chunks, the calling thread surveys the first and one
//!    scoped thread each of the others, so one worker or one batch spawns
//!    no thread. Each chunk keeps only the renders of batches in the first
//!    shard. The dedup walk is serial, in plan order, so what survives is
//!    the same at any worker count: O(batches) indices and O(unique)
//!    `u64`s — the batch→unique-request map, the unique fingerprint list
//!    (hence the global plan fingerprint, known **before** any dispatch,
//!    so the journal header and resume check need no shard), per-unique
//!    batch/instance totals, and each unique request's last referencing
//!    batch (the executor's response-retention horizon) — plus the
//!    rendered requests its first shard will yield. Every other render is
//!    dropped.
//! 2. **Render** ([`PlanStream::next_shard`]): hand the requests *first
//!    seen* in the next `shard_size` batches to the executor as a
//!    [`PlanShard`]. The first shard's come from the survey; later shards
//!    re-render theirs on the calling thread, and a `debug_assert` checks
//!    each re-render against the surveyed fingerprint.
//!
//! The `prompt-build` stage times the survey's render-and-fingerprint
//! phase as wall time, plus the later shards' re-renders; the `plan` stage
//! times batching, the dedup walk and the shard bookkeeping.
//!
//! Deduplication order, fingerprints, sections, and batch membership do
//! not depend on the shard size: every shard size walks the same
//! `make_batches` output in the same order with the same dedup key. The
//! price of bounded memory is one extra render per unique request outside
//! the first shard, so a one-shard plan renders every batch exactly once.

use std::collections::{HashMap, HashSet};

use dprep_llm::{request_fingerprint, ChatModel, ChatRequest};
use dprep_prompt::{make_batches, FewShotExample, PromptConfig, PromptContext, TaskInstance};

use crate::config::PipelineConfig;
use crate::exec::{context_fitted_batch_size, PlannedBatch};

/// One slice of a streamed plan: `shard_size` consecutive batches plus the
/// unique requests that first occur in them. Request indices in
/// [`batches`](Self::batches) are **global** (into the whole plan's unique
/// request sequence); requests already seen in an earlier shard are not
/// re-rendered — the executor still holds their responses.
#[derive(Debug, Clone, Default)]
pub struct PlanShard {
    /// Global index of the first batch in this shard.
    pub first_batch: usize,
    /// The shard's batches, in plan order; `request_index` is global.
    pub batches: Vec<PlannedBatch>,
    /// Global index of the first request in `requests`.
    pub first_request: usize,
    /// Unique requests first seen in this shard (global indices
    /// `first_request..first_request + requests.len()`).
    pub requests: Vec<ChatRequest>,
    /// Prompt-component token counts, aligned with `requests`.
    pub sections: Vec<[usize; 5]>,
    /// Request fingerprints, aligned with `requests`.
    pub fingerprints: Vec<u64>,
}

/// A plan yielded incrementally as fixed-size shards (see the module docs).
pub struct PlanStream<'a> {
    shard_size: usize,
    /// Instance-index batches from `make_batches`; each inner vec is moved
    /// into its shard when yielded.
    batches: Vec<Vec<usize>>,
    /// Per batch: the global unique-request index serving it.
    batch_request: Vec<usize>,
    /// Per unique request: its dedup fingerprint, in first-occurrence order.
    fingerprints: Vec<u64>,
    /// Per unique request: the last batch referencing it — the executor
    /// drops a response once the plan cursor passes this batch.
    last_batch_of: Vec<usize>,
    /// Per unique request: how many batches it serves.
    batches_per: Vec<usize>,
    /// Per unique request: how many instances those batches cover.
    instances_per: Vec<usize>,
    /// The requests first seen in the first shard, with their section
    /// counts, rendered by the survey and kept so that shard is not
    /// rendered twice.
    first_renders: Vec<Render>,
    /// Next batch to yield.
    cursor: usize,
    /// Next unique request to render (first-occurrence order).
    next_request: usize,
    n_instances: usize,
    prompt_config: PromptConfig,
    context: PromptContext,
    instances: &'a [TaskInstance],
    temperature: Option<f64>,
    /// Wall-clock seconds deciding batch membership and dedup, aggregated
    /// across the survey pass and every shard yielded so far.
    plan_wall_secs: f64,
    /// Wall-clock seconds rendering and fingerprinting prompts (the
    /// survey's pool phase) and re-rendering later shards.
    prompt_build_wall_secs: f64,
    /// Scratch buffer of instance refs, reused for every shard re-render.
    scratch_refs: Vec<&'a TaskInstance>,
}

impl<'a> PlanStream<'a> {
    /// Surveys the whole plan (batching, dedup, fingerprints), keeping
    /// only the first shard's rendered requests, ready to yield shards of
    /// `shard_size` batches. `shard_size` is clamped to at least 1;
    /// `usize::MAX` makes the whole plan one shard. Renders and
    /// fingerprints run on `config.workers` threads, never more than there
    /// are batches (see the module docs); the result does not depend on
    /// the count.
    pub fn new<M: ChatModel + ?Sized>(
        model: &M,
        config: &PipelineConfig,
        instances: &'a [TaskInstance],
        examples: &[FewShotExample],
        shard_size: usize,
    ) -> PlanStream<'a> {
        let shots: &[FewShotExample] = if config.components.few_shot {
            examples
        } else {
            &[]
        };
        let shard_size = shard_size.max(1);
        let prompt_config = config.prompt_config();
        let strategy = effective_strategy(model, config, instances, shots);

        let plan_started = std::time::Instant::now();
        let batches = make_batches(instances, &strategy, config.seed);
        let pool_started = std::time::Instant::now();
        let context = PromptContext::new(&prompt_config, shots);
        let (keys, mut renders) = survey_renders(
            model,
            &context,
            instances,
            &batches,
            config.temperature,
            shard_size,
            config.workers,
        );
        let prompt_build_wall_secs = pool_started.elapsed().as_secs_f64();

        // The dedup walk: serial, in plan order, so unique numbering and
        // every per-unique total are what a one-thread survey produces.
        // Dedup key: everything that determines a deterministic model's
        // response — the same fingerprint `CacheLayer` memoizes by. Both
        // resolve the temperature first, so an unset `None` and an explicit
        // default can never defeat dedup on one side only. Deduping here
        // (not in a cache layer racing under the executor) keeps hit counts
        // worker-independent.
        let mut batch_request = Vec::with_capacity(batches.len());
        let mut fingerprints: Vec<u64> = Vec::new();
        let mut last_batch_of: Vec<usize> = Vec::new();
        let mut batches_per: Vec<usize> = Vec::new();
        let mut instances_per: Vec<usize> = Vec::new();
        let mut first_renders = Vec::new();
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for (batch_idx, (batch, &key)) in batches.iter().zip(&keys).enumerate() {
            let request_index = *seen.entry(key).or_insert_with(|| {
                if let Some(kept) = renders.get_mut(batch_idx) {
                    first_renders.push(kept.take().expect("a first occurrence keeps its render"));
                }
                fingerprints.push(key);
                last_batch_of.push(batch_idx);
                batches_per.push(0);
                instances_per.push(0);
                fingerprints.len() - 1
            });
            last_batch_of[request_index] = batch_idx;
            batches_per[request_index] += 1;
            instances_per[request_index] += batch.len();
            batch_request.push(request_index);
        }
        // What is left are renders of repeats: they die with the survey.
        drop(renders);

        PlanStream {
            shard_size,
            batches,
            batch_request,
            fingerprints,
            last_batch_of,
            batches_per,
            instances_per,
            first_renders,
            cursor: 0,
            next_request: 0,
            n_instances: instances.len(),
            prompt_config,
            context,
            instances,
            temperature: config.temperature,
            plan_wall_secs: (plan_started.elapsed().as_secs_f64() - prompt_build_wall_secs)
                .max(0.0),
            prompt_build_wall_secs,
            scratch_refs: Vec::new(),
        }
    }

    /// Yields the next shard, rendering its requests unless the survey
    /// kept them (the first shard), or `None` when the plan is exhausted.
    /// Timing accrues into
    /// [`plan_wall_secs`](Self::plan_wall_secs) /
    /// [`prompt_build_wall_secs`](Self::prompt_build_wall_secs) so the
    /// totals aggregate across every shard instead of reflecting only the
    /// last one.
    pub fn next_shard<M: ChatModel + ?Sized>(&mut self, model: &M) -> Option<PlanShard> {
        if self.is_exhausted() {
            return None;
        }
        let shard_started = std::time::Instant::now();
        let first_batch = self.cursor;
        let end = self
            .batches
            .len()
            .min(self.cursor.saturating_add(self.shard_size));
        let first_request = self.next_request;
        let mut shard_batches = Vec::with_capacity(end - first_batch);
        let mut requests: Vec<ChatRequest> = Vec::new();
        let mut sections: Vec<[usize; 5]> = Vec::new();
        let mut fingerprints: Vec<u64> = Vec::new();
        let mut render_secs = 0.0;
        // Non-empty on the first shard only, in first-occurrence order —
        // exactly the order the loop below meets that shard's uniques.
        let mut kept = std::mem::take(&mut self.first_renders).into_iter();
        for batch_idx in first_batch..end {
            let request_index = self.batch_request[batch_idx];
            let instance_indices = std::mem::take(&mut self.batches[batch_idx]);
            if request_index >= self.next_request {
                // First occurrence of this unique request: uniques are
                // numbered in first-occurrence order, so walking batches in
                // order reaches them contiguously.
                debug_assert_eq!(
                    request_index, self.next_request,
                    "unique order is contiguous"
                );
                let (request, request_sections) = match kept.next() {
                    Some(rendered) => rendered,
                    None => {
                        self.scratch_refs.clear();
                        self.scratch_refs
                            .extend(instance_indices.iter().map(|&i| &self.instances[i]));
                        let build_started = std::time::Instant::now();
                        let (mut request, request_sections) =
                            self.context.build(&self.scratch_refs);
                        render_secs += build_started.elapsed().as_secs_f64();
                        if let Some(t) = self.temperature {
                            request = request.with_temperature(t);
                        }
                        debug_assert_eq!(
                            request_fingerprint(model, &request),
                            self.fingerprints[request_index],
                            "shard re-render diverged from the survey pass"
                        );
                        (request, request_sections.as_array())
                    }
                };
                requests.push(request);
                sections.push(request_sections);
                fingerprints.push(self.fingerprints[request_index]);
                self.next_request = request_index + 1;
            }
            shard_batches.push(PlannedBatch {
                instance_indices,
                request_index,
            });
        }
        self.cursor = end;
        self.prompt_build_wall_secs += render_secs;
        self.plan_wall_secs += (shard_started.elapsed().as_secs_f64() - render_secs).max(0.0);
        Some(PlanShard {
            first_batch,
            batches: shard_batches,
            first_request,
            requests,
            sections,
            fingerprints,
        })
    }

    /// The global plan fingerprint: a deterministic fold over the unique
    /// request fingerprints in plan order, the same at every shard size.
    /// Any change to a prompt, the batch shape, the temperature, or the
    /// model changes it. It is the identity a run journal is recorded
    /// under, and it is known before any shard is yielded, so the journal
    /// header and resume check don't wait for planning to finish.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0x9e37_79b9_7f4a_7c15u64 ^ (self.fingerprints.len() as u64);
        for &f in &self.fingerprints {
            acc = acc.rotate_left(13) ^ f.wrapping_mul(0x0100_0000_01b3);
        }
        acc
    }

    /// Whether every shard has been yielded.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.cursor >= self.batches.len()
    }

    /// Total batches in the plan.
    pub fn n_batches(&self) -> usize {
        self.batch_request.len()
    }

    /// Total unique requests in the plan.
    pub fn n_requests(&self) -> usize {
        self.fingerprints.len()
    }

    /// Instances covered by the plan.
    pub fn n_instances(&self) -> usize {
        self.n_instances
    }

    /// Batches served by deduplication against an earlier identical batch.
    pub fn deduped_batches(&self) -> usize {
        self.n_batches() - self.n_requests()
    }

    /// Batches the given unique request serves (global totals across every
    /// shard, as the `Planned` event reports them).
    pub fn batches_per(&self, request_index: usize) -> usize {
        self.batches_per[request_index]
    }

    /// Instances the given unique request covers (global totals).
    pub fn instances_per(&self, request_index: usize) -> usize {
        self.instances_per[request_index]
    }

    /// The last batch referencing the given unique request: once the plan
    /// cursor passes it, the response can be dropped.
    pub fn last_batch_of(&self, request_index: usize) -> usize {
        self.last_batch_of[request_index]
    }

    /// Whether prompts request the two-line reasoning format.
    pub fn reasoning(&self) -> bool {
        self.prompt_config.reasoning
    }

    /// The instance slice the plan covers (outlives the stream borrow).
    pub fn instances(&self) -> &'a [TaskInstance] {
        self.instances
    }

    /// The sampling temperature applied to every request.
    pub(crate) fn temperature(&self) -> Option<f64> {
        self.temperature
    }

    /// The shared prompt context (degradation ladder re-renders through it).
    pub(crate) fn context(&self) -> &PromptContext {
        &self.context
    }

    /// Wall-clock seconds spent deciding batch membership and dedup, across
    /// the survey and every shard yielded so far.
    pub fn plan_wall_secs(&self) -> f64 {
        self.plan_wall_secs
    }

    /// Wall-clock seconds spent rendering prompts, across the survey (its
    /// render-and-fingerprint phase, fingerprints included) and every
    /// shard yielded so far.
    pub fn prompt_build_wall_secs(&self) -> f64 {
        self.prompt_build_wall_secs
    }
}

/// A rendered request with its prompt-component token counts.
type Render = (ChatRequest, [usize; 5]);

/// Renders and fingerprints every batch: the survey's pool phase. Returns
/// each batch's dedup key, in plan order, and the renders of the batches in
/// the first shard (`None` for a batch that repeats an earlier batch of
/// its chunk, which cannot be a first occurrence).
///
/// The batches are cut into at most `workers` contiguous chunks, one per
/// thread; the calling thread surveys the first, so one worker or one
/// batch spawns no thread. Each batch's key and render depend on the batch
/// alone, so the result is the same at any worker count.
fn survey_renders<M: ChatModel + ?Sized>(
    model: &M,
    context: &PromptContext,
    instances: &[TaskInstance],
    batches: &[Vec<usize>],
    temperature: Option<f64>,
    shard_size: usize,
    workers: usize,
) -> (Vec<u64>, Vec<Option<Render>>) {
    let chunk = |first: usize, part: &[Vec<usize>]| {
        let mut keys = Vec::with_capacity(part.len());
        let mut renders = Vec::new();
        let mut kept = HashSet::new();
        let mut refs: Vec<&TaskInstance> = Vec::new();
        for (batch_idx, batch) in (first..).zip(part) {
            refs.clear();
            refs.extend(batch.iter().map(|&i| &instances[i]));
            let (mut request, sections) = context.build(&refs);
            if let Some(t) = temperature {
                request = request.with_temperature(t);
            }
            let key = request_fingerprint(model, &request);
            keys.push(key);
            // Outside the first shard the render dies here: only the key
            // survives the survey.
            if batch_idx < shard_size {
                renders.push(kept.insert(key).then(|| (request, sections.as_array())));
            }
        }
        (keys, renders)
    };
    let threads = workers.clamp(1, batches.len().max(1));
    if threads == 1 {
        return chunk(0, batches);
    }
    let len = batches.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let chunk = &chunk;
        let rest: Vec<_> = batches
            .chunks(len)
            .enumerate()
            .skip(1)
            .map(|(c, part)| scope.spawn(move || chunk(c * len, part)))
            .collect();
        let (mut keys, mut renders) = chunk(0, &batches[..len]);
        for handle in rest {
            let (more_keys, more_renders) = handle.join().expect("survey thread panicked");
            keys.extend(more_keys);
            renders.extend(more_renders);
        }
        (keys, renders)
    })
}

/// The batching strategy a run actually uses: the configured strategy with
/// its batch size clamped to what fits the model's context window (when
/// `fit_context` is set).
fn effective_strategy<M: ChatModel + ?Sized>(
    model: &M,
    config: &PipelineConfig,
    instances: &[TaskInstance],
    shots: &[FewShotExample],
) -> dprep_prompt::BatchStrategy {
    let strategy = config.batch_strategy();
    if !config.fit_context {
        return strategy;
    }
    let clamped = context_fitted_batch_size(model, config, instances, shots);
    match strategy {
        dprep_prompt::BatchStrategy::Random { batch_size } => dprep_prompt::BatchStrategy::Random {
            batch_size: batch_size.min(clamped),
        },
        dprep_prompt::BatchStrategy::Cluster {
            batch_size,
            clusters,
        } => dprep_prompt::BatchStrategy::Cluster {
            batch_size: batch_size.min(clamped),
            clusters,
        },
    }
}

impl std::fmt::Debug for PlanStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanStream")
            .field("shard_size", &self.shard_size)
            .field("n_batches", &self.n_batches())
            .field("n_requests", &self.n_requests())
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::exec::ExecutionPlan;
    use dprep_llm::{ChatModel, ChatResponse, Usage};
    use dprep_prompt::Task;
    use dprep_tabular::{Record, Schema, Value};

    struct EchoModel;

    impl ChatModel for EchoModel {
        fn name(&self) -> &str {
            "echo"
        }
        fn context_window(&self) -> usize {
            100_000
        }
        fn cost_usd(&self, usage: &Usage) -> f64 {
            usage.total_tokens() as f64 * 1e-6
        }
        fn chat(&self, request: &dprep_llm::ChatRequest) -> ChatResponse {
            let body = &request.messages.last().unwrap().content;
            let count = body.matches("Question ").count().max(1);
            let mut text = String::new();
            for i in 1..=count {
                text.push_str(&format!("Answer {i}: yes\n"));
            }
            ChatResponse::new(text, Usage::default(), 0.5)
        }
    }

    fn em_instances(n: usize, dup_every: usize) -> Vec<TaskInstance> {
        let schema = Schema::all_text(&["title"]).unwrap().shared();
        (0..n)
            .map(|i| {
                let label = if dup_every > 0 && i % dup_every == 0 {
                    "duplicate product".to_string()
                } else {
                    format!("product {i}")
                };
                let rec = Record::new(schema.clone(), vec![Value::text(label)]).unwrap();
                TaskInstance::EntityMatching {
                    a: rec.clone(),
                    b: rec,
                }
            })
            .collect()
    }

    fn config() -> PipelineConfig {
        let mut config = PipelineConfig::best(Task::EntityMatching);
        config.components.few_shot = false;
        config.batch_size = 3;
        config
    }

    /// Reassembling every shard must reproduce the materialized plan
    /// byte-for-byte: batches, requests, sections, fingerprints, and the
    /// global plan fingerprint — at every survey worker count, against a
    /// one-worker plan. A survey keeps the renders of its first shard's
    /// unique requests and no others.
    #[test]
    fn shards_reassemble_into_the_materialized_plan() {
        let model = EchoModel;
        // batch_size 1 on duplicated instances also exercises dedup.
        for (n, dup_every, shard_size) in
            [(10, 0, 1), (10, 0, 2), (23, 0, 4), (23, 0, 100), (12, 3, 2)]
        {
            let mut config = config();
            if dup_every > 0 {
                config.components.batching = false;
            }
            let instances = em_instances(n, dup_every);
            let plan = ExecutionPlan::build(&model, &config, &instances, &[]);
            for workers in [1, 2, 3, 1 << 40] {
                let config = PipelineConfig {
                    workers,
                    ..config.clone()
                };
                let at = format!("n {n}, shard {shard_size}, workers {workers}");
                let pooled = ExecutionPlan::build(&model, &config, &instances, &[]);
                assert_eq!(pooled.fingerprint(), plan.fingerprint(), "{at}");
                assert_eq!(pooled.fingerprints(), plan.fingerprints(), "{at}");
                let mut stream = PlanStream::new(&model, &config, &instances, &[], shard_size);
                assert_eq!(stream.fingerprint(), plan.fingerprint(), "{at}");
                assert_eq!(stream.n_batches(), plan.batches().len(), "{at}");
                assert_eq!(stream.n_requests(), plan.requests().len(), "{at}");
                assert_eq!(stream.deduped_batches(), plan.deduped_batches(), "{at}");
                let first_shard = &stream.batch_request[..shard_size.min(stream.n_batches())];
                let first_uniques: HashSet<_> = first_shard.iter().collect();
                assert_eq!(stream.first_renders.len(), first_uniques.len(), "{at}");
                if shard_size < stream.n_batches() {
                    assert!(stream.first_renders.len() < stream.n_requests(), "{at}");
                }

                let mut batches = Vec::new();
                let mut requests = Vec::new();
                let mut sections = Vec::new();
                let mut fingerprints = Vec::new();
                while let Some(shard) = stream.next_shard(&model) {
                    assert_eq!(shard.first_batch, batches.len(), "{at}");
                    assert_eq!(shard.first_request, requests.len(), "{at}");
                    assert!(shard.batches.len() <= shard_size.max(1), "{at}");
                    batches.extend(shard.batches);
                    requests.extend(shard.requests);
                    sections.extend(shard.sections);
                    fingerprints.extend(shard.fingerprints);
                }
                for (streamed, planned) in batches.iter().zip(plan.batches()) {
                    assert_eq!(streamed.instance_indices, planned.instance_indices, "{at}");
                    assert_eq!(streamed.request_index, planned.request_index, "{at}");
                }
                assert_eq!(batches.len(), plan.batches().len(), "{at}");
                assert_eq!(requests.len(), plan.requests().len(), "{at}");
                for (streamed, planned) in requests.iter().zip(plan.requests()) {
                    assert_eq!(streamed.messages.len(), planned.messages.len(), "{at}");
                    for (a, b) in streamed.messages.iter().zip(&planned.messages) {
                        assert_eq!(a.content, b.content, "{at}");
                    }
                    assert_eq!(
                        streamed.prompt_tokens_hint, planned.prompt_tokens_hint,
                        "{at}"
                    );
                }
                assert_eq!(sections, plan.sections(), "{at}");
                assert_eq!(fingerprints, plan.fingerprints(), "{at}");
            }
        }
    }

    /// Per-unique totals must be global (all shards), matching what the
    /// materialized executor reports in `Planned` events.
    #[test]
    fn per_request_totals_are_global_across_shards() {
        let model = EchoModel;
        let mut config = config();
        config.components.batching = false;
        // Every instance identical -> one unique request serving all 7
        // batches, first seen in shard 0 but referenced by every shard.
        let instances = em_instances(7, 1);
        let mut stream = PlanStream::new(&model, &config, &instances, &[], 2);
        assert_eq!(stream.n_requests(), 1);
        assert_eq!(stream.batches_per(0), 7);
        assert_eq!(stream.instances_per(0), 7);
        assert_eq!(stream.last_batch_of(0), 6);
        let first = stream.next_shard(&model).expect("one shard");
        assert_eq!(first.requests.len(), 1);
        let mut rest = 0;
        while let Some(shard) = stream.next_shard(&model) {
            assert!(shard.requests.is_empty(), "request must not re-render");
            rest += shard.batches.len();
        }
        assert_eq!(rest, 5);
    }

    /// Timing aggregates across shards: each yielded shard can only grow
    /// the totals, never replace them with its own slice. The first
    /// shard's requests were rendered by the survey, so only later shards
    /// add render time.
    #[test]
    fn stage_timing_accumulates_across_shards() {
        let model = EchoModel;
        let config = config();
        let instances = em_instances(30, 0);
        let mut stream = PlanStream::new(&model, &config, &instances, &[], 2);
        let survey_build = stream.prompt_build_wall_secs();
        assert!(survey_build > 0.0, "survey renders every batch");
        let mut last_build = survey_build;
        let mut last_plan = stream.plan_wall_secs();
        while let Some(shard) = stream.next_shard(&model) {
            assert!(
                stream.prompt_build_wall_secs() >= last_build,
                "prompt-build wall must be monotone across shards"
            );
            assert!(stream.plan_wall_secs() >= last_plan);
            if shard.first_batch == 0 {
                assert_eq!(
                    stream.prompt_build_wall_secs(),
                    survey_build,
                    "the survey already rendered the first shard"
                );
            } else if !shard.requests.is_empty() {
                assert!(stream.prompt_build_wall_secs() > last_build);
            }
            last_build = stream.prompt_build_wall_secs();
            last_plan = stream.plan_wall_secs();
        }
    }
}
