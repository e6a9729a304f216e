//! The planner: batching, context-window fitting, rendering, dedup, and
//! fingerprinting, yielded as bounded-memory plan shards.
//!
//! [`PlanStream`] yields a plan in fixed-size shards of batches, so the
//! executor holds at most one shard of batches and kept bodies (plus the
//! responses still referenced by a later batch) at a time. A materialized
//! [`crate::exec::ExecutionPlan`] is the same stream with the whole plan
//! as its one shard, surveyed before `build` returns.
//!
//! ## Two passes
//!
//! The stream is built in a **survey pass** and consumed in a **shard
//! pass**; each request is built on the worker that sends it.
//!
//! Every read of an instance goes through the run's [`InstanceSource`]:
//! batching (cluster batching embeds each instance's text), the
//! context-window fit, the survey's renders, the renders of later shards
//! on the workers, and the degradation ladder's. A render reads each of
//! its batch's instances as it writes that instance's question, so a
//! source that builds instances on demand holds at most one at a time per
//! rendering thread, and the stream holds none.
//!
//! 1. **Survey** ([`PlanStream::new`]): render every batch's body and
//!    fingerprint it for dedup, then walk the fingerprints in plan order.
//!    Each thread renders into one buffer, reused batch after batch, and
//!    fingerprints the body by continuing a [`FingerprintPrefix`] taken
//!    once after the plan-invariant prefix (model name, temperature, salt,
//!    system message and few-shot turns), so a batch hashes only its own
//!    bytes. Rendering and fingerprinting run on the run's worker threads
//!    ([`PipelineConfig::workers`]): the batches are cut into at most that
//!    many contiguous chunks, the calling thread surveys the first and one
//!    scoped thread each of the others, so one worker or one batch spawns
//!    no thread. Of the first shard's batches, each first occurrence keeps
//!    an exact-size copy of its body and the body's token count
//!    ([`KeptBody`]); no other body outlives its batch, and no
//!    [`ChatRequest`] is built. The dedup walk is serial, in plan order,
//!    so what survives is the same at any worker count: O(batches)
//!    indices and O(unique) `u64`s — the batch→unique-request map, the
//!    unique fingerprint list (hence the global plan fingerprint, known
//!    **before** any dispatch, so the journal header and resume check need
//!    no shard), per-unique batch/instance totals, and each unique
//!    request's last referencing batch (the executor's response-retention
//!    horizon) — plus the bodies its first shard keeps.
//! 2. **Shards** ([`PlanStream::next_shard`]): hand the next `shard_size`
//!    batches to the executor as a [`PlanShard`], with the fingerprints,
//!    and the first shard's kept bodies, of the unique requests first seen
//!    in them. Nothing renders here.
//! 3. **On the worker**: the executor's worker that sends a unique request
//!    builds it ([`PromptContext::frame`] around the body), moving the
//!    kept body in, or, in a later shard (or a plan run a second time),
//!    rendering the body into a buffer of its own. It drops the request
//!    once the response is in, so a request — and the system message and
//!    few-shot turns each one copies — lives only while it is in flight.
//!
//! The `prompt-build` stage times the survey's render-and-fingerprint
//! phase as wall time; the `plan` stage times batching, the dedup walk and
//! the shard bookkeeping. Renders on the worker fall inside the executor's
//! `dispatch` stage, beside the model calls.
//!
//! Deduplication order, fingerprints, sections, and batch membership do
//! not depend on the shard size: every shard size walks the same
//! `make_batches` output in the same order with the same dedup key. The
//! price of bounded memory is one extra render per unique request outside
//! the first shard, on the worker that sends it, so a one-shard plan
//! renders every batch exactly once.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, PoisonError};

use dprep_llm::{ChatModel, ChatRequest, FingerprintPrefix};
use dprep_prompt::{make_batches, FewShotExample, InstanceSource, PromptConfig, PromptContext};
use dprep_text::count_tokens;

use crate::config::PipelineConfig;
use crate::exec::{context_fitted_batch_size, PlannedBatch};

/// One slice of a streamed plan: `shard_size` consecutive batches plus the
/// unique requests that first occur in them. Request indices in
/// [`batches`](Self::batches) are **global** (into the whole plan's unique
/// request sequence); requests already seen in an earlier shard are not
/// sent again — the executor still holds their responses.
#[derive(Debug, Clone, Default)]
pub struct PlanShard {
    /// Global index of the first batch in this shard.
    pub first_batch: usize,
    /// The shard's batches, in plan order; `request_index` is global.
    pub batches: Vec<PlannedBatch>,
    /// Global index of the first unique request first seen in this shard.
    pub first_request: usize,
    /// Per unique request first seen in this shard (global indices
    /// `first_request..first_request + fingerprints.len()`): the index
    /// into [`batches`](Self::batches) of its first batch, whose instances
    /// its prompt asks about.
    pub request_batches: Vec<usize>,
    /// The survey's kept bodies, aligned with `request_batches`: filled in
    /// the first shard, empty in later ones, whose worker renders the body.
    pub bodies: Vec<KeptBody>,
    /// Request fingerprints, aligned with `request_batches`.
    pub fingerprints: Vec<u64>,
}

/// A first-shard batch body the survey kept for the worker that sends its
/// request: the text, at its exact size, and its token count. The worker
/// takes it, so each kept body moves into exactly one request; a plan run
/// a second time finds it gone and renders on the worker.
#[derive(Debug, Default)]
pub struct KeptBody(Mutex<Option<(Box<str>, usize)>>);

impl KeptBody {
    /// An exact-size copy of `body`, with its token count.
    fn keep(body: &str) -> KeptBody {
        KeptBody(Mutex::new(Some((body.into(), count_tokens(body)))))
    }

    /// Takes the body and its token count, leaving the slot empty.
    fn take(&self) -> Option<(String, usize)> {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        slot.take()
            .map(|(text, tokens)| (text.into_string(), tokens))
    }

    /// A copy of the body and its token count, leaving them kept.
    #[cfg(test)]
    fn get(&self) -> Option<(String, usize)> {
        let slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        slot.as_ref()
            .map(|(text, tokens)| (text.to_string(), *tokens))
    }
}

impl Clone for KeptBody {
    fn clone(&self) -> KeptBody {
        let slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        KeptBody(Mutex::new(slot.clone()))
    }
}

/// One thread's render buffer, reused for every batch body it renders.
#[derive(Debug, Default)]
pub(crate) struct RenderScratch {
    body: String,
}

impl RenderScratch {
    /// Renders the body of the batch over `indices` into the buffer,
    /// reading each instance from `source` as its question is written.
    fn render(
        &mut self,
        context: &PromptContext,
        source: &dyn InstanceSource,
        indices: &[usize],
    ) -> &str {
        self.body.clear();
        context.write_batch(&mut self.body, source, indices.iter().copied());
        &self.body
    }
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
    /// The bodies of the requests first seen in the first shard, in
    /// first-occurrence order, kept by the survey so that shard is not
    /// rendered twice.
    first_bodies: Vec<KeptBody>,
    /// Next batch to yield.
    cursor: usize,
    /// Next unique request to yield (first-occurrence order).
    next_request: usize,
    prompt_config: PromptConfig,
    context: PromptContext,
    /// Where the plan's instances are read from, batch by batch.
    source: Box<dyn InstanceSource + Send + 'a>,
    temperature: Option<f64>,
    /// Wall-clock seconds deciding batch membership and dedup, aggregated
    /// across the survey pass and every shard yielded so far.
    plan_wall_secs: f64,
    /// Wall-clock seconds of the survey's render-and-fingerprint phase.
    prompt_build_wall_secs: f64,
}

impl<'a> PlanStream<'a> {
    /// Surveys the whole plan (batching, dedup, fingerprints) over the
    /// instances `instances` reads, keeping only the first shard's batch
    /// bodies, ready to yield shards of `shard_size` batches. `shard_size`
    /// is clamped to at least 1; `usize::MAX` makes the whole plan one
    /// shard. Renders and fingerprints run on `config.workers` threads,
    /// never more than there are batches (see the module docs); the result
    /// does not depend on the count.
    ///
    /// `instances` is any [`InstanceSource`], a slice of instances
    /// included; every read of an instance, here and in the run, goes
    /// through it.
    pub fn new<M: ChatModel + ?Sized, S: InstanceSource + ?Sized>(
        model: &M,
        config: &PipelineConfig,
        instances: &'a S,
        examples: &[FewShotExample],
        shard_size: usize,
    ) -> PlanStream<'a> {
        let source: Box<dyn InstanceSource + Send + 'a> = Box::new(instances);
        let shots: &[FewShotExample] = if config.components.few_shot {
            examples
        } else {
            &[]
        };
        let shard_size = shard_size.max(1);
        let prompt_config = config.prompt_config();
        let strategy = effective_strategy(model, config, &*source, shots);

        let plan_started = std::time::Instant::now();
        let batches = make_batches(&*source, &strategy, config.seed);
        let pool_started = std::time::Instant::now();
        let context = PromptContext::new(&prompt_config, shots);
        // Every request of the plan is this template with its own body.
        let (mut template, _) = context.frame(String::new(), 0);
        template.temperature = config.temperature;
        let prefix = FingerprintPrefix::new(model, &template);
        drop(template);
        let (keys, mut kept) = survey_renders(
            &context,
            &prefix,
            &*source,
            &batches,
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
        let mut first_bodies = Vec::new();
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for (batch_idx, (batch, &key)) in batches.iter().zip(&keys).enumerate() {
            let request_index = *seen.entry(key).or_insert_with(|| {
                if let Some(body) = kept.get_mut(batch_idx) {
                    first_bodies.push(body.take().expect("a first occurrence keeps its body"));
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
        // What is left are bodies of repeats: they die with the survey.
        drop(kept);

        PlanStream {
            shard_size,
            batches,
            batch_request,
            fingerprints,
            last_batch_of,
            batches_per,
            instances_per,
            first_bodies,
            cursor: 0,
            next_request: 0,
            prompt_config,
            context,
            source,
            temperature: config.temperature,
            plan_wall_secs: (plan_started.elapsed().as_secs_f64() - prompt_build_wall_secs)
                .max(0.0),
            prompt_build_wall_secs,
        }
    }

    /// Yields the next shard, with the kept bodies of its unique requests
    /// when it is the first, or `None` when the plan is exhausted. Its
    /// time accrues into [`plan_wall_secs`](Self::plan_wall_secs), so the
    /// total aggregates across every shard instead of reflecting only the
    /// last one.
    pub fn next_shard(&mut self) -> Option<PlanShard> {
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
        let mut request_batches = Vec::new();
        // Non-empty for the first shard only, in first-occurrence order —
        // exactly the order the loop below meets that shard's uniques.
        let mut bodies = std::mem::take(&mut self.first_bodies);
        for batch_idx in first_batch..end {
            let request_index = self.batch_request[batch_idx];
            if request_index >= self.next_request {
                // First occurrence of this unique request: uniques are
                // numbered in first-occurrence order, so walking batches in
                // order reaches them contiguously.
                debug_assert_eq!(
                    request_index, self.next_request,
                    "unique order is contiguous"
                );
                request_batches.push(shard_batches.len());
                self.next_request = request_index + 1;
            }
            shard_batches.push(PlannedBatch {
                instance_indices: std::mem::take(&mut self.batches[batch_idx]),
                request_index,
            });
        }
        bodies.resize_with(request_batches.len(), KeptBody::default);
        self.cursor = end;
        self.plan_wall_secs += shard_started.elapsed().as_secs_f64();
        Some(PlanShard {
            first_batch,
            batches: shard_batches,
            first_request,
            request_batches,
            bodies,
            fingerprints: self.fingerprints[first_request..self.next_request].to_vec(),
        })
    }

    /// Builds unique request `i` of `shard` (its temperature set, no trace
    /// id), with its prompt-component token counts, for the worker that
    /// sends it: around the body the survey kept, which it takes, or else
    /// around a body rendered into `scratch`.
    pub(crate) fn take_request(
        &self,
        shard: &PlanShard,
        i: usize,
        scratch: &mut RenderScratch,
    ) -> (ChatRequest, [usize; 5]) {
        let body = shard.bodies.get(i).and_then(KeptBody::take);
        self.frame(body.unwrap_or_else(|| self.render(shard, i, scratch)))
    }

    /// Builds unique request `i` of `shard` from a fresh render, leaving
    /// any kept body in place.
    pub(crate) fn render_request(
        &self,
        shard: &PlanShard,
        i: usize,
        scratch: &mut RenderScratch,
    ) -> (ChatRequest, [usize; 5]) {
        self.frame(self.render(shard, i, scratch))
    }

    /// Builds the request of a group of instances outside the plan's
    /// batches (the degradation ladder's), rendered from the source, with
    /// its prompt-component token counts.
    pub(crate) fn group_request(&self, group: &[usize]) -> (ChatRequest, [usize; 5]) {
        let mut body = String::new();
        self.context
            .write_batch(&mut body, &*self.source, group.iter().copied());
        let tokens = count_tokens(&body);
        self.frame((body, tokens))
    }

    /// Renders unique request `i`'s body into `scratch` and copies it out
    /// at its exact size, with its token count.
    fn render(&self, shard: &PlanShard, i: usize, scratch: &mut RenderScratch) -> (String, usize) {
        let batch = &shard.batches[shard.request_batches[i]];
        let body = scratch.render(&self.context, &*self.source, &batch.instance_indices);
        (body.to_string(), count_tokens(body))
    }

    /// The request around a body and its token count.
    fn frame(&self, (body, tokens): (String, usize)) -> (ChatRequest, [usize; 5]) {
        let (mut request, sections) = self.context.frame(body, tokens);
        request.temperature = self.temperature;
        (request, sections.as_array())
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
        self.source.len()
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

    /// Wall-clock seconds spent deciding batch membership and dedup, across
    /// the survey and every shard yielded so far.
    pub fn plan_wall_secs(&self) -> f64 {
        self.plan_wall_secs
    }

    /// Wall-clock seconds the survey spent rendering and fingerprinting
    /// batch bodies. Renders on the executor's workers, for shards after
    /// the first, are timed in its `dispatch` stage instead.
    pub fn prompt_build_wall_secs(&self) -> f64 {
        self.prompt_build_wall_secs
    }
}

/// Renders and fingerprints every batch body: the survey's pool phase.
/// Returns each batch's dedup key, in plan order, and a kept body for each
/// batch in the first shard (`None` for a batch that repeats an earlier
/// batch of its chunk, which cannot be a first occurrence).
///
/// The batches are cut into at most `workers` contiguous chunks, one per
/// thread; the calling thread surveys the first, so one worker or one
/// batch spawns no thread. Each thread renders into one reused buffer and
/// keys a body by continuing `prefix` over it. A batch's key and body
/// depend on the batch alone, so the result is the same at any worker
/// count.
fn survey_renders(
    context: &PromptContext,
    prefix: &FingerprintPrefix,
    source: &dyn InstanceSource,
    batches: &[Vec<usize>],
    shard_size: usize,
    workers: usize,
) -> (Vec<u64>, Vec<Option<KeptBody>>) {
    let chunk = |first: usize, part: &[Vec<usize>]| {
        let mut keys = Vec::with_capacity(part.len());
        let mut kept = Vec::new();
        let mut seen = HashSet::new();
        let mut scratch = RenderScratch::default();
        for (batch_idx, batch) in (first..).zip(part) {
            let body = scratch.render(context, source, batch);
            let key = prefix.finish(body);
            keys.push(key);
            // Outside the first shard the body dies here: only the key
            // survives the survey.
            if batch_idx < shard_size {
                kept.push(seen.insert(key).then(|| KeptBody::keep(body)));
            }
        }
        (keys, kept)
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
        let (mut keys, mut kept) = chunk(0, &batches[..len]);
        for handle in rest {
            let (more_keys, more_kept) = handle.join().expect("survey thread panicked");
            keys.extend(more_keys);
            kept.extend(more_kept);
        }
        (keys, kept)
    })
}

/// The batching strategy a run actually uses: the configured strategy with
/// its batch size clamped to what fits the model's context window (when
/// `fit_context` is set).
fn effective_strategy<M: ChatModel + ?Sized>(
    model: &M,
    config: &PipelineConfig,
    instances: &dyn InstanceSource,
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
    use dprep_llm::{request_fingerprint, ChatModel, ChatResponse, Usage};
    use dprep_prompt::{Task, TaskInstance};
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
    /// byte-for-byte: batches, fingerprints, and the global plan
    /// fingerprint — at every survey worker count, against a one-worker
    /// plan. The survey keeps the bodies of its first shard's unique
    /// requests and no others, each the body a fresh render writes with
    /// its token count; the request a worker builds from a kept body, or
    /// from its own render in a later shard, is the plan's request, with
    /// the plan's sections and the surveyed fingerprint; and a kept body
    /// moves into exactly one request.
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
            let planned_requests = plan.requests();
            let planned_sections = plan.sections();
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
                assert_eq!(stream.n_requests(), planned_requests.len(), "{at}");
                assert_eq!(stream.deduped_batches(), plan.deduped_batches(), "{at}");
                let first_shard = &stream.batch_request[..shard_size.min(stream.n_batches())];
                let first_uniques: HashSet<_> = first_shard.iter().collect();
                assert_eq!(stream.first_bodies.len(), first_uniques.len(), "{at}");
                if shard_size < stream.n_batches() {
                    assert!(stream.first_bodies.len() < stream.n_requests(), "{at}");
                }

                let mut batches = Vec::new();
                let mut fingerprints = Vec::new();
                let mut scratch = RenderScratch::default();
                while let Some(shard) = stream.next_shard() {
                    assert_eq!(shard.first_batch, batches.len(), "{at}");
                    assert_eq!(shard.first_request, fingerprints.len(), "{at}");
                    assert!(shard.batches.len() <= shard_size.max(1), "{at}");
                    let uniques = shard.fingerprints.len();
                    assert_eq!(shard.request_batches.len(), uniques, "{at}");
                    assert_eq!(shard.bodies.len(), uniques, "{at}");
                    for i in 0..uniques {
                        let g = shard.first_request + i;
                        let batch = &shard.batches[shard.request_batches[i]];
                        assert_eq!(batch.request_index, g, "{at}");
                        let planned = &planned_requests[g];
                        let kept = shard.bodies[i].get();
                        match &kept {
                            Some((body, tokens)) => {
                                assert_eq!(shard.first_batch, 0, "{at}: kept outside shard 0");
                                assert_eq!(body, &planned.messages.last().unwrap().content);
                                assert_eq!(*tokens, planned_sections[g][4], "{at}");
                            }
                            None => assert_ne!(shard.first_batch, 0, "{at}: shard 0 keeps all"),
                        }
                        let (built, sections) = stream.take_request(&shard, i, &mut scratch);
                        assert_eq!(&built, planned, "{at}: request {g}");
                        assert_eq!(sections, planned_sections[g], "{at}: request {g}");
                        assert_eq!(
                            request_fingerprint(&model, &built),
                            shard.fingerprints[i],
                            "{at}: request {g}"
                        );
                        assert!(shard.bodies[i].get().is_none(), "{at}: taken once");
                        let (again, _) = stream.take_request(&shard, i, &mut scratch);
                        assert_eq!(&again, planned, "{at}: rendered again once taken");
                    }
                    batches.extend(shard.batches);
                    fingerprints.extend(shard.fingerprints);
                }
                for (streamed, planned) in batches.iter().zip(plan.batches()) {
                    assert_eq!(streamed.instance_indices, planned.instance_indices, "{at}");
                    assert_eq!(streamed.request_index, planned.request_index, "{at}");
                }
                assert_eq!(batches.len(), plan.batches().len(), "{at}");
                assert_eq!(fingerprints, plan.fingerprints(), "{at}");
            }
        }
    }

    /// Per-unique totals must be global (all shards), matching what the
    /// materialized executor reports in `Planned` events; a request first
    /// seen in shard 0 is neither kept nor yielded again by a later shard.
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
        let first = stream.next_shard().expect("one shard");
        assert_eq!(first.fingerprints.len(), 1);
        assert!(first.bodies[0].get().is_some(), "shard 0 keeps its body");
        let mut rest = 0;
        while let Some(shard) = stream.next_shard() {
            assert!(
                shard.fingerprints.is_empty(),
                "request must not be sent again"
            );
            assert!(shard.bodies.is_empty() && shard.request_batches.is_empty());
            rest += shard.batches.len();
        }
        assert_eq!(rest, 5);
    }

    /// Timing aggregates across shards: each yielded shard can only grow
    /// the plan total, never replace it with its own slice. Every render
    /// the stream times is the survey's; later shards render on the
    /// executor's workers, inside its `dispatch` stage.
    #[test]
    fn stage_timing_accumulates_across_shards() {
        let model = EchoModel;
        let config = config();
        let instances = em_instances(30, 0);
        let mut stream = PlanStream::new(&model, &config, &instances, &[], 2);
        let survey_build = stream.prompt_build_wall_secs();
        assert!(survey_build > 0.0, "survey renders every batch");
        let mut last_plan = stream.plan_wall_secs();
        while stream.next_shard().is_some() {
            assert!(stream.plan_wall_secs() >= last_plan);
            assert_eq!(stream.prompt_build_wall_secs(), survey_build);
            last_plan = stream.plan_wall_secs();
        }
    }
}
