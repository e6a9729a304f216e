//! Composable middleware over any [`ChatModel`].
//!
//! Production LLM serving is never a bare endpoint: requests are retried,
//! cached, and occasionally fail at the transport layer. This module
//! provides those layers as decorators that themselves implement
//! [`ChatModel`], so they stack in any order over any base model:
//!
//! ```text
//! CacheLayer ── RetryLayer ── FaultLayer ── SimulatedLlm
//!   (memoize      (re-issue     (inject        (solve)
//!    by request    with fresh    deterministic
//!    hash)         retry salt)   faults)
//! ```
//!
//! * [`RetryLayer`] re-issues a request with a perturbed retry salt when
//!   the response answers fewer questions than were asked (or carries a
//!   fault), with bounded attempts and exponential backoff accounted in
//!   virtual latency.
//! * [`CacheLayer`] memoizes responses by a stable request hash,
//!   deduplicating identical prompts across runs and ablation sweeps.
//! * [`FaultLayer`] deterministically injects timeouts and truncated
//!   completions, exercising the retry path without a flaky network.
//!
//! All layers report into a shared [`MiddlewareStats`], so a harness can
//! read retry/recovery/cache counters after a run regardless of how the
//! stack was assembled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dprep_obs::{JournalEntry, NullTracer, TerminalKind, TraceEvent, Tracer};
use dprep_rng::StableHasher;
use dprep_text::count_tokens;

use crate::chat::{ChatModel, ChatRequest, ChatResponse, FaultKind, MESSAGE_END};
use crate::fault::{FaultEffect, FaultScenario};
use crate::usage::Usage;

/// Thread-safe counters shared by every layer of one middleware stack.
#[derive(Debug, Default)]
pub struct MiddlewareStats {
    /// Re-issued requests (each retry attempt counts once).
    pub retries: AtomicUsize,
    /// Requests that failed at least once and then succeeded on a retry.
    pub recovered: AtomicUsize,
    /// Requests still failing after the retry budget was spent.
    pub exhausted: AtomicUsize,
    /// Requests served from the cache.
    pub cache_hits: AtomicUsize,
    /// Requests that missed the cache and were computed.
    pub cache_misses: AtomicUsize,
    /// Faults injected by the fault layer.
    pub faults_injected: AtomicUsize,
}

impl MiddlewareStats {
    /// A fresh, shareable counter set.
    pub fn shared() -> Arc<MiddlewareStats> {
        Arc::new(MiddlewareStats::default())
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value snapshot of [`MiddlewareStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Re-issued requests.
    pub retries: usize,
    /// Requests recovered by a retry.
    pub recovered: usize,
    /// Requests that exhausted the retry budget.
    pub exhausted: usize,
    /// Cache hits.
    pub cache_hits: usize,
    /// Cache misses.
    pub cache_misses: usize,
    /// Injected faults.
    pub faults_injected: usize,
}

/// Counts lines of `text` that start with `prefix` followed by one or more
/// ASCII digits and a colon — a `Question N:` / `Answer N:` marker. Matching
/// is anchored to line starts so data values that merely *contain* the
/// marker text (a paper title quoting "Question 7", say) never count.
fn count_line_markers(text: &str, prefix: &str) -> usize {
    text.lines()
        .filter(|l| {
            l.trim_start().strip_prefix(prefix).is_some_and(|tail| {
                let bytes = tail.as_bytes();
                let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
                digits > 0 && bytes.get(digits) == Some(&b':')
            })
        })
        .count()
}

/// Number of `Question N:` slots the request asks about (0 when the prompt
/// is not in the batch-question format). Only line-start `Question N:`
/// markers count, mirroring [`answered_count`] — a substring inside a data
/// value must not inflate the expected count and burn the retry budget.
pub fn expected_answers(request: &ChatRequest) -> usize {
    request
        .messages
        .last()
        .map(|m| count_line_markers(&m.content, "Question "))
        .unwrap_or(0)
}

/// Number of `Answer N:` markers present in the completion.
pub fn answered_count(response: &ChatResponse) -> usize {
    count_line_markers(&response.text, "Answer ")
}

/// Whether a response fully serves its request: no serving-layer fault, and
/// at least as many answers as questions.
pub fn is_complete(request: &ChatRequest, response: &ChatResponse) -> bool {
    is_complete_for(expected_answers(request), response)
}

/// [`is_complete`] for a request that asks `expected` questions (its
/// [`expected_answers`]), for a caller that no longer holds the request.
pub fn is_complete_for(expected: usize, response: &ChatResponse) -> bool {
    response.meta.fault.is_none() && (expected == 0 || answered_count(response) >= expected)
}

/// Stable fingerprint of everything that determines a deterministic model's
/// response to `request`: model name, **resolved** temperature, retry salt,
/// and full prompt text.
///
/// This is the single definition of request identity shared by plan-time
/// deduplication (`dprep-core`) and [`CacheLayer`] memoization — resolving
/// the temperature before hashing means an unset `None` and an explicit
/// default-valued temperature can never be treated as different requests by
/// one layer and identical by the other. The trace id is deliberately
/// excluded: it never affects the model's output.
pub fn request_fingerprint<M: ChatModel + ?Sized>(model: &M, request: &ChatRequest) -> u64 {
    let mut hasher = descriptor_hasher(model, request);
    request.hash_full_text(&mut hasher);
    hasher.finish()
}

/// The fingerprint's hasher after the descriptor's head. The fingerprint
/// is the hash of `"{name}|{temperature}|{salt}|{full text}"`, streamed:
/// neither the descriptor nor the full text is ever built.
fn descriptor_hasher<M: ChatModel + ?Sized>(model: &M, request: &ChatRequest) -> StableHasher {
    use std::fmt::Write;
    let temperature = request.temperature_or(model.default_temperature());
    let mut hasher = StableHasher::new(0x00ca_c4e0);
    let _ = write!(
        hasher,
        "{}|{temperature}|{}|",
        model.name(),
        request.retry_salt
    );
    hasher
}

/// [`request_fingerprint`] split at the last message's content, for
/// requests that differ in nothing else.
///
/// A plan's requests share their model, temperature, salt, system message
/// and few-shot turns; only the last user turn, the batch, differs.
/// [`new`](Self::new) hashes that shared prefix once, and
/// [`finish`](Self::finish) continues a copy of its hasher state over one
/// batch's content, so fingerprinting a batch hashes only the batch.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintPrefix {
    state: StableHasher,
}

impl FingerprintPrefix {
    /// Hashes everything [`request_fingerprint`] reads from `template` and
    /// `model` before the template's last message's content.
    ///
    /// # Panics
    /// Panics when `template` has no message: there is no content to
    /// continue from.
    pub fn new<M: ChatModel + ?Sized>(model: &M, template: &ChatRequest) -> FingerprintPrefix {
        assert!(
            !template.messages.is_empty(),
            "a fingerprint prefix needs a last message"
        );
        let mut state = descriptor_hasher(model, template);
        template.hash_full_text_before_last(&mut state);
        FingerprintPrefix { state }
    }

    /// The [`request_fingerprint`] of the template with its last message's
    /// content replaced by `content`.
    pub fn finish(&self, content: &str) -> u64 {
        let mut hasher = self.state;
        hasher.write(content.as_bytes());
        hasher.write(MESSAGE_END.as_bytes());
        hasher.finish()
    }
}

// ---------------------------------------------------------------------------
// RetryLayer
// ---------------------------------------------------------------------------

/// The largest retry budget a user may ask for. Backoff doubles per
/// attempt, so a budget is a bill: at 11 retries a request whose fault
/// never clears waits 2^11 − 1 virtual seconds (34 minutes) of backoff
/// alone.
pub const MAX_RETRIES: u32 = 10;

/// Checks a user-supplied retry budget before anything runs: at most
/// [`MAX_RETRIES`]. The error names the bound.
pub fn check_retries(retries: usize) -> Result<u32, String> {
    u32::try_from(retries)
        .ok()
        .filter(|&r| r <= MAX_RETRIES)
        .ok_or_else(|| format!("retries must be at most {MAX_RETRIES}, got {retries}"))
}

/// Re-issues incomplete requests with a perturbed retry salt.
///
/// A response is incomplete when it carries a fault or parses to fewer
/// `Answer N:` slots than the request's `Question N:` slots. Each retry
/// perturbs [`ChatRequest::retry_salt`] — resampling the simulator's noise
/// without changing the prompt text — and adds exponential backoff to the
/// response's virtual latency. Usage accumulates over every attempt: the
/// tokens of a failed attempt are still billed, exactly as a real API would.
pub struct RetryLayer<M> {
    inner: M,
    max_retries: u32,
    backoff_base_secs: f64,
    stats: Arc<MiddlewareStats>,
    tracer: Arc<dyn Tracer>,
}

impl<M: ChatModel> RetryLayer<M> {
    /// Wraps `inner` with a budget of `max_retries` re-issues per request.
    pub fn new(inner: M, max_retries: u32) -> Self {
        RetryLayer {
            inner,
            max_retries,
            backoff_base_secs: 1.0,
            stats: MiddlewareStats::shared(),
            tracer: Arc::new(NullTracer),
        }
    }

    /// Reports into an externally owned counter set.
    pub fn with_stats(mut self, stats: Arc<MiddlewareStats>) -> Self {
        self.stats = stats;
        self
    }

    /// Emits a [`TraceEvent::RetryAttempt`] per re-issue into `tracer`.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Overrides the base backoff (virtual seconds before the first retry;
    /// doubles each attempt).
    pub fn with_backoff(mut self, base_secs: f64) -> Self {
        self.backoff_base_secs = base_secs;
        self
    }

    /// The layer's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }
}

impl<M: ChatModel> ChatModel for RetryLayer<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn default_temperature(&self) -> f64 {
        self.inner.default_temperature()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn cost_usd(&self, usage: &Usage) -> f64 {
        self.inner.cost_usd(usage)
    }

    fn take_route_pending(&self, trace_id: u64) -> Option<crate::router::RoutePending> {
        self.inner.take_route_pending(trace_id)
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let mut total_usage = Usage::default();
        let mut total_latency = 0.0;
        let mut response = self.inner.chat(request);
        let mut attempts: u32 = 0;

        while !is_complete(request, &response)
            && attempts < self.max_retries
            // A non-retryable fault (rejection, open breaker) cannot clear
            // on a re-issue: stop immediately instead of burning budget.
            && response.meta.fault.is_none_or(FaultKind::is_retryable)
        {
            attempts += 1;
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
            // Bill the failed attempt and wait out the backoff: exponential,
            // but never shorter than the provider's `retry_after` hint.
            let doublings = i32::try_from(attempts - 1).unwrap_or(i32::MAX);
            let exponential = self.backoff_base_secs * 2f64.powi(doublings);
            let backoff = response
                .meta
                .fault
                .and_then(FaultKind::retry_after_secs)
                .map_or(exponential, |hint| exponential.max(hint));
            self.tracer.record(&TraceEvent::RetryAttempt {
                request: request.trace_id,
                attempt: attempts,
                prompt_tokens: response.usage.prompt_tokens,
                completion_tokens: response.usage.completion_tokens,
                backoff_secs: backoff,
            });
            total_usage.prompt_tokens += response.usage.prompt_tokens;
            total_usage.completion_tokens += response.usage.completion_tokens;
            total_latency += response.latency_secs;
            total_latency += backoff;

            let salted = request
                .clone()
                .with_retry_salt(request.retry_salt.wrapping_add(u64::from(attempts)));
            response = self.inner.chat(&salted);
        }

        let succeeded = is_complete(request, &response);
        if attempts > 0 {
            if succeeded {
                self.stats.recovered.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Record the final attempt's own size before folding failed attempts
        // into the accumulated usage: context-overflow classification must
        // compare a single attempt against the window, never the total.
        response.meta.attempt_usage = Some(response.usage);
        response.usage.prompt_tokens += total_usage.prompt_tokens;
        response.usage.completion_tokens += total_usage.completion_tokens;
        response.latency_secs += total_latency;
        response.meta.retries = attempts;
        response
    }
}

// ---------------------------------------------------------------------------
// CacheLayer
// ---------------------------------------------------------------------------

/// A shareable request-hash → response memo.
pub type CacheStore = Arc<Mutex<HashMap<u64, ChatResponse>>>;

/// Memoizes responses by a stable hash of the request.
///
/// The key covers the model name, the resolved temperature, the retry salt,
/// and the full prompt text — everything that determines a deterministic
/// model's output. Hits are served with zero virtual latency and zero fresh
/// token usage recorded on the response's `meta.cache_hit` flag left for
/// the caller to account. Share one [`CacheStore`] across runs to
/// deduplicate identical prompts in ablation sweeps.
pub struct CacheLayer<M> {
    inner: M,
    store: CacheStore,
    stats: Arc<MiddlewareStats>,
    tracer: Arc<dyn Tracer>,
}

impl<M: ChatModel> CacheLayer<M> {
    /// Wraps `inner` with a fresh, empty cache.
    pub fn new(inner: M) -> Self {
        CacheLayer {
            inner,
            store: Arc::new(Mutex::new(HashMap::new())),
            stats: MiddlewareStats::shared(),
            tracer: Arc::new(NullTracer),
        }
    }

    /// Emits a [`TraceEvent::CacheHit`] per hit into `tracer`.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Reuses an existing store (cross-run deduplication).
    pub fn with_store(mut self, store: CacheStore) -> Self {
        self.store = store;
        self
    }

    /// Reports into an externally owned counter set.
    pub fn with_stats(mut self, stats: Arc<MiddlewareStats>) -> Self {
        self.stats = stats;
        self
    }

    /// A handle to the memo (share it with another layer via
    /// [`CacheLayer::with_store`]).
    pub fn store(&self) -> CacheStore {
        Arc::clone(&self.store)
    }

    /// Number of memoized responses.
    pub fn len(&self) -> usize {
        self.store.lock().expect("cache poisoned").len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The layer's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn key(&self, request: &ChatRequest) -> u64 {
        request_fingerprint(&self.inner, request)
    }
}

impl<M: ChatModel> ChatModel for CacheLayer<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn default_temperature(&self) -> f64 {
        self.inner.default_temperature()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn cost_usd(&self, usage: &Usage) -> f64 {
        self.inner.cost_usd(usage)
    }

    fn take_route_pending(&self, trace_id: u64) -> Option<crate::router::RoutePending> {
        self.inner.take_route_pending(trace_id)
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let key = self.key(request);
        if let Some(hit) = self.store.lock().expect("cache poisoned").get(&key) {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.tracer.record(&TraceEvent::CacheHit {
                request: request.trace_id,
            });
            let mut served = hit.clone();
            served.latency_secs = 0.0;
            served.meta.cache_hit = true;
            return served;
        }
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        let response = self.inner.chat(request);
        // Memoize only responses that fully serve their request: a faulted
        // or incomplete response in a shared cross-run store would otherwise
        // be replayed as a "hit" forever (cache poisoning). The next run
        // gets a fresh chance instead.
        if is_complete(request, &response) {
            self.store
                .lock()
                .expect("cache poisoned")
                .insert(key, response.clone());
        }
        response
    }
}

/// Seeds a [`CacheStore`] from a run journal's recovered entries, so a
/// resumed multi-pass pipeline reproduces the cross-pass cache hits of the
/// uninterrupted run.
///
/// Journal fingerprints are [`request_fingerprint`]s of the planned
/// (salt-0) requests — the same keys [`CacheLayer`] memoizes under. Only
/// entries the uninterrupted run's store would hold are seeded: completed,
/// not themselves cache hits, and marked `complete` (the exact
/// [`is_complete`] condition the cache checks before memoizing). Everything
/// else — faults, short answers, cancellations — misses the warm store and
/// dispatches fresh, exactly as it would have without the crash.
pub fn warm_cache_store(entries: &[JournalEntry]) -> CacheStore {
    let mut store = HashMap::new();
    for entry in entries {
        if entry.kind != TerminalKind::Completed || entry.cache_hit || !entry.complete {
            continue;
        }
        let mut response = ChatResponse::new(
            entry.text.clone(),
            Usage {
                prompt_tokens: entry.prompt_tokens,
                completion_tokens: entry.completion_tokens,
            },
            entry.latency_secs,
        );
        response.meta.retries = entry.retries;
        response.meta.attempt_usage = Some(Usage {
            prompt_tokens: entry.attempt_prompt_tokens,
            completion_tokens: entry.attempt_completion_tokens,
        });
        store.insert(entry.fingerprint, response);
    }
    Arc::new(Mutex::new(store))
}

// ---------------------------------------------------------------------------
// FaultLayer
// ---------------------------------------------------------------------------

/// Virtual latency a timed-out request burns before giving up.
pub const TIMEOUT_LATENCY_SECS: f64 = 30.0;

/// How a [`FaultLayer`] decides what to inject.
enum FaultMode {
    /// The original memoryless coin flip: `rate` of requests fault,
    /// alternating by hash between timeout and truncation.
    Uniform { rate: f64 },
    /// A seeded [`FaultScenario`] schedule (burst outages, rate-limit
    /// storms, latency spikes, …).
    Scenario(FaultScenario),
}

/// Deterministically injects serving-layer faults.
///
/// Whether a request faults is a pure function of `(fault seed, retry salt,
/// prompt text)`: the same request faults on every run, and a retried
/// request (fresh salt) usually clears — exactly the behaviour needed to
/// exercise [`RetryLayer`] reproducibly. [`FaultLayer::new`] keeps the
/// original uniform mode (kinds alternate by hash between
/// [`FaultKind::Timeout`] and [`FaultKind::TruncatedCompletion`]);
/// [`FaultLayer::scenario`] injects a [`FaultScenario`] schedule instead,
/// whose persistent rules deliberately outlast retry salts.
pub struct FaultLayer<M> {
    inner: M,
    mode: FaultMode,
    seed: u64,
    stats: Arc<MiddlewareStats>,
    tracer: Arc<dyn Tracer>,
}

impl<M: ChatModel> FaultLayer<M> {
    /// Wraps `inner`, faulting a deterministic `rate` fraction of requests.
    pub fn new(inner: M, rate: f64, seed: u64) -> Self {
        FaultLayer {
            inner,
            mode: FaultMode::Uniform {
                rate: rate.clamp(0.0, 1.0),
            },
            seed,
            stats: MiddlewareStats::shared(),
            tracer: Arc::new(NullTracer),
        }
    }

    /// Wraps `inner` with a scenario-driven fault schedule.
    pub fn scenario(inner: M, scenario: FaultScenario, seed: u64) -> Self {
        FaultLayer {
            inner,
            mode: FaultMode::Scenario(scenario),
            seed,
            stats: MiddlewareStats::shared(),
            tracer: Arc::new(NullTracer),
        }
    }

    /// Emits a [`TraceEvent::FaultInjected`] per fault into `tracer`.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Reports into an externally owned counter set.
    pub fn with_stats(mut self, stats: Arc<MiddlewareStats>) -> Self {
        self.stats = stats;
        self
    }

    /// The layer's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }
}

impl<M: ChatModel> ChatModel for FaultLayer<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn default_temperature(&self) -> f64 {
        self.inner.default_temperature()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn cost_usd(&self, usage: &Usage) -> f64 {
        self.inner.cost_usd(usage)
    }

    fn take_route_pending(&self, trace_id: u64) -> Option<crate::router::RoutePending> {
        self.inner.take_route_pending(trace_id)
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        match &self.mode {
            FaultMode::Uniform { rate } => {
                let h = request.full_text_hash(self.seed ^ request.retry_salt);
                let roll = (h >> 11) as f64 / (1u64 << 53) as f64;
                if roll >= *rate {
                    return self.inner.chat(request);
                }
                self.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                let kind = if h & 1 == 0 {
                    FaultKind::Timeout
                } else {
                    FaultKind::TruncatedCompletion
                };
                self.tracer.record(&TraceEvent::FaultInjected {
                    request: request.trace_id,
                    kind: kind.label(),
                });
                if h & 1 == 0 {
                    self.timeout_response(request)
                } else {
                    self.truncate_response(request)
                }
            }
            FaultMode::Scenario(scenario) => {
                let Some((rule, h)) = scenario.decide(self.seed, request) else {
                    return self.inner.chat(request);
                };
                self.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                self.tracer.record(&TraceEvent::FaultInjected {
                    request: request.trace_id,
                    kind: rule.effect.label(),
                });
                self.apply_effect(rule.effect, h, request)
            }
        }
    }
}

impl<M: ChatModel> FaultLayer<M> {
    /// Timeout: the prompt was transmitted (and billed) but nothing came
    /// back before the deadline.
    fn timeout_response(&self, request: &ChatRequest) -> ChatResponse {
        let mut response = ChatResponse::new(
            String::new(),
            Usage {
                prompt_tokens: request
                    .prompt_tokens_hint
                    .unwrap_or_else(|| count_tokens(&request.full_text())),
                completion_tokens: 0,
            },
            TIMEOUT_LATENCY_SECS,
        );
        response.meta.fault = Some(FaultKind::Timeout);
        response
    }

    /// Truncation: the stream was cut partway through the completion.
    fn truncate_response(&self, request: &ChatRequest) -> ChatResponse {
        let mut response = self.inner.chat(request);
        let cut = response.text.len() / 2;
        let cut = (0..=cut)
            .rev()
            .find(|&i| response.text.is_char_boundary(i))
            .unwrap_or(0);
        response.text.truncate(cut);
        response.usage.completion_tokens = count_tokens(&response.text);
        response.meta.fault = Some(FaultKind::TruncatedCompletion);
        response
    }

    fn apply_effect(&self, effect: FaultEffect, h: u64, request: &ChatRequest) -> ChatResponse {
        match effect {
            FaultEffect::Timeout => self.timeout_response(request),
            FaultEffect::Truncate => self.truncate_response(request),
            FaultEffect::Transient => {
                // Connection reset before anything was transmitted: nothing
                // billed, one virtual second lost.
                let mut response = ChatResponse::new(String::new(), Usage::default(), 1.0);
                response.meta.fault = Some(FaultKind::Transient);
                response
            }
            FaultEffect::RateLimited { base_ms } => {
                // Throttled at the door: nothing billed, a fast refusal
                // carrying a seeded `retry_after` hint.
                let retry_after_ms = base_ms * (1 + h % 4);
                let mut response = ChatResponse::new(String::new(), Usage::default(), 0.05);
                response.meta.fault = Some(FaultKind::RateLimited { retry_after_ms });
                response
            }
            FaultEffect::Garble => {
                // The completion arrives, is billed in full, but its answer
                // markers are corrupted so nothing parses.
                let mut response = self.inner.chat(request);
                response.text = response.text.replace("Answer ", "Answ#r ");
                response.usage.completion_tokens = count_tokens(&response.text);
                response.meta.fault = Some(FaultKind::Garbled);
                response
            }
            FaultEffect::PartialAnswers => {
                // The model silently drops the tail of the batch: no fault
                // is flagged — incompleteness is the only signal.
                let mut response = self.inner.chat(request);
                let answers = answered_count(&response);
                if answers > 1 {
                    let keep = 1 + (h as usize) % (answers - 1).max(1);
                    let mut kept = 0usize;
                    let mut out = String::new();
                    for line in response.text.lines() {
                        if count_line_markers(line, "Answer ") == 1 {
                            kept += 1;
                            if kept > keep {
                                break;
                            }
                        }
                        out.push_str(line);
                        out.push('\n');
                    }
                    response.text = out;
                    response.usage.completion_tokens = count_tokens(&response.text);
                }
                response
            }
            FaultEffect::LatencySpike { factor } => {
                // Intact but slow: correctness unharmed, deadlines burned.
                let mut response = self.inner.chat(request);
                response.latency_secs *= factor;
                response
            }
            FaultEffect::Reject => {
                // Refused outright; retrying the same request cannot help.
                let mut response = ChatResponse::new(String::new(), Usage::default(), 0.1);
                response.meta.fault = Some(FaultKind::Rejected);
                response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::Message;
    use std::sync::atomic::AtomicUsize;

    /// A model that answers every question, counting calls thread-safely.
    struct Scripted {
        calls: AtomicUsize,
        /// Salts for which the model answers everything; other salts skip
        /// the last question.
        complete_salts: Vec<u64>,
    }

    impl Scripted {
        fn always_complete() -> Self {
            Scripted {
                calls: AtomicUsize::new(0),
                complete_salts: (0..64).collect(),
            }
        }

        fn complete_only_on(salts: &[u64]) -> Self {
            Scripted {
                calls: AtomicUsize::new(0),
                complete_salts: salts.to_vec(),
            }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl ChatModel for Scripted {
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
            self.calls.fetch_add(1, Ordering::Relaxed);
            let expected = expected_answers(request);
            let complete = self.complete_salts.contains(&request.retry_salt);
            let n = if complete {
                expected
            } else {
                expected.saturating_sub(1)
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

    fn batch_request(k: usize) -> ChatRequest {
        let mut body = String::new();
        for i in 1..=k {
            body.push_str(&format!("Question {i}: Is record {i} correct?\n"));
        }
        ChatRequest::new(vec![
            Message::system("Answer every question."),
            Message::user(body),
        ])
        .with_temperature(0.2)
    }

    #[test]
    fn expected_and_answered_counting() {
        let req = batch_request(4);
        assert_eq!(expected_answers(&req), 4);
        let resp = ChatResponse::new("Answer 1: yes\nAnswer 2: no\n", Usage::default(), 0.1);
        assert_eq!(answered_count(&resp), 2);
        assert!(!is_complete(&req, &resp));
    }

    #[test]
    fn retry_passes_through_complete_responses() {
        let model = Scripted::always_complete();
        let layer = RetryLayer::new(&model, 3);
        let resp = layer.chat(&batch_request(3));
        assert_eq!(model.calls(), 1);
        assert_eq!(resp.meta.retries, 0);
        assert_eq!(answered_count(&resp), 3);
        assert_eq!(layer.stats(), StatsSnapshot::default());
    }

    #[test]
    fn retry_reissues_until_complete_and_bills_every_attempt() {
        // Salt 0 and 1 fail; salt 2 (= second retry) succeeds.
        let model = Scripted::complete_only_on(&[2]);
        let layer = RetryLayer::new(&model, 3).with_backoff(1.0);
        let resp = layer.chat(&batch_request(2));
        assert_eq!(model.calls(), 3);
        assert_eq!(resp.meta.retries, 2);
        assert_eq!(answered_count(&resp), 2);
        // Usage covers all three attempts (100 prompt tokens each).
        assert_eq!(resp.usage.prompt_tokens, 300);
        // Latency: 3 × 2.0s of attempts + 1.0 + 2.0 backoff.
        assert!(
            (resp.latency_secs - 9.0).abs() < 1e-12,
            "{}",
            resp.latency_secs
        );
        let stats = layer.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.exhausted, 0);
    }

    #[test]
    fn backoff_past_32_attempts_bills_exact_powers_of_two() {
        // 41 timed-out attempts at 30 s each plus backoffs 1 + 2 + ... +
        // 2^39 = 2^40 - 1 seconds.
        let model = Scripted::always_complete();
        let layer = RetryLayer::new(
            FaultLayer::scenario(&model, FaultScenario::route_outage(), 3),
            40,
        );
        let resp = layer.chat(&batch_request(2));
        assert_eq!(resp.meta.retries, 40);
        assert_eq!(resp.latency_secs, 1_099_511_629_005.0);
        assert_eq!(model.calls(), 0, "the outage never reaches the model");
    }

    #[test]
    fn retry_budgets_past_the_bound_are_rejected() {
        assert_eq!(check_retries(0), Ok(0));
        assert_eq!(check_retries(MAX_RETRIES as usize), Ok(MAX_RETRIES));
        for bad in [11, 40, 30_000, 4_294_967_296, usize::MAX] {
            let err = check_retries(bad).unwrap_err();
            assert!(err.contains("at most 10"), "{err}");
        }
    }

    #[test]
    fn retry_budget_exhausts() {
        let model = Scripted::complete_only_on(&[]);
        let layer = RetryLayer::new(&model, 2);
        let resp = layer.chat(&batch_request(2));
        assert_eq!(model.calls(), 3);
        assert_eq!(resp.meta.retries, 2);
        let stats = layer.stats();
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.recovered, 0);
    }

    #[test]
    fn cache_hits_identical_requests_only() {
        let model = Scripted::always_complete();
        let layer = CacheLayer::new(&model);
        let a = layer.chat(&batch_request(2));
        assert_eq!(model.calls(), 1);
        let b = layer.chat(&batch_request(2));
        assert_eq!(model.calls(), 1, "second identical request must hit");
        assert!(b.meta.cache_hit);
        assert_eq!(b.latency_secs, 0.0);
        assert_eq!(b.text, a.text);
        let _ = layer.chat(&batch_request(3));
        assert_eq!(model.calls(), 2, "different prompt must miss");
        let stats = layer.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(layer.len(), 2);
    }

    #[test]
    fn journal_warmed_cache_serves_complete_entries_only() {
        let model = Scripted::always_complete();
        let req = batch_request(2);
        let entry = |fingerprint: u64, complete: bool| JournalEntry {
            fingerprint,
            kind: TerminalKind::Completed,
            text: "Answer 1: yes\nAnswer 2: yes\n".into(),
            prompt_tokens: 100,
            completion_tokens: 20,
            attempt_prompt_tokens: 100,
            attempt_completion_tokens: 20,
            retries: 0,
            fault: None,
            cache_hit: false,
            complete,
            cost_usd: 0.0001,
            latency_secs: 2.0,
            legs: Vec::new(),
        };
        let fp = request_fingerprint(&&model, &req);
        let warmed = warm_cache_store(&[
            entry(fp, true),
            entry(fp ^ 1, false), // incomplete: never memoized
            JournalEntry::cancelled(fp ^ 2),
        ]);
        assert_eq!(warmed.lock().unwrap().len(), 1);
        let layer = CacheLayer::new(&model).with_store(warmed);
        let served = layer.chat(&req);
        assert_eq!(model.calls(), 0, "warm entry must hit without dispatch");
        assert!(served.meta.cache_hit);
        assert_eq!(served.text, "Answer 1: yes\nAnswer 2: yes\n");
        assert_eq!(served.usage.prompt_tokens, 100);
        assert_eq!(served.latency_secs, 0.0);
    }

    /// The fingerprint as it was computed before it was streamed: the
    /// descriptor formatted in full, then hashed.
    fn formatted_fingerprint<M: ChatModel>(model: &M, request: &ChatRequest) -> u64 {
        let temperature = request.temperature_or(model.default_temperature());
        let descriptor = format!(
            "{}|{temperature}|{}|{}",
            model.name(),
            request.retry_salt,
            request.full_text()
        );
        dprep_rng::stable_hash(0x00ca_c4e0, descriptor.as_bytes())
    }

    #[test]
    fn streamed_fingerprint_matches_the_formatted_descriptor() {
        let model = Scripted::always_complete();
        let mut rng = dprep_rng::Rng::seed_from_u64(0xf1_9e77);
        for k in 0..40 {
            let mut req = batch_request(k % 7);
            if rng.bool(0.5) {
                req.messages
                    .push(Message::assistant("Answer 1: yes\nné \u{b}"));
            }
            req.retry_salt = rng.next_u64() >> rng.range_usize(0, 64);
            req.temperature = match rng.range_usize(0, 4) {
                0 => None,
                1 => Some(0.75),
                2 => Some(rng.f64() * 2.0),
                _ => Some(1e-7),
            };
            assert_eq!(
                request_fingerprint(&model, &req),
                formatted_fingerprint(&model, &req),
                "{req:?}"
            );
            // Split at the last message's content, with that content kept
            // or replaced.
            let prefix = FingerprintPrefix::new(&model, &req);
            let last = req.messages.last().unwrap().content.clone();
            assert_eq!(prefix.finish(&last), request_fingerprint(&model, &req));
            req.messages.last_mut().unwrap().content = format!("{k}\n{last}é");
            assert_eq!(
                prefix.finish(&req.messages.last().unwrap().content),
                formatted_fingerprint(&model, &req),
                "{req:?}"
            );
        }
    }

    #[test]
    fn cache_key_covers_temperature_and_salt() {
        let model = Scripted::always_complete();
        let layer = CacheLayer::new(&model);
        let req = batch_request(1);
        let _ = layer.chat(&req);
        let _ = layer.chat(&req.clone().with_temperature(0.9));
        let _ = layer.chat(&req.clone().with_retry_salt(7));
        assert_eq!(model.calls(), 3);
        assert_eq!(layer.stats().cache_hits, 0);
    }

    #[test]
    fn cache_store_shared_across_layers() {
        let model = Scripted::always_complete();
        let first = CacheLayer::new(&model);
        let _ = first.chat(&batch_request(2));
        let second = CacheLayer::new(&model).with_store(first.store());
        let resp = second.chat(&batch_request(2));
        assert!(resp.meta.cache_hit);
        assert_eq!(model.calls(), 1);
    }

    #[test]
    fn fault_layer_is_deterministic_and_rate_bounded() {
        let model = Scripted::always_complete();
        let layer = FaultLayer::new(&model, 0.10, 42);
        let mut faulted = Vec::new();
        for i in 0..200 {
            let mut req = batch_request(2);
            req.messages[1].content.push_str(&format!("variant {i}\n"));
            let resp = layer.chat(&req);
            faulted.push(resp.meta.fault.is_some());
        }
        let count = faulted.iter().filter(|&&f| f).count();
        assert!((8..=35).contains(&count), "fault count {count}/200");
        // Re-running yields the identical fault pattern.
        let layer2 = FaultLayer::new(&model, 0.10, 42);
        for (i, &was_faulted) in faulted.iter().enumerate() {
            let mut req = batch_request(2);
            req.messages[1].content.push_str(&format!("variant {i}\n"));
            assert_eq!(layer2.chat(&req).meta.fault.is_some(), was_faulted);
        }
    }

    #[test]
    fn fault_kinds_carry_sensible_payloads() {
        let model = Scripted::always_complete();
        let layer = FaultLayer::new(&model, 1.0, 7);
        let mut kinds = std::collections::HashSet::new();
        for i in 0..40 {
            let mut req = batch_request(3);
            req.messages[1].content.push_str(&format!("v{i}\n"));
            let resp = layer.chat(&req);
            match resp.meta.fault.expect("rate 1.0 always faults") {
                FaultKind::Timeout => {
                    assert!(resp.text.is_empty());
                    assert_eq!(resp.usage.completion_tokens, 0);
                    assert_eq!(resp.latency_secs, TIMEOUT_LATENCY_SECS);
                    kinds.insert("timeout");
                }
                FaultKind::TruncatedCompletion => {
                    assert!(answered_count(&resp) < 3);
                    kinds.insert("truncated");
                }
                other => panic!("uniform mode never injects {other:?}"),
            }
        }
        assert_eq!(kinds.len(), 2, "both fault kinds appear");
    }

    #[test]
    fn scenario_effects_carry_sensible_payloads() {
        use crate::fault::{FaultEffect, FaultRule, FaultScenario};
        let model = Scripted::always_complete();
        let effects = [
            FaultEffect::Transient,
            FaultEffect::RateLimited { base_ms: 1000 },
            FaultEffect::Garble,
            FaultEffect::PartialAnswers,
            FaultEffect::LatencySpike { factor: 10.0 },
            FaultEffect::Reject,
        ];
        for effect in effects {
            let scenario = FaultScenario {
                name: "test",
                rules: vec![FaultRule {
                    rate: 1.0,
                    effect,
                    persist_attempts: 0,
                    tag: 0,
                }],
            };
            let layer = FaultLayer::scenario(&model, scenario, 5);
            let req = batch_request(3);
            let resp = layer.chat(&req);
            match effect {
                FaultEffect::Transient => {
                    assert_eq!(resp.meta.fault, Some(FaultKind::Transient));
                    assert_eq!(resp.usage, Usage::default(), "nothing billed");
                }
                FaultEffect::RateLimited { .. } => {
                    let fault = resp.meta.fault.expect("rate-limited");
                    let hint = fault.retry_after_secs().expect("carries a hint");
                    assert!((1.0..=4.0).contains(&hint), "hint {hint}");
                    assert_eq!(resp.usage, Usage::default(), "nothing billed");
                }
                FaultEffect::Garble => {
                    assert_eq!(resp.meta.fault, Some(FaultKind::Garbled));
                    assert_eq!(answered_count(&resp), 0, "markers corrupted");
                    assert!(resp.usage.completion_tokens > 0, "billed in full");
                }
                FaultEffect::PartialAnswers => {
                    assert_eq!(resp.meta.fault, None, "silent misalignment");
                    let n = answered_count(&resp);
                    assert!((1..3).contains(&n), "answered {n}/3");
                    assert!(!is_complete(&req, &resp));
                }
                FaultEffect::LatencySpike { factor } => {
                    assert_eq!(resp.meta.fault, None);
                    assert!(is_complete(&req, &resp), "payload intact");
                    assert!((resp.latency_secs - 2.0 * factor).abs() < 1e-9);
                }
                FaultEffect::Reject => {
                    assert_eq!(resp.meta.fault, Some(FaultKind::Rejected));
                    assert_eq!(resp.usage, Usage::default());
                }
                other => panic!("untested effect {other:?}"),
            }
        }
    }

    #[test]
    fn scenario_layer_is_deterministic() {
        use crate::fault::FaultScenario;
        let model = Scripted::always_complete();
        let run = |seed: u64| {
            let layer = FaultLayer::scenario(&model, FaultScenario::flaky(), seed);
            (0..100)
                .map(|i| {
                    let mut req = batch_request(2);
                    req.messages[1].content.push_str(&format!("variant {i}\n"));
                    layer.chat(&req).meta.fault.map(FaultKind::label)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3), "same seed, same weather");
        assert_ne!(run(3), run(4), "different seed, different weather");
        assert!(run(3).iter().any(Option::is_some), "flaky does fault");
    }

    #[test]
    fn retry_honors_retry_after_hints_in_latency_and_trace() {
        use crate::fault::{FaultEffect, FaultRule, FaultScenario};
        use dprep_obs::CollectingTracer;
        // Every request is throttled on its first attempt (persistent for
        // one attempt) with a hint far above the exponential backoff; the
        // first retry gets through.
        let scenario = FaultScenario {
            name: "throttle-once",
            rules: vec![FaultRule {
                rate: 1.0,
                effect: FaultEffect::RateLimited { base_ms: 8000 },
                persist_attempts: 1,
                tag: 0,
            }],
        };
        let model = Scripted::always_complete();
        let tracer = Arc::new(CollectingTracer::new());
        let stack = RetryLayer::new(FaultLayer::scenario(&model, scenario, 11), 2)
            .with_backoff(1.0)
            .with_tracer(tracer.clone() as Arc<dyn Tracer>);
        let req = batch_request(2).with_trace_id(7);
        let resp = stack.chat(&req);
        assert_eq!(resp.meta.retries, 1);
        assert!(is_complete(&req, &resp));

        let events = tracer.events();
        let TraceEvent::RetryAttempt { backoff_secs, .. } = events
            .iter()
            .find(|e| e.name() == "retry_attempt")
            .expect("one retry")
        else {
            panic!("wrong event");
        };
        // The hint is 8s × (1 + h%4) ∈ [8, 32]: always above the 1s
        // exponential backoff, so the honored wait IS the hint.
        assert!(
            (8.0..=32.0).contains(backoff_secs),
            "backoff {backoff_secs}"
        );
        // And the wait shows up in the response's virtual latency:
        // 0.05s throttle + hint + 2.0s successful attempt.
        assert!(
            (resp.latency_secs - (0.05 + backoff_secs + 2.0)).abs() < 1e-9,
            "latency {} vs hint {}",
            resp.latency_secs,
            backoff_secs
        );
    }

    #[test]
    fn retry_stops_on_non_retryable_faults() {
        use crate::fault::{FaultEffect, FaultRule, FaultScenario};
        let scenario = FaultScenario {
            name: "reject-all",
            rules: vec![FaultRule {
                rate: 1.0,
                effect: FaultEffect::Reject,
                persist_attempts: 0,
                tag: 0,
            }],
        };
        let model = Scripted::always_complete();
        let layer = RetryLayer::new(FaultLayer::scenario(&model, scenario, 1), 3);
        let resp = layer.chat(&batch_request(2));
        assert_eq!(resp.meta.fault, Some(FaultKind::Rejected));
        assert_eq!(resp.meta.retries, 0, "no budget burned on a rejection");
        assert_eq!(model.calls(), 0, "the model was never consulted");
        assert_eq!(layer.stats().retries, 0);
    }

    #[test]
    fn retry_recovers_injected_faults() {
        // The acceptance bar: at 10% faults, ≥ 90% of faulted requests
        // recover within the retry budget.
        let model = Scripted::always_complete();
        let stats = MiddlewareStats::shared();
        let stack = RetryLayer::new(
            FaultLayer::new(&model, 0.10, 13).with_stats(Arc::clone(&stats)),
            2,
        )
        .with_stats(Arc::clone(&stats));
        let mut failures = 0;
        for i in 0..300 {
            let mut req = batch_request(2);
            req.messages[1].content.push_str(&format!("case {i}\n"));
            let resp = stack.chat(&req);
            if !is_complete(&req, &resp) {
                failures += 1;
            }
        }
        let snap = stats.snapshot();
        assert!(snap.faults_injected > 0);
        let recovered_rate =
            snap.recovered as f64 / (snap.recovered + snap.exhausted).max(1) as f64;
        assert!(
            recovered_rate >= 0.90,
            "recovered {}/{}",
            snap.recovered,
            snap.recovered + snap.exhausted
        );
        assert_eq!(failures, snap.exhausted);
    }

    #[test]
    fn shared_stats_aggregate_across_layers() {
        let model = Scripted::always_complete();
        let stats = MiddlewareStats::shared();
        let stack = CacheLayer::new(RetryLayer::new(&model, 1).with_stats(Arc::clone(&stats)))
            .with_stats(Arc::clone(&stats));
        let _ = stack.chat(&batch_request(1));
        let _ = stack.chat(&batch_request(1));
        let snap = stats.snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn question_substring_in_data_does_not_inflate_expected_count() {
        // A data value quoting "Question 2" used to count as a second slot,
        // driving RetryLayer to burn its whole budget on every batch that
        // contained the record.
        let req = ChatRequest::new(vec![
            Message::system("Answer every question."),
            Message::user(
                "Question 1: Does \"Question 42: the ultimate answer\" \
                 match \"Open Question 7 in algebra\"?\n",
            ),
        ]);
        assert_eq!(expected_answers(&req), 1);

        let model = Scripted::always_complete();
        let layer = RetryLayer::new(&model, 3);
        let resp = layer.chat(&req);
        assert_eq!(model.calls(), 1, "no retry on an adversarial payload");
        assert_eq!(resp.meta.retries, 0);
        assert!(is_complete(&req, &resp));
    }

    #[test]
    fn marker_counting_requires_line_start_digits_and_colon() {
        let req = ChatRequest::new(vec![Message::user(
            "Question 1: ok\n  Question 2: indented ok\nQuestion x: no digit\n\
             Question 3 no colon\nsee Question 4: mid-line\n",
        )]);
        assert_eq!(expected_answers(&req), 2);
        let resp = ChatResponse::new(
            "Answer 1: yes\nnoise Answer 2: no\nAnswer 3x: bad\n",
            Usage::default(),
            0.1,
        );
        assert_eq!(answered_count(&resp), 1);
    }

    #[test]
    fn cache_does_not_memoize_faulted_responses() {
        // rate 1.0: every fresh dispatch faults. A poisoned cache would
        // replay the fault as a "hit" forever; skipping insertion gives the
        // next identical request a fresh chance.
        let model = Scripted::always_complete();
        let stack = CacheLayer::new(FaultLayer::new(&model, 1.0, 7));
        let resp = stack.chat(&batch_request(2));
        assert!(resp.meta.fault.is_some());
        assert!(stack.is_empty(), "faulted response must not be cached");
        let again = stack.chat(&batch_request(2));
        assert!(!again.meta.cache_hit);
        assert_eq!(stack.stats().cache_hits, 0);
    }

    #[test]
    fn cache_does_not_memoize_incomplete_responses() {
        // The model skips the last answer on every salt: incomplete, even
        // though no fault is set.
        let model = Scripted::complete_only_on(&[]);
        let stack = CacheLayer::new(&model);
        let resp = stack.chat(&batch_request(2));
        assert!(resp.meta.fault.is_none());
        assert_eq!(answered_count(&resp), 1);
        assert!(stack.is_empty(), "incomplete response must not be cached");
        let _ = stack.chat(&batch_request(2));
        assert_eq!(model.calls(), 2, "second request re-dispatches");
    }

    #[test]
    fn retry_records_final_attempt_usage_separately() {
        let model = Scripted::complete_only_on(&[2]);
        let layer = RetryLayer::new(&model, 3);
        let resp = layer.chat(&batch_request(2));
        assert_eq!(resp.usage.prompt_tokens, 300, "all attempts billed");
        let attempt = resp.meta.attempt_usage.expect("retry layer sets it");
        assert_eq!(attempt.prompt_tokens, 100, "final attempt alone");
        assert_eq!(attempt.completion_tokens, 20);
    }

    #[test]
    fn layers_emit_trace_events_tagged_with_the_request_id() {
        use dprep_obs::CollectingTracer;
        let model = Scripted::complete_only_on(&[2]);
        let tracer = Arc::new(CollectingTracer::new());
        let stack = CacheLayer::new(
            RetryLayer::new(&model, 3).with_tracer(tracer.clone() as Arc<dyn Tracer>),
        )
        .with_tracer(tracer.clone() as Arc<dyn Tracer>);
        let req = batch_request(2).with_trace_id(99);
        let _ = stack.chat(&req);
        assert_eq!(tracer.count("retry_attempt"), 2);
        let _ = stack.chat(&req);
        assert_eq!(tracer.count("cache_hit"), 1);
        assert!(tracer.events().iter().all(|e| e.request() == Some(99)));
    }

    #[test]
    fn fault_layer_emits_fault_events_with_kind_labels() {
        use dprep_obs::CollectingTracer;
        let model = Scripted::always_complete();
        let tracer = Arc::new(CollectingTracer::new());
        let layer = FaultLayer::new(&model, 1.0, 7).with_tracer(tracer.clone() as Arc<dyn Tracer>);
        for i in 0..10 {
            let mut req = batch_request(1);
            req.messages[1].content.push_str(&format!("v{i}\n"));
            let _ = layer.chat(&req);
        }
        assert_eq!(tracer.count("fault_injected"), 10);
        for event in tracer.events() {
            let TraceEvent::FaultInjected { kind, .. } = event else {
                panic!("unexpected event {event:?}");
            };
            assert!(kind == "timeout" || kind == "truncated-completion");
        }
    }
}
