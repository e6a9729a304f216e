//! The chat-completion API surface.

use dprep_rng::StableHasher;

use crate::usage::Usage;

/// Role of a chat message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// System instructions (persona, task specification).
    System,
    /// End-user turns (few-shot questions, batched data instances).
    User,
    /// Model turns (few-shot answers, generated completions).
    Assistant,
}

impl Role {
    /// The tag that opens the role's messages in
    /// [`ChatRequest::full_text`].
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Role::System => "system",
            Role::User => "user",
            Role::Assistant => "assistant",
        }
    }
}

/// One chat message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Who is speaking.
    pub role: Role,
    /// Message text.
    pub content: String,
}

impl Message {
    /// A system message.
    pub fn system(content: impl Into<String>) -> Self {
        Message {
            role: Role::System,
            content: content.into(),
        }
    }

    /// A user message.
    pub fn user(content: impl Into<String>) -> Self {
        Message {
            role: Role::User,
            content: content.into(),
        }
    }

    /// An assistant message.
    pub fn assistant(content: impl Into<String>) -> Self {
        Message {
            role: Role::Assistant,
            content: content.into(),
        }
    }
}

/// A chat-completion request.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatRequest {
    /// Conversation so far (system + alternating user/assistant).
    pub messages: Vec<Message>,
    /// Sampling temperature; scales the simulator's stochastic failure
    /// rates (the paper sets 0.75 / 0.65 / 0.2 for GPT-3.5 / GPT-4 /
    /// Vicuna). `None` means "unset": the serving model resolves it to
    /// [`ChatModel::default_temperature`] at dispatch, so a caller can
    /// never accidentally run hotter than the per-model setting.
    pub temperature: Option<f64>,
    /// Retry salt. Does not change the prompt text (and therefore not the
    /// token count), but perturbs the simulator's noise stream — re-issuing
    /// a failed request with a fresh salt resamples the response, exactly
    /// like retrying a real nondeterministic API.
    pub retry_salt: u64,
    /// Trace correlation id, assigned by the executor so middleware layers
    /// can tag lifecycle events with the request they concern. `0` means
    /// "untraced" (a request issued outside any executor). Never part of
    /// cache or dedup keys — it does not affect the model's output.
    pub trace_id: u64,
    /// Prompt-side token count of [`ChatRequest::full_text`], precomputed
    /// by the prompt builder so the serving model need not re-tokenize the
    /// prompt it just counted. Purely an optimization hint: it MUST equal
    /// `count_tokens(&self.full_text())` (the simulator debug-asserts
    /// this), and like `trace_id` it is never part of cache or dedup keys.
    /// `None` means "uncounted": the model tokenizes at dispatch.
    pub prompt_tokens_hint: Option<usize>,
}

impl ChatRequest {
    /// Builds a request with the temperature unset; the serving model
    /// resolves it to its default at dispatch (overridable via
    /// [`ChatRequest::with_temperature`]).
    pub fn new(messages: Vec<Message>) -> Self {
        ChatRequest {
            messages,
            temperature: None,
            retry_salt: 0,
            trace_id: 0,
            prompt_tokens_hint: None,
        }
    }

    /// Overrides the sampling temperature.
    pub fn with_temperature(mut self, temperature: f64) -> Self {
        self.temperature = Some(temperature);
        self
    }

    /// Sets the retry salt (used by the retry middleware).
    pub fn with_retry_salt(mut self, salt: u64) -> Self {
        self.retry_salt = salt;
        self
    }

    /// Sets the trace correlation id (used by the executor).
    pub fn with_trace_id(mut self, trace_id: u64) -> Self {
        self.trace_id = trace_id;
        self
    }

    /// Records the prompt-side token count of [`ChatRequest::full_text`]
    /// (set by the prompt builder, which already tokenized the prompt to
    /// size the batch).
    pub fn with_prompt_tokens_hint(mut self, tokens: usize) -> Self {
        self.prompt_tokens_hint = Some(tokens);
        self
    }

    /// The temperature this request runs at on a model whose default is
    /// `default` — the explicit setting when present, the default otherwise.
    pub fn temperature_or(&self, default: f64) -> f64 {
        self.temperature.unwrap_or(default)
    }

    /// Concatenated text of all messages (used for seeding and token
    /// counting): per message, its role tag, `": "`, its content and a
    /// newline.
    pub fn full_text(&self) -> String {
        let mut out = String::with_capacity(self.full_text_pieces().map(str::len).sum());
        out.extend(self.full_text_pieces());
        out
    }

    /// Feeds the bytes of [`full_text`](Self::full_text) to `hasher`
    /// without building the string.
    pub(crate) fn hash_full_text(&self, hasher: &mut StableHasher) {
        for piece in self.full_text_pieces() {
            hasher.write(piece.as_bytes());
        }
    }

    /// Feeds `hasher` the bytes of [`full_text`](Self::full_text) that
    /// come before the last message's content: every earlier message
    /// whole, then the last one's role tag and separator. What follows
    /// them is that content and [`MESSAGE_END`]. Feeds nothing when there
    /// is no message.
    pub(crate) fn hash_full_text_before_last(&self, hasher: &mut StableHasher) {
        let Some((last, leading)) = self.messages.split_last() else {
            return;
        };
        for piece in leading.iter().flat_map(Message::full_text_pieces) {
            hasher.write(piece.as_bytes());
        }
        let [tag, separator, _, _] = last.full_text_pieces();
        hasher.write(tag.as_bytes());
        hasher.write(separator.as_bytes());
    }

    /// [`dprep_rng::stable_hash`] of [`full_text`](Self::full_text) under
    /// `seed`, without building the string.
    pub(crate) fn full_text_hash(&self, seed: u64) -> u64 {
        let mut hasher = StableHasher::new(seed);
        self.hash_full_text(&mut hasher);
        hasher.finish()
    }

    /// The full-text bytes, which [`full_text`](Self::full_text)
    /// concatenates and [`hash_full_text`](Self::hash_full_text) hashes.
    fn full_text_pieces(&self) -> impl Iterator<Item = &str> {
        self.messages.iter().flat_map(Message::full_text_pieces)
    }
}

/// What closes each message in [`ChatRequest::full_text`].
pub(crate) const MESSAGE_END: &str = "\n";

impl Message {
    /// The one definition of a message's share of
    /// [`ChatRequest::full_text`]: its role tag, `": "`, its content and
    /// [`MESSAGE_END`].
    fn full_text_pieces(&self) -> [&str; 4] {
        [self.role.tag(), ": ", self.content.as_str(), MESSAGE_END]
    }
}

/// The way a request failed at the transport/serving layer (injected by the
/// fault middleware; a real deployment would map provider errors here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The request timed out: no completion text at all.
    Timeout,
    /// The stream was cut off: only a prefix of the completion arrived.
    TruncatedCompletion,
    /// A transient transport error (connection reset, 5xx): nothing
    /// arrived, nothing was billed.
    Transient,
    /// The provider rate-limited the request, suggesting a wait of
    /// `retry_after_ms` milliseconds before re-issuing.
    RateLimited {
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The completion arrived but was corrupted in transit: answer
    /// markers are scrambled and nothing parses.
    Garbled,
    /// The provider rejected the request outright (a content filter or
    /// policy refusal). Retrying the same request cannot succeed.
    Rejected,
    /// Shorted by an open circuit breaker ([`crate::RouteFold`]): billed
    /// as if the request never reached the model. Retrying cannot succeed
    /// while the breaker stays open.
    CircuitOpen,
}

impl FaultKind {
    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Timeout => "timeout",
            FaultKind::TruncatedCompletion => "truncated-completion",
            FaultKind::Transient => "transient",
            FaultKind::RateLimited { .. } => "rate-limited",
            FaultKind::Garbled => "garbled",
            FaultKind::Rejected => "rejected",
            FaultKind::CircuitOpen => "circuit-open",
        }
    }

    /// Whether re-issuing the request could plausibly succeed. Rejections
    /// and breaker shorts are terminal: the retry layer stops immediately
    /// instead of burning its budget.
    pub fn is_retryable(self) -> bool {
        !matches!(self, FaultKind::Rejected | FaultKind::CircuitOpen)
    }

    /// The provider's suggested wait before retrying, in seconds
    /// (`None` unless rate-limited).
    pub fn retry_after_secs(self) -> Option<f64> {
        match self {
            FaultKind::RateLimited { retry_after_ms } => Some(retry_after_ms as f64 / 1000.0),
            _ => None,
        }
    }

    /// The inverse of [`FaultKind::label`], for rehydrating fault kinds
    /// from a run journal. Payload detail not carried by the label (the
    /// rate-limit wait) comes back zeroed — only the label, retryability,
    /// and failure classification matter downstream of a terminal event.
    pub fn from_label(label: &str) -> Option<FaultKind> {
        Some(match label {
            "timeout" => FaultKind::Timeout,
            "truncated-completion" => FaultKind::TruncatedCompletion,
            "transient" => FaultKind::Transient,
            "rate-limited" => FaultKind::RateLimited { retry_after_ms: 0 },
            "garbled" => FaultKind::Garbled,
            "rejected" => FaultKind::Rejected,
            "circuit-open" => FaultKind::CircuitOpen,
            _ => return None,
        })
    }
}

/// Serving-layer metadata attached to a response by middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResponseMeta {
    /// The fault this response carries, if the serving layer failed.
    pub fault: Option<FaultKind>,
    /// Retries spent producing this response (0 = first attempt).
    pub retries: u32,
    /// True when the response was served from the cache layer.
    pub cache_hit: bool,
    /// Usage of the final attempt alone, recorded by the retry layer before
    /// it folds failed attempts into the response's accumulated `usage`.
    /// Context-overflow classification must use this, not the accumulated
    /// total — a retried request is not a longer prompt. `None` when no
    /// retry layer is in the stack (the accumulated usage IS the attempt).
    pub attempt_usage: Option<Usage>,
}

/// A chat-completion response.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatResponse {
    /// Generated text.
    pub text: String,
    /// Token usage for this request.
    pub usage: Usage,
    /// Virtual wall-clock latency of this request, in seconds.
    pub latency_secs: f64,
    /// Serving-layer metadata (faults, retries, cache hits).
    pub meta: ResponseMeta,
}

impl ChatResponse {
    /// A plain successful response with empty metadata.
    pub fn new(text: impl Into<String>, usage: Usage, latency_secs: f64) -> Self {
        ChatResponse {
            text: text.into(),
            usage,
            latency_secs,
            meta: ResponseMeta::default(),
        }
    }
}

/// Anything that answers chat requests — implemented by [`crate::model::SimulatedLlm`],
/// the middleware layers in [`crate::middleware`], and test doubles in
/// downstream crates.
///
/// The `Send + Sync` bound lets the concurrent executor in `dprep-core`
/// share one model across worker threads; implementations must use interior
/// mutability that is thread-safe (atomics, `Mutex`) rather than `Cell`.
pub trait ChatModel: Send + Sync {
    /// Model identifier (e.g. `sim-gpt-3.5`).
    fn name(&self) -> &str;
    /// The temperature the model runs at when the caller does not choose
    /// one (profiles carry the paper's per-model settings).
    fn default_temperature(&self) -> f64 {
        1.0
    }
    /// Answers one chat request.
    fn chat(&self, request: &ChatRequest) -> ChatResponse;
    /// Context window in tokens; requests longer than this are truncated by
    /// the model (the simulator answers only what fits).
    fn context_window(&self) -> usize;
    /// Dollar cost of a request with the given usage.
    fn cost_usd(&self, usage: &Usage) -> f64;
    /// Takes (consume-once) the cascade record a [`crate::router::RouterLayer`]
    /// somewhere in this serving stack stashed for `trace_id` during
    /// [`ChatModel::chat`]. The executor collects it right after dispatch and
    /// settles it in plan order. Non-routing models return `None`; wrapper
    /// layers forward to their inner model.
    fn take_route_pending(&self, trace_id: u64) -> Option<crate::router::RoutePending> {
        let _ = trace_id;
        None
    }
}

macro_rules! delegate_chat_model {
    ($ty:ty) => {
        impl<M: ChatModel + ?Sized> ChatModel for $ty {
            fn name(&self) -> &str {
                (**self).name()
            }
            fn default_temperature(&self) -> f64 {
                (**self).default_temperature()
            }
            fn chat(&self, request: &ChatRequest) -> ChatResponse {
                (**self).chat(request)
            }
            fn context_window(&self) -> usize {
                (**self).context_window()
            }
            fn cost_usd(&self, usage: &Usage) -> f64 {
                (**self).cost_usd(usage)
            }
            fn take_route_pending(&self, trace_id: u64) -> Option<crate::router::RoutePending> {
                (**self).take_route_pending(trace_id)
            }
        }
    };
}

delegate_chat_model!(&M);
delegate_chat_model!(Box<M>);
delegate_chat_model!(std::sync::Arc<M>);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_constructors_set_roles() {
        assert_eq!(Message::system("s").role, Role::System);
        assert_eq!(Message::user("u").role, Role::User);
        assert_eq!(Message::assistant("a").role, Role::Assistant);
    }

    #[test]
    fn full_text_tags_roles() {
        let req = ChatRequest::new(vec![Message::system("be brief"), Message::user("hi")]);
        let text = req.full_text();
        assert!(text.contains("system: be brief"));
        assert!(text.contains("user: hi"));
    }

    /// The full text as it was built before the hasher shared its
    /// definition: the reference both forms must match.
    fn pushed_full_text(request: &ChatRequest) -> String {
        let mut out = String::new();
        for m in &request.messages {
            let tag = match m.role {
                Role::System => "system",
                Role::User => "user",
                Role::Assistant => "assistant",
            };
            out.push_str(tag);
            out.push_str(": ");
            out.push_str(&m.content);
            out.push('\n');
        }
        out
    }

    #[test]
    fn full_text_and_its_hash_walk_the_same_bytes() {
        let mut rng = dprep_rng::Rng::seed_from_u64(0xf011_7e47);
        let alphabet = ['a', 'Z', ' ', '\n', ':', '"', '\\', '\u{b}', 'é', '东'];
        for _ in 0..200 {
            let messages = (0..rng.range_incl(0usize, 4))
                .map(|_| {
                    let content: String = (0..rng.range_incl(0usize, 40))
                        .map(|_| *rng.choose(&alphabet).expect("nonempty"))
                        .collect();
                    match rng.range_usize(0, 3) {
                        0 => Message::system(content),
                        1 => Message::user(content),
                        _ => Message::assistant(content),
                    }
                })
                .collect();
            let request = ChatRequest::new(messages);
            let text = pushed_full_text(&request);
            assert_eq!(request.full_text(), text);
            let seed = rng.next_u64();
            assert_eq!(
                request.full_text_hash(seed),
                dprep_rng::stable_hash(seed, text.as_bytes())
            );
        }
    }

    #[test]
    fn temperature_unset_resolves_to_default() {
        let req = ChatRequest::new(vec![]);
        assert_eq!(req.temperature, None);
        assert_eq!(req.temperature_or(0.2), 0.2);
    }

    #[test]
    fn temperature_builder_overrides_default() {
        let req = ChatRequest::new(vec![]).with_temperature(0.65);
        assert_eq!(req.temperature, Some(0.65));
        assert_eq!(req.temperature_or(0.2), 0.65);
    }

    #[test]
    fn retry_salt_defaults_to_zero() {
        let req = ChatRequest::new(vec![]);
        assert_eq!(req.retry_salt, 0);
        assert_eq!(req.with_retry_salt(9).retry_salt, 9);
    }

    #[test]
    fn response_meta_defaults_clean() {
        let meta = ResponseMeta::default();
        assert_eq!(meta.fault, None);
        assert_eq!(meta.retries, 0);
        assert!(!meta.cache_hit);
    }

    #[test]
    fn fault_kinds_classify_retryability() {
        assert!(FaultKind::Timeout.is_retryable());
        assert!(FaultKind::TruncatedCompletion.is_retryable());
        assert!(FaultKind::Transient.is_retryable());
        assert!(FaultKind::RateLimited {
            retry_after_ms: 250
        }
        .is_retryable());
        assert!(FaultKind::Garbled.is_retryable());
        assert!(!FaultKind::Rejected.is_retryable());
        assert!(!FaultKind::CircuitOpen.is_retryable());
        assert_eq!(
            FaultKind::RateLimited {
                retry_after_ms: 250
            }
            .retry_after_secs(),
            Some(0.25)
        );
        assert_eq!(FaultKind::Timeout.retry_after_secs(), None);
    }

    #[test]
    fn fault_labels_round_trip() {
        for kind in [
            FaultKind::Timeout,
            FaultKind::TruncatedCompletion,
            FaultKind::Transient,
            FaultKind::RateLimited { retry_after_ms: 0 },
            FaultKind::Garbled,
            FaultKind::Rejected,
            FaultKind::CircuitOpen,
        ] {
            assert_eq!(FaultKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::from_label("no-such-fault"), None);
    }

    #[test]
    fn chat_model_is_object_safe() {
        struct Fixed;
        impl ChatModel for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn chat(&self, _request: &ChatRequest) -> ChatResponse {
                ChatResponse::new("Answer 1: yes", Usage::default(), 0.1)
            }
            fn context_window(&self) -> usize {
                1000
            }
            fn cost_usd(&self, _usage: &Usage) -> f64 {
                0.0
            }
        }
        let boxed: Box<dyn ChatModel> = Box::new(Fixed);
        assert_eq!(boxed.name(), "fixed");
        // The blanket impls keep wrappers usable as models themselves.
        fn as_generic<M: ChatModel>(model: M) -> String {
            model.chat(&ChatRequest::new(vec![])).text
        }
        assert_eq!(as_generic(&Fixed), "Answer 1: yes");
        assert_eq!(as_generic(boxed), "Answer 1: yes");
    }
}
