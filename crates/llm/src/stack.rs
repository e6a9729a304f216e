//! One builder for the serving stack every caller runs through.
//!
//! [`StackSpec::build`] owns the layer order, so the CLI commands, the
//! daemon's job handler, the chaos drills and the eval harness assemble
//! the same stack from the same description:
//!
//! ```text
//! one model:  CacheLayer? ── RetryLayer? ── FaultLayer? ── SimulatedLlm
//! cascade:    CacheLayer? ── RouterLayer ─┬─ RetryLayer? ── FaultLayer? ── SimulatedLlm  (route 0)
//!                                         └─ RetryLayer? ── SimulatedLlm                 (routes 1..)
//! ```
//!
//! * The fault scenario wraps the single model, or the cascade's first
//!   route; the escalation routes stay calm.
//! * `retries: 0` builds no retry layer. A zero-budget [`RetryLayer`]
//!   would only set `meta.attempt_usage` to the response's own usage, and
//!   every reader takes `attempt_usage.unwrap_or(usage)`.
//! * The cache sits on top, warm-started from a resumed run's journal.
//! * The tracer goes on the fault, retry and cache layers, never on a
//!   route leg: the audit reconciles routed completions against
//!   `route_leg` events, not `retry_attempt` events.

use std::sync::Arc;

use dprep_obs::{JournalEntry, NullTracer, Tracer};

use crate::chat::ChatModel;
use crate::fault::FaultScenario;
use crate::knowledge::KnowledgeBase;
use crate::middleware::{warm_cache_store, CacheLayer, FaultLayer, RetryLayer};
use crate::model::SimulatedLlm;
use crate::profile::ModelProfile;
use crate::router::{router_name, EscalationPolicy, RouterLayer};

/// What one serving stack is built from; [`StackSpec::build`] assembles it.
pub struct StackSpec {
    /// The models served: one serves alone, two or more form a cascade,
    /// cheapest first.
    pub models: Vec<ModelProfile>,
    /// When a cascade escalates to its next route (unused for one model).
    pub policy: EscalationPolicy,
    /// The knowledge corpus every model memorizes from.
    pub kb: Arc<KnowledgeBase>,
    /// Seeds every simulator and the fault schedule.
    pub seed: u64,
    /// Fault schedule on the single model, or on the cascade's first route.
    pub fault: Option<FaultScenario>,
    /// Retry budget per request, per route in a cascade; 0 builds no
    /// retry layer.
    pub retries: u32,
    /// Memoize complete responses in a cache on top of the stack.
    pub cache: bool,
    /// A resumed run's journal entries, to warm-start the cache with.
    pub warm: Vec<JournalEntry>,
    /// Receives the fault, retry and cache layers' events.
    pub tracer: Arc<dyn Tracer>,
}

impl StackSpec {
    /// `models` over `kb` at `seed`, with the default escalation policy
    /// and no fault, retries, cache or tracer.
    pub fn new(models: Vec<ModelProfile>, kb: Arc<KnowledgeBase>, seed: u64) -> StackSpec {
        StackSpec {
            models,
            policy: EscalationPolicy::default(),
            kb,
            seed,
            fault: None,
            retries: 0,
            cache: false,
            warm: Vec::new(),
            tracer: Arc::new(NullTracer),
        }
    }

    /// The built stack's model name, which is also a run journal's model
    /// identity: the profile's name, or `router(a->b)` for a cascade.
    pub fn name(&self) -> String {
        match self.models.as_slice() {
            [single] => single.name.clone(),
            routes => router_name(routes.iter().map(|p| p.name.as_str())),
        }
    }

    /// Builds the stack in the order the module docs give.
    ///
    /// # Panics
    /// Panics when `models` is empty.
    pub fn build(self) -> Box<dyn ChatModel> {
        let core: Box<dyn ChatModel> = match self.models.as_slice() {
            [single] => self.leg(single, self.fault.clone(), &self.tracer),
            routes => {
                let untraced: Arc<dyn Tracer> = Arc::new(NullTracer);
                let legs = routes
                    .iter()
                    .enumerate()
                    .map(|(i, profile)| {
                        let fault = self.fault.clone().filter(|_| i == 0);
                        self.leg(profile, fault, &untraced)
                    })
                    .collect();
                Box::new(RouterLayer::new(legs, self.policy))
            }
        };
        if !self.cache {
            return core;
        }
        let mut cache = CacheLayer::new(core).with_tracer(self.tracer);
        if !self.warm.is_empty() {
            cache = cache.with_store(warm_cache_store(&self.warm));
        }
        Box::new(cache)
    }

    /// One simulator under its fault and retry layers.
    fn leg(
        &self,
        profile: &ModelProfile,
        fault: Option<FaultScenario>,
        tracer: &Arc<dyn Tracer>,
    ) -> Box<dyn ChatModel> {
        let sim = SimulatedLlm::new(profile.clone(), Arc::clone(&self.kb)).with_seed(self.seed);
        let mut stack: Box<dyn ChatModel> = match fault {
            Some(scenario) => Box::new(
                FaultLayer::scenario(sim, scenario, self.seed).with_tracer(Arc::clone(tracer)),
            ),
            None => Box::new(sim),
        };
        if self.retries > 0 {
            stack = Box::new(RetryLayer::new(stack, self.retries).with_tracer(Arc::clone(tracer)));
        }
        stack
    }
}

#[cfg(test)]
mod tests {
    //! Each shape a shipped caller builds, against the hand-assembled
    //! chain it replaced.

    use super::*;
    use crate::chat::{ChatRequest, ChatResponse, Message};
    use crate::knowledge::Fact;
    use crate::middleware::{is_complete, request_fingerprint};
    use dprep_obs::{JsonlTracer, TerminalKind};

    const SEED: u64 = 19;

    fn kb() -> Arc<KnowledgeBase> {
        let mut kb = KnowledgeBase::new();
        for (prefix, city) in [("770", "marietta"), ("404", "atlanta"), ("212", "new york")] {
            kb.add(Fact::AreaCode {
                prefix: prefix.into(),
                city: city.into(),
            });
        }
        Arc::new(kb)
    }

    /// Imputation batches of three questions, each with its own trace id.
    fn requests() -> Vec<ChatRequest> {
        let system = "You are a database engineer.\n\
             You are requested to infer the value of the \"city\" attribute \
             based on the values of other attributes.\n\
             MUST answer each question in two lines. In the first line, you \
             give the reason for the inference. In the second line, you ONLY \
             give the value of the \"city\" attribute.";
        (0..30u64)
            .map(|i| {
                let mut body = String::new();
                for q in 1..=3u64 {
                    let n = i * 3 + q;
                    let prefix = ["770", "404", "212", "303"][(n % 4) as usize];
                    body.push_str(&format!(
                        "Question {q}: Record is [name: \"diner {n}\", \
                         phone: \"{prefix}-555-{n:04}\", city: ???]. \
                         What is the value of the \"city\" attribute?\n"
                    ));
                }
                ChatRequest::new(vec![Message::system(system), Message::user(body)])
                    .with_trace_id(i + 1)
            })
            .collect()
    }

    fn sim(profile: ModelProfile) -> SimulatedLlm {
        SimulatedLlm::new(profile, kb()).with_seed(SEED)
    }

    fn spec(models: Vec<ModelProfile>) -> StackSpec {
        StackSpec::new(models, kb(), SEED)
    }

    /// Builds `spec` with a fresh recording tracer, checking that
    /// [`StackSpec::name`] names the built stack.
    fn build(spec: StackSpec) -> (Box<dyn ChatModel>, Arc<JsonlTracer>) {
        let trace = Arc::new(JsonlTracer::new());
        let name = spec.name();
        let built = StackSpec {
            tracer: Arc::clone(&trace) as Arc<dyn Tracer>,
            ..spec
        }
        .build();
        assert_eq!(built.name(), name);
        (built, trace)
    }

    /// Serves every request through both stacks and asserts identical
    /// responses (text, usage, latency bits, meta), pending route legs and
    /// trace events. Returns the responses.
    fn assert_same(
        built: &dyn ChatModel,
        built_trace: &JsonlTracer,
        reference: &dyn ChatModel,
        reference_trace: &JsonlTracer,
    ) -> Vec<ChatResponse> {
        assert_eq!(built.name(), reference.name());
        let mut responses = Vec::new();
        for request in requests() {
            let (got, want) = (built.chat(&request), reference.chat(&request));
            let id = request.trace_id;
            assert_eq!(got.text, want.text, "request {id}");
            assert_eq!(got.usage, want.usage, "request {id}");
            assert_eq!(got.latency_secs.to_bits(), want.latency_secs.to_bits());
            assert_eq!(got.meta, want.meta, "request {id}");
            assert_eq!(
                built.take_route_pending(id),
                reference.take_route_pending(id)
            );
            responses.push(got);
        }
        assert_eq!(built_trace.lines(), reference_trace.lines());
        responses
    }

    /// Journal entries for every other request, as a run that served them
    /// through `model` would have recorded them.
    fn warm_entries(model: &dyn ChatModel) -> Vec<JournalEntry> {
        requests()
            .iter()
            .step_by(2)
            .map(|request| {
                let response = model.chat(request);
                let attempt = response.meta.attempt_usage.unwrap_or(response.usage);
                JournalEntry {
                    kind: TerminalKind::Completed,
                    text: response.text.clone(),
                    prompt_tokens: response.usage.prompt_tokens,
                    completion_tokens: response.usage.completion_tokens,
                    attempt_prompt_tokens: attempt.prompt_tokens,
                    attempt_completion_tokens: attempt.completion_tokens,
                    retries: response.meta.retries,
                    complete: is_complete(request, &response),
                    latency_secs: response.latency_secs,
                    ..JournalEntry::cancelled(request_fingerprint(model, request))
                }
            })
            .collect()
    }

    /// Checks `spec` against the hand-assembled `reference` (handed the
    /// tracer its traced layers get), bare and again under a cache warmed
    /// from journal entries, served twice so in-run hits count too.
    /// Returns how many bare responses were retried and how many cached
    /// ones were hits.
    fn check(
        spec: impl Fn() -> StackSpec,
        reference: impl Fn(Arc<dyn Tracer>) -> Box<dyn ChatModel>,
    ) -> (usize, usize) {
        let (built, built_trace) = build(spec());
        let reference_trace = Arc::new(JsonlTracer::new());
        let bare = reference(Arc::clone(&reference_trace) as Arc<dyn Tracer>);
        let responses = assert_same(
            built.as_ref(),
            &built_trace,
            bare.as_ref(),
            &reference_trace,
        );
        let retried = responses.iter().filter(|r| r.meta.retries > 0).count();

        let warm = warm_entries(reference(Arc::new(NullTracer)).as_ref());
        let (built, built_trace) = build(StackSpec {
            cache: true,
            warm: warm.clone(),
            ..spec()
        });
        let reference_trace = Arc::new(JsonlTracer::new());
        let tracer = Arc::clone(&reference_trace) as Arc<dyn Tracer>;
        let cached = CacheLayer::new(reference(Arc::clone(&tracer)))
            .with_tracer(tracer)
            .with_store(warm_cache_store(&warm));
        let mut hits = 0;
        for _ in 0..2 {
            let responses = assert_same(built.as_ref(), &built_trace, &cached, &reference_trace);
            hits += responses.iter().filter(|r| r.meta.cache_hit).count();
        }
        (retried, hits)
    }

    #[test]
    fn one_model_without_retries_is_the_bare_simulator() {
        let (_, hits) = check(
            || spec(vec![ModelProfile::gpt4()]),
            |_| Box::new(sim(ModelProfile::gpt4())),
        );
        assert!(hits > 0);
    }

    #[test]
    fn one_model_with_retries_matches_its_retry_chain() {
        let (_, hits) = check(
            || StackSpec {
                retries: 2,
                ..spec(vec![ModelProfile::gpt35()])
            },
            |tracer| Box::new(RetryLayer::new(sim(ModelProfile::gpt35()), 2).with_tracer(tracer)),
        );
        assert!(hits > 0);
    }

    #[test]
    fn faulted_model_matches_its_fault_retry_chain_under_every_preset() {
        let (mut retried, mut hits) = (0, 0);
        for scenario in FaultScenario::presets() {
            let (r, h) = check(
                || StackSpec {
                    fault: Some(scenario.clone()),
                    retries: 2,
                    ..spec(vec![ModelProfile::gpt4()])
                },
                |tracer| {
                    let faulty =
                        FaultLayer::scenario(sim(ModelProfile::gpt4()), scenario.clone(), SEED)
                            .with_tracer(Arc::clone(&tracer));
                    Box::new(RetryLayer::new(faulty, 2).with_tracer(tracer))
                },
            );
            retried += r;
            hits += h;
        }
        assert!(retried > 0 && hits > 0, "retried {retried}, hits {hits}");
    }

    #[test]
    fn cascade_faults_its_primary_and_traces_no_leg() {
        let policy = EscalationPolicy::parse("fault,partial").unwrap();
        let (mut retried, mut hits) = (0, 0);
        for scenario in [FaultScenario::route_outage(), FaultScenario::garbled()] {
            // The reference ignores the tracer: the built stack's tracer
            // must see nothing from the legs either.
            let (r, h) = check(
                || StackSpec {
                    policy,
                    fault: Some(scenario.clone()),
                    retries: 2,
                    ..spec(vec![ModelProfile::gpt35(), ModelProfile::gpt4()])
                },
                |_| {
                    let faulty =
                        FaultLayer::scenario(sim(ModelProfile::gpt35()), scenario.clone(), SEED);
                    let primary = RetryLayer::new(faulty, 2);
                    let secondary = RetryLayer::new(sim(ModelProfile::gpt4()), 2);
                    Box::new(RouterLayer::new(
                        vec![Box::new(primary), Box::new(secondary)],
                        policy,
                    ))
                },
            );
            retried += r;
            hits += h;
        }
        assert!(retried > 0 && hits > 0, "retried {retried}, hits {hits}");
        let cascade = spec(vec![ModelProfile::gpt35(), ModelProfile::gpt4()]);
        assert_eq!(cascade.name(), "router(sim-gpt-3.5->sim-gpt-4)");
    }

    #[test]
    fn omitting_the_retry_layer_reads_as_a_zero_budget_one() {
        for fault in [None, Some(FaultScenario::flaky())] {
            let bare = StackSpec {
                fault: fault.clone(),
                ..spec(vec![ModelProfile::gpt4()])
            }
            .build();
            let base = sim(ModelProfile::gpt4());
            let zero: Box<dyn ChatModel> = match &fault {
                Some(scenario) => Box::new(RetryLayer::new(
                    FaultLayer::scenario(base, scenario.clone(), SEED),
                    0,
                )),
                None => Box::new(RetryLayer::new(base, 0)),
            };
            for request in requests() {
                let (got, want) = (bare.chat(&request), zero.chat(&request));
                assert_eq!(got.meta.attempt_usage, None);
                assert_eq!(
                    got.meta.attempt_usage.unwrap_or(got.usage),
                    want.meta.attempt_usage.unwrap_or(want.usage)
                );
                let mut got = got;
                got.meta.attempt_usage = want.meta.attempt_usage;
                assert_eq!(got.text, want.text);
                assert_eq!(got.usage, want.usage);
                assert_eq!(got.latency_secs.to_bits(), want.latency_secs.to_bits());
                assert_eq!(got.meta, want.meta);
            }
        }
    }
}
