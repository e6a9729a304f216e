//! Cheap-first model-cascade routing with plan-order settlement.
//!
//! A [`RouterLayer`] fronts two or more [`ChatModel`] routes — e.g.
//! `sim-gpt-3.5` primary, `sim-gpt-4` escalation — and answers cheap-first:
//! the primary's full middleware stack (retries included) gets the request,
//! and only when its final response still trips the [`EscalationPolicy`]
//! (faulted, garbled, format-violating, or partially answered) does the
//! next route dispatch.
//!
//! ## Determinism: speculative dispatch, authoritative settlement
//!
//! The router itself holds **no** health state. `chat` is a pure function
//! of the request: the cascade runs speculatively on whichever worker
//! thread claimed the request, and the per-leg outcomes are stashed as a
//! [`RoutePending`] keyed by trace id. The executor collects the pending
//! via [`ChatModel::take_route_pending`] and settles it **in plan order**
//! through a [`RouteFold`] — the per-route circuit breakers live there, in
//! the fold, exactly like the budget gauge. Because breaker state never
//! influences what was dispatched (only what is billed and served), results
//! are bit-identical at any `--workers` count. The fold is the workspace's
//! only circuit breaker: a single model gets it behind a one-route
//! [`RouterLayer`].
//!
//! A leg that failed while its route's breaker is open is **shorted** at
//! settlement: billed zero tokens, zero dollars, zero latency, exactly as
//! if the open breaker had refused the dispatch. The served response is the
//! last billed leg; when every leg is shorted the request degrades to a
//! synthesized [`FaultKind::CircuitOpen`] response.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::chat::{ChatModel, ChatRequest, ChatResponse, FaultKind};
use crate::middleware::{answered_count, expected_answers};
use crate::usage::Usage;

/// Which response classes push a request to the next route.
///
/// `fault` covers every serving-layer fault left after retries (timeouts,
/// truncations, garbles, rejections, …); `garbled` narrows that to
/// [`FaultKind::Garbled`] alone for cascades that tolerate transport noise
/// but not corruption. `format` fires when a fault-free response parses to
/// zero answers; `partial` when it answers some but not all questions (the
/// low-confidence signal batched prompting exposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Escalate on any final fault.
    pub fault: bool,
    /// Escalate on a garbled completion (subset of `fault`).
    pub garbled: bool,
    /// Escalate when nothing parsed out of a fault-free response.
    pub format: bool,
    /// Escalate when only a prefix of the batch was answered.
    pub partial: bool,
}

impl Default for EscalationPolicy {
    /// The default cascade escalates on faults, format violations, and
    /// partial answers — everything short of a clean, complete response.
    fn default() -> Self {
        EscalationPolicy {
            fault: true,
            garbled: false,
            format: true,
            partial: true,
        }
    }
}

impl EscalationPolicy {
    /// Parses a comma-separated class list (`fault,format,partial`,
    /// `garbled`, …). Order and repetition are irrelevant; an unknown
    /// class is an error naming the valid ones.
    pub fn parse(spec: &str) -> Result<EscalationPolicy, String> {
        let mut policy = EscalationPolicy {
            fault: false,
            garbled: false,
            format: false,
            partial: false,
        };
        for class in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            match class {
                "fault" => policy.fault = true,
                "garbled" => policy.garbled = true,
                "format" => policy.format = true,
                "partial" => policy.partial = true,
                other => {
                    return Err(format!(
                        "unknown escalation class {other:?} (expected fault, garbled, \
                         format, or partial)"
                    ))
                }
            }
        }
        if policy
            == (EscalationPolicy {
                fault: false,
                garbled: false,
                format: false,
                partial: false,
            })
        {
            return Err("escalation policy selects no classes".into());
        }
        Ok(policy)
    }

    /// The canonical comma-separated form (stable; journal descriptors
    /// embed it, so two spellings of the same policy resume each other).
    pub fn canonical(&self) -> String {
        let mut classes = Vec::new();
        if self.fault {
            classes.push("fault");
        }
        if self.garbled {
            classes.push("garbled");
        }
        if self.format {
            classes.push("format");
        }
        if self.partial {
            classes.push("partial");
        }
        classes.join(",")
    }

    /// Whether `response` (a route's final answer for `request`) should be
    /// escalated to the next route.
    pub fn should_escalate(&self, request: &ChatRequest, response: &ChatResponse) -> bool {
        if let Some(kind) = response.meta.fault {
            return self.fault || (self.garbled && kind == FaultKind::Garbled);
        }
        let expected = expected_answers(request);
        if expected == 0 {
            return false;
        }
        let answered = answered_count(response);
        if answered == 0 {
            self.format
        } else if answered < expected {
            self.partial
        } else {
            false
        }
    }
}

/// One route's final outcome for a request, as dispatched speculatively.
/// Billing numbers are the route's own: `cost_usd` applies **that route's**
/// pricing to the leg's accumulated usage (the composite router has no
/// meaningful price of its own).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteAttempt {
    /// Route model name (e.g. `sim-gpt-3.5`).
    pub route: String,
    /// Final response text from this route.
    pub text: String,
    /// Fault the route's final response carried, if any.
    pub fault: Option<FaultKind>,
    /// Retry attempts the route's own middleware spent.
    pub retries: u32,
    /// Usage accumulated over every attempt on this route.
    pub usage: Usage,
    /// Usage of the route's final attempt alone.
    pub attempt_usage: Usage,
    /// Dollar cost at this route's pricing.
    pub cost_usd: f64,
    /// Virtual latency this route spent, retries and backoff included.
    pub latency_secs: f64,
}

/// The speculative cascade outcome for one request, awaiting plan-order
/// settlement: the legs that actually dispatched, cheapest first.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePending {
    /// Dispatched legs in cascade order (leg `i+1` exists only because leg
    /// `i` tripped the escalation policy).
    pub attempts: Vec<RouteAttempt>,
}

/// Fronts an ordered list of routes, answering cheap-first.
pub struct RouterLayer {
    routes: Vec<Box<dyn ChatModel>>,
    policy: EscalationPolicy,
    name: String,
    pending: Mutex<HashMap<u64, RoutePending>>,
}

impl RouterLayer {
    /// Builds a router over `routes` (cheapest first; at least one).
    ///
    /// # Panics
    /// Panics when `routes` is empty.
    pub fn new(routes: Vec<Box<dyn ChatModel>>, policy: EscalationPolicy) -> RouterLayer {
        assert!(!routes.is_empty(), "a router needs at least one route");
        let name = format!(
            "router({})",
            routes
                .iter()
                .map(|r| r.name().to_string())
                .collect::<Vec<_>>()
                .join("->")
        );
        RouterLayer {
            routes,
            policy,
            name,
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// The escalation policy in force.
    pub fn policy(&self) -> EscalationPolicy {
        self.policy
    }

    /// Route model names, cheapest first.
    pub fn route_names(&self) -> Vec<String> {
        self.routes.iter().map(|r| r.name().to_string()).collect()
    }
}

impl ChatModel for RouterLayer {
    /// Composite identity (`router(sim-gpt-3.5->sim-gpt-4)`): routed plans,
    /// cache keys, and journal headers are all distinct from any
    /// single-model run's.
    fn name(&self) -> &str {
        &self.name
    }

    /// The primary route's default: the cascade prompt is priced for the
    /// cheap model, and an escalation leg re-runs the identical request.
    fn default_temperature(&self) -> f64 {
        self.routes[0].default_temperature()
    }

    /// The tightest window across routes, so the planner only builds
    /// batches every route can serve.
    fn context_window(&self) -> usize {
        self.routes
            .iter()
            .map(|r| r.context_window())
            .min()
            .expect("router has at least one route")
    }

    /// The primary route's pricing. Routed billing never uses this — the
    /// executor settles per-leg costs at each leg's own pricing — but a
    /// bare `cost_usd` probe (reports, tests) gets the cheap-route rate.
    fn cost_usd(&self, usage: &Usage) -> f64 {
        self.routes[0].cost_usd(usage)
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let mut attempts: Vec<RouteAttempt> = Vec::new();
        let mut served: Option<ChatResponse> = None;
        for (i, route) in self.routes.iter().enumerate() {
            let response = route.chat(request);
            attempts.push(RouteAttempt {
                route: route.name().to_string(),
                text: response.text.clone(),
                fault: response.meta.fault,
                retries: response.meta.retries,
                usage: response.usage,
                attempt_usage: response.meta.attempt_usage.unwrap_or(response.usage),
                cost_usd: route.cost_usd(&response.usage),
                latency_secs: response.latency_secs,
            });
            let escalate =
                i + 1 < self.routes.len() && self.policy.should_escalate(request, &response);
            served = Some(response);
            if !escalate {
                break;
            }
        }
        let served = served.expect("router has at least one route");

        // The speculative response: the chosen leg's text and fault, with
        // usage, latency, and retries accumulated over *every* dispatched
        // leg — breaker state never touches it, so worker virtual clocks
        // (which advance by this latency) stay worker-count invariant.
        // Settlement later replaces the billing with the breaker-aware
        // numbers.
        let mut speculative = served;
        speculative.meta.attempt_usage = Some(
            attempts
                .last()
                .map(|a| a.attempt_usage)
                .expect("at least one leg"),
        );
        for leg in &attempts[..attempts.len() - 1] {
            speculative.usage.prompt_tokens += leg.usage.prompt_tokens;
            speculative.usage.completion_tokens += leg.usage.completion_tokens;
            speculative.latency_secs += leg.latency_secs;
            speculative.meta.retries += leg.retries;
        }
        if request.trace_id != 0 {
            self.pending
                .lock()
                .expect("router pending poisoned")
                .insert(request.trace_id, RoutePending { attempts });
        }
        speculative
    }

    fn take_route_pending(&self, trace_id: u64) -> Option<RoutePending> {
        self.pending
            .lock()
            .expect("router pending poisoned")
            .remove(&trace_id)
    }
}

// ---------------------------------------------------------------------------
// Plan-order settlement
// ---------------------------------------------------------------------------

/// How a settled leg ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// This leg's response is the one the request serves.
    Served,
    /// Billed, but the escalation policy pushed past it.
    Escalated,
    /// The route's breaker was open when this failed leg settled: billed
    /// zero, exactly as if the dispatch had been refused.
    Shorted,
}

impl RouteOutcome {
    /// Stable label for trace events, journals, and reports.
    pub fn label(self) -> &'static str {
        match self {
            RouteOutcome::Served => "served",
            RouteOutcome::Escalated => "escalated",
            RouteOutcome::Shorted => "shorted",
        }
    }

    /// Parses a label written by [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<RouteOutcome> {
        match label {
            "served" => Some(RouteOutcome::Served),
            "escalated" => Some(RouteOutcome::Escalated),
            "shorted" => Some(RouteOutcome::Shorted),
            _ => None,
        }
    }
}

/// One leg after settlement: the numbers the ledger bills (zeros when
/// shorted).
#[derive(Debug, Clone, PartialEq)]
pub struct SettledLeg {
    /// Route model name.
    pub route: String,
    /// Cascade position (0 = primary).
    pub index: u32,
    /// How the leg ended up.
    pub outcome: RouteOutcome,
    /// Fault the leg's response carried (kept for shorted legs too: it is
    /// the failure the open breaker absorbed).
    pub fault: Option<FaultKind>,
    /// Billed retries (zero when shorted).
    pub retries: u32,
    /// Billed usage (zero when shorted).
    pub usage: Usage,
    /// Billed dollar cost at the route's pricing (zero when shorted).
    pub cost_usd: f64,
    /// Billed virtual latency (zero when shorted).
    pub latency_secs: f64,
}

/// A settled request: per-leg billing plus the response the request serves.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteSettlement {
    /// Settled legs in cascade order.
    pub legs: Vec<SettledLeg>,
    /// The response the request serves (last billed leg, or a synthesized
    /// [`FaultKind::CircuitOpen`] response when every leg was shorted).
    pub response: ChatResponse,
    /// Total billed cost across legs (each at its own route's pricing).
    pub cost_usd: f64,
}

/// Circuit-breaker tuning for [`RouteFold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport-faulted legs that trip a route's breaker open.
    pub failure_threshold: u32,
    /// Failed legs shorted while open before a probe is billed.
    pub cooldown_requests: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_requests: 2,
        }
    }
}

/// Per-route breaker health, folded in plan order. Admission and outcome
/// settle in the same step (the leg's result is already known), so a
/// half-open probe never persists as a state: `Open { remaining: 0 }`
/// *is* the probe slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteHealth {
    Closed { streak: u32 },
    Open { remaining: u32 },
}

/// The executor-side settlement fold: one per run, advanced once per
/// routed request in plan order (exactly like the budget gauge), so breaker
/// decisions — and therefore billing and the served response — are
/// independent of worker count and shard boundaries.
#[derive(Debug)]
pub struct RouteFold {
    config: BreakerConfig,
    states: Vec<RouteHealth>,
    slots: HashMap<String, usize>,
}

impl Default for RouteFold {
    fn default() -> Self {
        RouteFold::new(BreakerConfig::default())
    }
}

impl RouteFold {
    /// A fold with every route's breaker closed.
    pub fn new(config: BreakerConfig) -> RouteFold {
        RouteFold {
            config,
            states: Vec::new(),
            slots: HashMap::new(),
        }
    }

    fn slot(&mut self, route: &str) -> usize {
        if let Some(&slot) = self.slots.get(route) {
            return slot;
        }
        let slot = self.states.len();
        self.states.push(RouteHealth::Closed { streak: 0 });
        self.slots.insert(route.to_string(), slot);
        slot
    }

    /// A route's current breaker state label (`closed` / `open`), for
    /// tests and diagnostics. Routes not yet seen are closed.
    pub fn state_label(&self, route: &str) -> &'static str {
        match self.slots.get(route).map(|&s| self.states[s]) {
            Some(RouteHealth::Open { .. }) => "open",
            _ => "closed",
        }
    }

    /// Advances one route's breaker by one settled leg. Returns whether the
    /// leg is shorted (billed zero). `failed` means the leg's final fault is
    /// a retryable transport failure — the only class that signals upstream
    /// ill health. A non-retryable rejection (content filter, policy
    /// refusal) proves the upstream is alive and answering: it bills
    /// normally and never grows the streak.
    fn advance(&mut self, route: &str, failed: bool) -> bool {
        let slot = self.slot(route);
        let (next, shorted) = match (self.states[slot], failed) {
            // Open with cooldown left: a failed leg is shorted unbilled.
            (RouteHealth::Open { remaining }, true) if remaining > 0 => (
                RouteHealth::Open {
                    remaining: remaining - 1,
                },
                true,
            ),
            // Cooldown spent: this failed leg is the (billed) probe, and
            // its failure re-opens the breaker for another cooldown.
            (RouteHealth::Open { .. }, true) => (
                RouteHealth::Open {
                    remaining: self.config.cooldown_requests,
                },
                false,
            ),
            // A success while open is a successful probe: bill, close.
            (RouteHealth::Open { .. }, false) => (RouteHealth::Closed { streak: 0 }, false),
            (RouteHealth::Closed { streak }, true) => {
                let streak = streak + 1;
                if streak >= self.config.failure_threshold {
                    (
                        RouteHealth::Open {
                            remaining: self.config.cooldown_requests,
                        },
                        false,
                    )
                } else {
                    (RouteHealth::Closed { streak }, false)
                }
            }
            (RouteHealth::Closed { .. }, false) => (RouteHealth::Closed { streak: 0 }, false),
        };
        self.states[slot] = next;
        shorted
    }

    /// Settles one request's cascade in plan order: advances each leg's
    /// route breaker, shorts failed legs whose breaker was open, and
    /// assembles the billed response (the last billed leg's text; every
    /// billed leg's usage, retries, cost, and latency summed).
    pub fn settle(&mut self, pending: RoutePending) -> RouteSettlement {
        let mut legs: Vec<SettledLeg> = Vec::with_capacity(pending.attempts.len());
        let mut served: Option<usize> = None;
        for (i, a) in pending.attempts.iter().enumerate() {
            let failed = a.fault.is_some_and(FaultKind::is_retryable);
            let shorted = self.advance(&a.route, failed);
            if shorted {
                legs.push(SettledLeg {
                    route: a.route.clone(),
                    index: i as u32,
                    outcome: RouteOutcome::Shorted,
                    fault: a.fault,
                    retries: 0,
                    usage: Usage::default(),
                    cost_usd: 0.0,
                    latency_secs: 0.0,
                });
            } else {
                legs.push(SettledLeg {
                    route: a.route.clone(),
                    index: i as u32,
                    outcome: RouteOutcome::Escalated,
                    fault: a.fault,
                    retries: a.retries,
                    usage: a.usage,
                    cost_usd: a.cost_usd,
                    latency_secs: a.latency_secs,
                });
                served = Some(i);
            }
        }
        finish_settlement(pending, legs, served)
    }

    /// Settles a cascade **without** consulting or advancing any breaker:
    /// every leg bills, the last leg serves. The degradation ladder uses
    /// this — its sub-requests settle at parse time, whose position
    /// relative to later folds depends on plan-shard boundaries, so letting
    /// them touch breaker state would make routing depend on the shard
    /// size.
    pub fn settle_passthrough(pending: RoutePending) -> RouteSettlement {
        let legs: Vec<SettledLeg> = pending
            .attempts
            .iter()
            .enumerate()
            .map(|(i, a)| SettledLeg {
                route: a.route.clone(),
                index: i as u32,
                outcome: RouteOutcome::Escalated,
                fault: a.fault,
                retries: a.retries,
                usage: a.usage,
                cost_usd: a.cost_usd,
                latency_secs: a.latency_secs,
            })
            .collect();
        let served = legs.len().checked_sub(1);
        finish_settlement(pending, legs, served)
    }

    /// Re-applies a replayed (journaled) request's settled legs to the
    /// breaker fold, so requests settling after a resume see exactly the
    /// breaker state the uninterrupted run would have reached. The
    /// journaled outcomes are trusted: a shorted leg burns one cooldown
    /// slot, a billed leg advances the machine by its failure flag.
    pub fn replay(&mut self, legs: &[(String, RouteOutcome, Option<FaultKind>)]) {
        for (route, outcome, fault) in legs {
            match outcome {
                RouteOutcome::Shorted => {
                    let slot = self.slot(route);
                    if let RouteHealth::Open { remaining } = self.states[slot] {
                        self.states[slot] = RouteHealth::Open {
                            remaining: remaining.saturating_sub(1),
                        };
                    }
                }
                _ => {
                    let failed = fault.is_some_and(|k| k.is_retryable());
                    let _ = self.advance(route, failed);
                }
            }
        }
    }
}

/// Builds the settled response and totals once outcomes are decided:
/// `served` (the last billed leg) flips to [`RouteOutcome::Served`]; all
/// legs shorted synthesizes an unbilled circuit-open response.
fn finish_settlement(
    pending: RoutePending,
    mut legs: Vec<SettledLeg>,
    served: Option<usize>,
) -> RouteSettlement {
    let mut usage = Usage::default();
    let mut retries = 0u32;
    let mut cost_usd = 0.0;
    let mut latency_secs = 0.0;
    for leg in &legs {
        usage.prompt_tokens += leg.usage.prompt_tokens;
        usage.completion_tokens += leg.usage.completion_tokens;
        retries += leg.retries;
        cost_usd += leg.cost_usd;
        latency_secs += leg.latency_secs;
    }
    let response = match served {
        Some(i) => {
            legs[i].outcome = RouteOutcome::Served;
            let chosen = &pending.attempts[i];
            let mut response = ChatResponse::new(chosen.text.clone(), usage, latency_secs);
            response.meta.fault = chosen.fault;
            response.meta.retries = retries;
            response.meta.attempt_usage = Some(chosen.attempt_usage);
            response
        }
        None => {
            // Every leg shorted: the cascade degrades to an unbilled
            // circuit-open response, the deterministic analogue of "all
            // breakers refused the dispatch".
            let mut response = ChatResponse::new(String::new(), Usage::default(), 0.0);
            response.meta.fault = Some(FaultKind::CircuitOpen);
            response.meta.attempt_usage = Some(Usage::default());
            response
        }
    };
    RouteSettlement {
        legs,
        response,
        cost_usd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::Message;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A route that answers `answers` of the asked questions (faulting when
    /// `fault` is set), counting calls.
    struct Route {
        name: &'static str,
        answers: usize,
        fault: Option<FaultKind>,
        per_token: f64,
        calls: AtomicUsize,
    }

    impl Route {
        fn new(name: &'static str, answers: usize) -> Route {
            Route {
                name,
                answers,
                fault: None,
                per_token: 1e-6,
                calls: AtomicUsize::new(0),
            }
        }

        fn faulting(mut self, fault: FaultKind) -> Route {
            self.fault = Some(fault);
            self
        }

        fn priced(mut self, per_token: f64) -> Route {
            self.per_token = per_token;
            self
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl ChatModel for Route {
        fn name(&self) -> &str {
            self.name
        }
        fn context_window(&self) -> usize {
            4096
        }
        fn cost_usd(&self, usage: &Usage) -> f64 {
            usage.total_tokens() as f64 * self.per_token
        }
        fn chat(&self, request: &ChatRequest) -> ChatResponse {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let expected = expected_answers(request);
            let mut text = String::new();
            for i in 1..=self.answers.min(expected) {
                text.push_str(&format!("Answer {i}: yes\n"));
            }
            let mut response = ChatResponse::new(
                text,
                Usage {
                    prompt_tokens: 100,
                    completion_tokens: 10,
                },
                2.0,
            );
            response.meta.fault = self.fault;
            response
        }
    }

    fn ask(k: usize) -> ChatRequest {
        let mut body = String::new();
        for i in 1..=k {
            body.push_str(&format!("Question {i}: record {i} ok?\n"));
        }
        ChatRequest::new(vec![Message::user(body)]).with_trace_id(7)
    }

    fn pending_of(router: &RouterLayer, request: &ChatRequest) -> RoutePending {
        let _ = router.chat(request);
        router
            .take_route_pending(request.trace_id)
            .expect("pending stashed")
    }

    #[test]
    fn policy_parses_and_canonicalizes() {
        let p = EscalationPolicy::parse("partial, fault,format").unwrap();
        assert_eq!(p.canonical(), "fault,format,partial");
        assert_eq!(
            EscalationPolicy::default().canonical(),
            "fault,format,partial"
        );
        assert!(EscalationPolicy::parse("fault,bogus").is_err());
        assert!(EscalationPolicy::parse("").is_err());
        let g = EscalationPolicy::parse("garbled").unwrap();
        assert_eq!(g.canonical(), "garbled");
    }

    #[test]
    fn policy_classifies_responses() {
        let p = EscalationPolicy::default();
        let req = ask(3);
        let complete = Route::new("a", 3).chat(&req);
        assert!(!p.should_escalate(&req, &complete));
        let partial = Route::new("a", 1).chat(&req);
        assert!(p.should_escalate(&req, &partial));
        let empty = Route::new("a", 0).chat(&req);
        assert!(p.should_escalate(&req, &empty));
        let faulted = Route::new("a", 3).faulting(FaultKind::Timeout).chat(&req);
        assert!(p.should_escalate(&req, &faulted));
        // garbled-only tolerates a timeout but escalates a garble.
        let g = EscalationPolicy::parse("garbled").unwrap();
        assert!(!g.should_escalate(&req, &faulted));
        let garbled = Route::new("a", 0).faulting(FaultKind::Garbled).chat(&req);
        assert!(g.should_escalate(&req, &garbled));
    }

    #[test]
    fn cheap_first_serves_without_escalation() {
        let primary = Arc::new(Route::new("cheap", 64));
        let secondary = Arc::new(Route::new("pricey", 64));
        let router = RouterLayer::new(
            vec![
                Box::new(primary.clone()) as Box<dyn ChatModel>,
                Box::new(secondary.clone()),
            ],
            EscalationPolicy::default(),
        );
        assert_eq!(router.name(), "router(cheap->pricey)");
        let response = router.chat(&ask(2));
        assert_eq!(primary.calls(), 1);
        assert_eq!(secondary.calls(), 0, "no escalation on a clean answer");
        assert_eq!(response.usage.prompt_tokens, 100);
        let pending = router.take_route_pending(7).expect("stashed");
        assert_eq!(pending.attempts.len(), 1);
        assert_eq!(pending.attempts[0].route, "cheap");
    }

    #[test]
    fn escalation_accumulates_speculative_usage_and_stashes_both_legs() {
        let primary = Arc::new(Route::new("cheap", 0).priced(1e-6));
        let secondary = Arc::new(Route::new("pricey", 64).priced(1e-4));
        let router = RouterLayer::new(
            vec![
                Box::new(primary.clone()) as Box<dyn ChatModel>,
                Box::new(secondary.clone()),
            ],
            EscalationPolicy::default(),
        );
        let response = router.chat(&ask(2));
        assert_eq!(primary.calls(), 1);
        assert_eq!(secondary.calls(), 1);
        // Speculative usage and latency cover both legs.
        assert_eq!(response.usage.prompt_tokens, 200);
        assert!((response.latency_secs - 4.0).abs() < 1e-12);
        assert_eq!(answered_count(&response), 2, "served by the escalation");
        let pending = router.take_route_pending(7).expect("stashed");
        assert_eq!(pending.attempts.len(), 2);
        // Per-leg costs use each route's own pricing.
        assert!((pending.attempts[0].cost_usd - 110.0 * 1e-6).abs() < 1e-12);
        assert!((pending.attempts[1].cost_usd - 110.0 * 1e-4).abs() < 1e-12);
        assert!(router.take_route_pending(7).is_none(), "consume-once");
    }

    #[test]
    fn untraced_requests_stash_nothing() {
        let primary = Arc::new(Route::new("cheap", 64));
        let router = RouterLayer::new(
            vec![Box::new(primary.clone()) as Box<dyn ChatModel>],
            EscalationPolicy::default(),
        );
        let mut req = ask(1);
        req.trace_id = 0;
        let _ = router.chat(&req);
        assert!(router.take_route_pending(0).is_none());
    }

    #[test]
    fn settlement_bills_all_legs_while_breakers_closed() {
        let primary = Arc::new(Route::new("cheap", 0).faulting(FaultKind::Timeout));
        let secondary = Arc::new(Route::new("pricey", 64));
        let router = RouterLayer::new(
            vec![
                Box::new(primary.clone()) as Box<dyn ChatModel>,
                Box::new(secondary.clone()),
            ],
            EscalationPolicy::default(),
        );
        let mut fold = RouteFold::default();
        let s = fold.settle(pending_of(&router, &ask(2)));
        assert_eq!(s.legs.len(), 2);
        assert_eq!(s.legs[0].outcome, RouteOutcome::Escalated);
        assert_eq!(s.legs[1].outcome, RouteOutcome::Served);
        assert_eq!(s.response.usage.prompt_tokens, 200, "both legs billed");
        assert_eq!(answered_count(&s.response), 2);
        assert!((s.cost_usd - (s.legs[0].cost_usd + s.legs[1].cost_usd)).abs() < 1e-12);
    }

    #[test]
    fn open_breaker_shorts_failed_primary_legs_unbilled() {
        let primary = Arc::new(Route::new("cheap", 0).faulting(FaultKind::Timeout));
        let secondary = Arc::new(Route::new("pricey", 64));
        let router = RouterLayer::new(
            vec![
                Box::new(primary.clone()) as Box<dyn ChatModel>,
                Box::new(secondary.clone()),
            ],
            EscalationPolicy::default(),
        );
        let mut fold = RouteFold::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_requests: 2,
        });
        // Three failed primary legs trip the breaker (all billed)…
        for _ in 0..3 {
            let s = fold.settle(pending_of(&router, &ask(2)));
            assert_eq!(s.legs[0].outcome, RouteOutcome::Escalated);
            assert!(s.legs[0].usage.prompt_tokens > 0);
        }
        assert_eq!(fold.state_label("cheap"), "open");
        // …then two shorted ones: primary bills zero, secondary serves.
        for _ in 0..2 {
            let s = fold.settle(pending_of(&router, &ask(2)));
            assert_eq!(s.legs[0].outcome, RouteOutcome::Shorted);
            assert_eq!(s.legs[0].usage, Usage::default());
            assert_eq!(s.legs[0].cost_usd, 0.0);
            assert_eq!(s.legs[1].outcome, RouteOutcome::Served);
            assert_eq!(s.response.usage.prompt_tokens, 100, "secondary only");
            assert_eq!(answered_count(&s.response), 2, "still served");
        }
        // Cooldown spent: the next failed leg is a billed probe that
        // re-opens the breaker.
        let s = fold.settle(pending_of(&router, &ask(2)));
        assert_eq!(s.legs[0].outcome, RouteOutcome::Escalated);
        assert!(s.legs[0].usage.prompt_tokens > 0);
        assert_eq!(fold.state_label("cheap"), "open");
    }

    #[test]
    fn all_legs_shorted_degrades_to_circuit_open() {
        let only = Arc::new(Route::new("solo", 0).faulting(FaultKind::Timeout));
        let router = RouterLayer::new(
            vec![Box::new(only.clone()) as Box<dyn ChatModel>],
            EscalationPolicy::default(),
        );
        let mut fold = RouteFold::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_requests: 4,
        });
        let _ = fold.settle(pending_of(&router, &ask(1))); // trips
        let s = fold.settle(pending_of(&router, &ask(1)));
        assert_eq!(s.legs[0].outcome, RouteOutcome::Shorted);
        assert_eq!(s.response.meta.fault, Some(FaultKind::CircuitOpen));
        assert_eq!(s.response.usage, Usage::default());
        assert_eq!(s.cost_usd, 0.0);
    }

    #[test]
    fn successful_probe_closes_the_breaker() {
        let mut fold = RouteFold::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_requests: 1,
        });
        assert!(!fold.advance("r", true), "tripping leg is billed");
        assert_eq!(fold.state_label("r"), "open");
        assert!(fold.advance("r", true), "cooldown leg shorted");
        // Cooldown spent; a success while open is a successful probe.
        assert!(!fold.advance("r", false));
        assert_eq!(fold.state_label("r"), "closed");
    }

    #[test]
    fn non_retryable_rejections_do_not_trip_the_breaker() {
        let mut fold = RouteFold::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_requests: 1,
        });
        // Rejections are `failed = false` at the fold: a rejecting
        // upstream is alive and answering, so the streak never grows.
        let rejected = Some(FaultKind::Rejected);
        for _ in 0..5 {
            let failed = rejected.is_some_and(FaultKind::is_retryable);
            assert!(!fold.advance("r", failed));
        }
        assert_eq!(fold.state_label("r"), "closed");
    }

    #[test]
    fn replay_reproduces_breaker_state() {
        // Drive one fold live; feed a second fold the settled legs as a
        // journal replay would; they must agree on every subsequent
        // decision.
        let primary = Arc::new(Route::new("cheap", 0).faulting(FaultKind::Timeout));
        let secondary = Arc::new(Route::new("pricey", 64));
        let router = RouterLayer::new(
            vec![
                Box::new(primary.clone()) as Box<dyn ChatModel>,
                Box::new(secondary.clone()),
            ],
            EscalationPolicy::default(),
        );
        let config = BreakerConfig {
            failure_threshold: 2,
            cooldown_requests: 3,
        };
        let mut live = RouteFold::new(config);
        let mut resumed = RouteFold::new(config);
        for _ in 0..4 {
            let s = live.settle(pending_of(&router, &ask(2)));
            let replay_legs: Vec<_> = s
                .legs
                .iter()
                .map(|l| (l.route.clone(), l.outcome, l.fault))
                .collect();
            resumed.replay(&replay_legs);
        }
        // Both folds settle the next request identically.
        let a = live.settle(pending_of(&router, &ask(2)));
        let b = resumed.settle(pending_of(&router, &ask(2)));
        assert_eq!(a.legs, b.legs);
    }

    #[test]
    fn passthrough_settlement_bills_every_leg_and_ignores_breakers() {
        let primary = Arc::new(Route::new("cheap", 0).faulting(FaultKind::Timeout));
        let secondary = Arc::new(Route::new("pricey", 64));
        let router = RouterLayer::new(
            vec![
                Box::new(primary.clone()) as Box<dyn ChatModel>,
                Box::new(secondary.clone()),
            ],
            EscalationPolicy::default(),
        );
        let s = RouteFold::settle_passthrough(pending_of(&router, &ask(2)));
        assert_eq!(s.legs[0].outcome, RouteOutcome::Escalated);
        assert_eq!(s.legs[1].outcome, RouteOutcome::Served);
        assert_eq!(s.response.usage.prompt_tokens, 200);
    }

    #[test]
    fn outcome_labels_round_trip() {
        for outcome in [
            RouteOutcome::Served,
            RouteOutcome::Escalated,
            RouteOutcome::Shorted,
        ] {
            assert_eq!(RouteOutcome::from_label(outcome.label()), Some(outcome));
        }
        assert_eq!(RouteOutcome::from_label("bogus"), None);
    }
}
