//! Scenario-driven fault schedules.
//!
//! [`crate::FaultLayer`]'s original uniform coin flip models a benign,
//! memoryless network. Real serving failures cluster: a provider has a
//! burst outage, a rate limiter trips for everyone at once, a region's
//! latency spikes for minutes. A [`FaultScenario`] expresses those shapes
//! as an ordered list of seeded [`FaultRule`]s — each rule decides
//! deterministically, per request, whether it fires and what
//! [`FaultEffect`] it applies — so a chaos sweep replays the exact same
//! weather on every run and at any worker count.
//!
//! The serving-side response to that weather is the per-route circuit
//! breaker in [`crate::RouteFold`]: after a run of consecutive transport
//! failures a route's breaker opens and its failed legs settle shorted —
//! unbilled, as if never dispatched — until a probe after the cooldown
//! tests recovery. A single model behind a one-route [`crate::RouterLayer`]
//! gets the same breaker.

use crate::chat::ChatRequest;

/// What a firing [`FaultRule`] does to the request or its response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEffect {
    /// The request times out: nothing comes back, the prompt is billed.
    Timeout,
    /// A transient transport error: nothing sent, nothing billed.
    Transient,
    /// The provider rate-limits the request and suggests waiting
    /// `base_ms × (1 + h mod 4)` milliseconds (seeded jitter).
    RateLimited {
        /// Base suggested wait in milliseconds.
        base_ms: u64,
    },
    /// The completion stream is cut off halfway.
    Truncate,
    /// The completion arrives with its `Answer N:` markers corrupted, so
    /// nothing parses.
    Garble,
    /// The model silently answers only a prefix of the batch — the
    /// misaligned-batch failure the paper's batch prompting risks. No
    /// transport fault is flagged; incompleteness is what the retry and
    /// degradation machinery must notice.
    PartialAnswers,
    /// The response arrives intact but `factor` times slower.
    LatencySpike {
        /// Latency multiplier.
        factor: f64,
    },
    /// The provider rejects the request outright; retrying cannot help.
    Reject,
}

impl FaultEffect {
    /// Stable label for `fault_injected` trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultEffect::Timeout => "timeout",
            FaultEffect::Transient => "transient",
            FaultEffect::RateLimited { .. } => "rate-limited",
            FaultEffect::Truncate => "truncated-completion",
            FaultEffect::Garble => "garbled",
            FaultEffect::PartialAnswers => "partial-answers",
            FaultEffect::LatencySpike { .. } => "latency-spike",
            FaultEffect::Reject => "rejected",
        }
    }
}

/// One line of a fault schedule: fire on a seeded `rate` fraction of
/// requests and apply `effect`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Fraction of requests this rule fires on, in `[0, 1]`.
    pub rate: f64,
    /// What happens when it fires.
    pub effect: FaultEffect,
    /// `0`: the decision re-rolls on every retry (a fresh salt usually
    /// clears it, like a flaky network). `n > 0`: the decision ignores the
    /// retry salt and the fault **persists** until the request has been
    /// retried `n` times — an outage that outlasts a small retry budget,
    /// which is what drives retries-exhausted failures and the executor's
    /// degradation ladder.
    pub persist_attempts: u32,
    /// Mixed into the hash so two rules with the same rate fire on
    /// different request subsets.
    pub tag: u64,
}

impl FaultRule {
    /// Decides whether this rule fires for `(scenario seed, request)`.
    /// Returns the decision hash (for effect jitter) when it does.
    ///
    /// The decision is a pure function of the seed, the rule tag, the
    /// prompt text, and — only for non-persistent rules — the retry salt.
    fn fire(&self, seed: u64, request: &ChatRequest) -> Option<u64> {
        let effective_salt = if self.persist_attempts > 0 {
            0
        } else {
            request.retry_salt
        };
        let h = request.full_text_hash(seed ^ self.tag ^ effective_salt);
        let roll = (h >> 11) as f64 / (1u64 << 53) as f64;
        if roll >= self.rate.clamp(0.0, 1.0) {
            return None;
        }
        if self.persist_attempts > 0 && request.retry_salt >= u64::from(self.persist_attempts) {
            // The outage has passed by this attempt.
            return None;
        }
        Some(h)
    }
}

/// A named, seeded fault schedule: an ordered rule list where the first
/// firing rule wins. An empty rule list is a perfectly calm network.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Preset name (stable; used by `dprep chaos --scenario`).
    pub name: &'static str,
    /// Rules, checked in order; the first that fires is applied.
    pub rules: Vec<FaultRule>,
}

impl FaultScenario {
    /// The first rule that fires for this request, with its decision hash.
    pub(crate) fn decide(&self, seed: u64, request: &ChatRequest) -> Option<(&FaultRule, u64)> {
        self.rules
            .iter()
            .find_map(|rule| rule.fire(seed, request).map(|h| (rule, h)))
    }

    /// A calm network: no rules, no faults.
    pub fn calm() -> Self {
        FaultScenario {
            name: "calm",
            rules: Vec::new(),
        }
    }

    /// A mildly flaky network: occasional timeouts and truncations that a
    /// retry usually clears.
    pub fn flaky() -> Self {
        FaultScenario {
            name: "flaky",
            rules: vec![
                FaultRule {
                    rate: 0.06,
                    effect: FaultEffect::Timeout,
                    persist_attempts: 0,
                    tag: 0x01,
                },
                FaultRule {
                    rate: 0.06,
                    effect: FaultEffect::Truncate,
                    persist_attempts: 0,
                    tag: 0x02,
                },
                FaultRule {
                    rate: 0.04,
                    effect: FaultEffect::Transient,
                    persist_attempts: 0,
                    tag: 0x03,
                },
            ],
        }
    }

    /// A burst outage: ~30% of requests time out and keep timing out for
    /// three attempts — longer than the default retry budget, so these
    /// requests exhaust retries and exercise the degradation ladder.
    pub fn burst_outage() -> Self {
        FaultScenario {
            name: "burst-outage",
            rules: vec![FaultRule {
                rate: 0.30,
                effect: FaultEffect::Timeout,
                persist_attempts: 3,
                tag: 0x11,
            }],
        }
    }

    /// A rate-limit storm: half of all requests get throttled with a
    /// `retry_after` hint; a retry that honors the hint succeeds.
    pub fn rate_limit_storm() -> Self {
        FaultScenario {
            name: "rate-limit-storm",
            rules: vec![FaultRule {
                rate: 0.50,
                effect: FaultEffect::RateLimited { base_ms: 2000 },
                persist_attempts: 0,
                tag: 0x21,
            }],
        }
    }

    /// Latency spikes: a quarter of requests arrive intact but an order
    /// of magnitude slower — correctness unharmed, deadlines threatened.
    pub fn latency_spikes() -> Self {
        FaultScenario {
            name: "latency-spikes",
            rules: vec![FaultRule {
                rate: 0.25,
                effect: FaultEffect::LatencySpike { factor: 10.0 },
                persist_attempts: 0,
                tag: 0x31,
            }],
        }
    }

    /// Garbled completions: answer markers are corrupted in transit so
    /// nothing parses until a retry gets a clean copy.
    pub fn garbled() -> Self {
        FaultScenario {
            name: "garbled",
            rules: vec![FaultRule {
                rate: 0.30,
                effect: FaultEffect::Garble,
                persist_attempts: 0,
                tag: 0x41,
            }],
        }
    }

    /// Partial batch answers: the model silently answers only a prefix of
    /// large batches — the paper's batched-prompt misalignment, persisted
    /// past the retry budget so batch degradation has to split.
    pub fn partial_batch() -> Self {
        FaultScenario {
            name: "partial-batch",
            rules: vec![FaultRule {
                rate: 0.35,
                effect: FaultEffect::PartialAnswers,
                persist_attempts: 3,
                tag: 0x51,
            }],
        }
    }

    /// A route outage: every request times out, and keeps timing out no
    /// matter how often it is retried — a route that is hard-down for the
    /// whole run. Attach this to a cascade's primary route (secondary calm)
    /// to prove the router degrades to the secondary with zero unserved
    /// requests.
    pub fn route_outage() -> Self {
        FaultScenario {
            name: "route-outage",
            rules: vec![FaultRule {
                rate: 1.0,
                effect: FaultEffect::Timeout,
                // Outlasts any retry budget: the outage never clears.
                persist_attempts: u32::MAX,
                tag: 0x61,
            }],
        }
    }

    /// Every named preset, in sweep order.
    pub fn presets() -> Vec<FaultScenario> {
        vec![
            FaultScenario::calm(),
            FaultScenario::flaky(),
            FaultScenario::burst_outage(),
            FaultScenario::rate_limit_storm(),
            FaultScenario::latency_spikes(),
            FaultScenario::garbled(),
            FaultScenario::partial_batch(),
            FaultScenario::route_outage(),
        ]
    }

    /// Looks up a preset by its stable name.
    pub fn by_name(name: &str) -> Option<FaultScenario> {
        FaultScenario::presets()
            .into_iter()
            .find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::Message;

    fn req(text: &str) -> ChatRequest {
        ChatRequest::new(vec![Message::user(format!("Question 1: {text}?\n"))])
    }

    #[test]
    fn presets_have_unique_names_and_by_name_resolves() {
        let presets = FaultScenario::presets();
        let names: std::collections::HashSet<_> = presets.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), presets.len());
        for preset in &presets {
            assert_eq!(
                FaultScenario::by_name(preset.name).expect("resolves").name,
                preset.name
            );
        }
        assert!(FaultScenario::by_name("no-such-weather").is_none());
        assert!(FaultScenario::calm().rules.is_empty());
    }

    #[test]
    fn persistent_rules_clear_after_the_configured_attempts() {
        let scenario = FaultScenario::burst_outage();
        let rule = &scenario.rules[0];
        // Find a request the outage hits at salt 0.
        let hit = (0..200)
            .map(|i| req(&format!("case {i}")))
            .find(|r| rule.fire(9, r).is_some())
            .expect("a 30% rule hits within 200 requests");
        // Persistent: same decision for every salt below the horizon...
        for salt in 0..u64::from(rule.persist_attempts) {
            let salted = hit.clone().with_retry_salt(salt);
            assert!(rule.fire(9, &salted).is_some());
        }
        // ...and clear once the request has been retried past it.
        let cleared = hit
            .clone()
            .with_retry_salt(u64::from(rule.persist_attempts));
        assert!(rule.fire(9, &cleared).is_none());
    }

    #[test]
    fn route_outage_preset_downs_every_request_at_every_salt() {
        let scenario = FaultScenario::route_outage();
        for i in 0..32 {
            for salt in [0u64, 1, 5, 100] {
                let r = req(&format!("case {i}")).with_retry_salt(salt);
                let (rule, _) = scenario.decide(9, &r).expect("always fires");
                assert_eq!(rule.effect, FaultEffect::Timeout);
            }
        }
        assert!(FaultScenario::by_name("route-outage").is_some());
    }
}
