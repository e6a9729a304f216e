//! The prompt-component vocabulary for per-token cost attribution.
//!
//! The prompt builder tags section boundaries; the executor scales each
//! section's token count by the attempt count and emits one
//! [`PromptComponents`](crate::TraceEvent::PromptComponents) event per
//! completion. The contract, checked online by
//! [`AuditTracer`](crate::AuditTracer): **every billed prompt token
//! belongs to exactly one component** — the six counts sum to the
//! completion's accumulated `prompt_tokens`, and a cache hit attributes
//! zero.
//!
//! [`FRAMING`] is the reconciling component: message role tags and
//! tokenization residue that no tagged section claims. It is computed as
//! `billed - Σ sections`, which makes the sum invariant hold by
//! construction ([`reconcile`]).

/// Persona + zero-shot task specification + data-type hints.
pub const TASK_SPEC: &str = "task-spec";
/// Contextualization-format / answer-numbering instructions + safeguards.
pub const ANSWER_FORMAT: &str = "answer-format";
/// The chain-of-thought answer instruction.
pub const COT: &str = "cot";
/// Few-shot example questions and answers.
pub const FEW_SHOT: &str = "few-shot";
/// Batched instance questions (contextualized, feature-selected records).
pub const INSTANCES: &str = "instances";
/// Role tags and tokenization residue (the billed remainder).
pub const FRAMING: &str = "framing";

/// Every component label, in attribution order ([`FRAMING`] last).
pub const ALL: [&str; 6] = [TASK_SPEC, ANSWER_FORMAT, COT, FEW_SHOT, INSTANCES, FRAMING];

/// Reconciles five tagged section counts (in [`ALL`] order, without
/// framing) against the billed prompt-token total, returning all six
/// component counts summing to **exactly** `billed`.
///
/// Normally `Σ sections <= billed` (role tags alone cost tokens) and
/// framing is the remainder. If a foreign model ever bills fewer prompt
/// tokens than the tagged sections count, the overflow is trimmed from
/// the last sections first ([`INSTANCES`] backwards) so the invariant
/// still holds rather than oversumming.
pub fn reconcile(sections: [usize; 5], billed: usize) -> [usize; 6] {
    let mut out = [
        sections[0],
        sections[1],
        sections[2],
        sections[3],
        sections[4],
        0,
    ];
    let tagged: usize = sections.iter().sum();
    if tagged <= billed {
        out[5] = billed - tagged;
        return out;
    }
    let mut overflow = tagged - billed;
    for slot in out[..5].iter_mut().rev() {
        let cut = overflow.min(*slot);
        *slot -= cut;
        overflow -= cut;
        if overflow == 0 {
            break;
        }
    }
    out
}

/// Interns a label parsed from a JSONL trace back to the `&'static str`
/// vocabulary events carry. Known labels (components, failure kinds,
/// fault kinds, stage names) map to their static spelling; anything else
/// maps to `"other"` — snapshots rebuilt from a trace produced by this
/// workspace only ever see known labels.
pub fn intern_label(label: &str) -> &'static str {
    const KNOWN: [&str; 40] = [
        // components
        TASK_SPEC,
        ANSWER_FORMAT,
        COT,
        FEW_SHOT,
        INSTANCES,
        FRAMING,
        // failure kinds (dprep-core's FailureKind labels)
        "format-violation",
        "skipped-answer",
        "context-overflow",
        "faulted",
        "retries-exhausted",
        "budget-exhausted",
        "circuit-open",
        // fault kinds (dprep-llm's FaultKind / FaultEffect labels)
        "timeout",
        "truncated-completion",
        "transient",
        "rate-limited",
        "garbled",
        "rejected",
        "partial-answers",
        "latency-spike",
        // budget-trip reasons
        "deadline",
        "token-budget",
        // route-leg outcomes
        "served",
        "escalated",
        "shorted",
        // SLO alert states
        "ok",
        "warning",
        "paging",
        // SLO objective kinds
        "latency-p95",
        "failure-rate",
        "budget-headroom",
        // stages
        "plan",
        "prompt-build",
        "dispatch",
        "parse",
        "repair",
        // daemon drain states
        "serving",
        "draining",
        "closed",
    ];
    KNOWN
        .iter()
        .find(|k| **k == label)
        .copied()
        .unwrap_or("other")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_assigns_remainder_to_framing() {
        let out = reconcile([10, 5, 3, 0, 20], 45);
        assert_eq!(out, [10, 5, 3, 0, 20, 7]);
        assert_eq!(out.iter().sum::<usize>(), 45);
    }

    #[test]
    fn reconcile_trims_oversum_from_the_back() {
        let out = reconcile([10, 5, 3, 0, 20], 30);
        assert_eq!(out.iter().sum::<usize>(), 30);
        assert_eq!(out, [10, 5, 3, 0, 12, 0]);
        // Extreme: billed zero.
        let zero = reconcile([10, 5, 3, 0, 20], 0);
        assert_eq!(zero.iter().sum::<usize>(), 0);
    }

    #[test]
    fn interning_round_trips_known_labels() {
        for label in ALL {
            assert_eq!(intern_label(label), label);
        }
        assert_eq!(intern_label("skipped-answer"), "skipped-answer");
        assert_eq!(intern_label("never-heard-of-it"), "other");
    }
}
