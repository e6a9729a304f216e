//! Pipeline configuration and the ablation component sets of Table 2.

use dprep_prompt::{BatchStrategy, PromptConfig, Task};

/// Which prompt components are enabled — one row of the paper's Table 2.
/// Zero-shot task specification (ZS-T) is always on; the switches are
/// few-shot examples (FS), batch prompting (B), and zero-shot reasoning
/// (ZS-R).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentSet {
    /// Few-shot examples included.
    pub few_shot: bool,
    /// Batch prompting enabled (batch size > 1).
    pub batching: bool,
    /// Chain-of-thought reasoning requested.
    pub reasoning: bool,
}

impl ComponentSet {
    /// The six rows of Table 2, in the paper's order.
    pub fn table2_rows() -> [(&'static str, ComponentSet); 6] {
        [
            (
                "ZS-T",
                ComponentSet {
                    few_shot: false,
                    batching: false,
                    reasoning: false,
                },
            ),
            (
                "ZS-T+B",
                ComponentSet {
                    few_shot: false,
                    batching: true,
                    reasoning: false,
                },
            ),
            (
                "ZS-T+B+ZS-R",
                ComponentSet {
                    few_shot: false,
                    batching: true,
                    reasoning: true,
                },
            ),
            (
                "ZS-T+FS",
                ComponentSet {
                    few_shot: true,
                    batching: false,
                    reasoning: false,
                },
            ),
            (
                "ZS-T+FS+B",
                ComponentSet {
                    few_shot: true,
                    batching: true,
                    reasoning: false,
                },
            ),
            (
                "ZS-T+FS+B+ZS-R",
                ComponentSet {
                    few_shot: true,
                    batching: true,
                    reasoning: true,
                },
            ),
        ]
    }

    /// The full component set (the paper's best setting).
    pub fn full() -> Self {
        ComponentSet {
            few_shot: true,
            batching: true,
            reasoning: true,
        }
    }
}

/// Full configuration of one preprocessing run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The task.
    pub task: Task,
    /// Prompt components in play.
    pub components: ComponentSet,
    /// Batch size used when `components.batching` is true (the paper uses
    /// 10–20 for GPT-3.5, 10–15 for GPT-4, 1–2 for Vicuna).
    pub batch_size: usize,
    /// Use cluster batching instead of random batching.
    pub cluster_batching: bool,
    /// Number of clusters for cluster batching.
    pub clusters: usize,
    /// ED target-confirmation safeguard (§3.1); only meaningful with
    /// reasoning on.
    pub confirm_target: bool,
    /// DI data-type hint `(attribute, hint)`.
    pub type_hint: Option<(String, String)>,
    /// Feature selection: attribute indices to keep (§3.4).
    pub feature_indices: Option<Vec<usize>>,
    /// Sampling temperature; `None` uses the model profile's default.
    pub temperature: Option<f64>,
    /// Shrink the batch size automatically so prompts fit the model's
    /// context window (on by default — an operator would do the same).
    pub fit_context: bool,
    /// Seed for batching shuffles.
    pub seed: u64,
    /// Worker threads the executor dispatches batch requests across
    /// (1 = serial). Results are bit-identical at any worker count.
    pub workers: usize,
    /// Plan shard size: when set (and > 0), the run plans and executes in
    /// shards of this many batches, bounding planner memory by the shard
    /// size rather than the corpus size; unset, the whole plan is one
    /// shard, materialized up front. Results are shard-size invariant, so
    /// this knob (like `workers`) is excluded from
    /// [`descriptor`](Self::descriptor).
    pub plan_shard_size: Option<usize>,
    /// Model-cascade routes, cheapest first (model profile names, e.g.
    /// `["sim-gpt-3.5", "sim-gpt-4"]`). Empty means a single-model run
    /// served directly by the `--model` profile.
    pub routes: Vec<String>,
    /// Escalation-policy spec for the cascade, in
    /// [`dprep_llm::EscalationPolicy`] canonical form; `None` uses the
    /// default policy. Meaningless unless `routes` is non-empty.
    pub escalate_on: Option<String>,
}

impl PipelineConfig {
    /// The paper's best setting for a task: all components, batch size 15,
    /// target confirmation on.
    pub fn best(task: Task) -> Self {
        PipelineConfig {
            task,
            components: ComponentSet::full(),
            batch_size: 15,
            cluster_batching: false,
            clusters: 8,
            confirm_target: true,
            type_hint: None,
            feature_indices: None,
            temperature: None,
            fit_context: true,
            seed: 0,
            workers: 1,
            plan_shard_size: None,
            routes: Vec::new(),
            escalate_on: None,
        }
    }

    /// A configuration for one Table 2 ablation row.
    pub fn ablation(task: Task, components: ComponentSet, batch_size: usize) -> Self {
        PipelineConfig {
            task,
            components,
            batch_size,
            cluster_batching: false,
            clusters: 8,
            confirm_target: components.reasoning,
            type_hint: None,
            feature_indices: None,
            temperature: None,
            fit_context: true,
            seed: 0,
            workers: 1,
            plan_shard_size: None,
            routes: Vec::new(),
            escalate_on: None,
        }
    }

    /// Effective batch size (1 when batching is off).
    pub fn effective_batch_size(&self) -> usize {
        if self.components.batching {
            self.batch_size.max(1)
        } else {
            1
        }
    }

    /// The batching strategy implied by the configuration.
    pub fn batch_strategy(&self) -> BatchStrategy {
        let batch_size = self.effective_batch_size();
        if self.cluster_batching {
            BatchStrategy::Cluster {
                batch_size,
                clusters: self.clusters,
            }
        } else {
            BatchStrategy::Random { batch_size }
        }
    }

    /// A stable one-line descriptor of everything that shapes prompts and
    /// batching — the run journal's config identity. The worker count is
    /// deliberately excluded (results are worker-invariant, so a journal
    /// recorded at `--workers 8` resumes fine at `--workers 1`); the seed
    /// is excluded too because the journal header carries it separately.
    /// `plan_shard_size` is likewise excluded — every shard size yields the
    /// same plan, so a journal recorded as one shard resumes fine under any
    /// shard size and vice versa.
    ///
    /// The cascade, by contrast, is **included** (appended only when routed,
    /// so single-model descriptors are byte-identical to every journal
    /// written before routing existed): a journal recorded under one
    /// cascade must not resume under another — the replayed per-route
    /// ledger would attribute cost to routes the resumed run doesn't have.
    pub fn descriptor(&self) -> String {
        let mut descriptor = format!(
            "{:?}|fs={}|b={}|r={}|bs={}|cluster={}|k={}|confirm={}|hint={:?}|feat={:?}|temp={:?}|fit={}",
            self.task,
            self.components.few_shot,
            self.components.batching,
            self.components.reasoning,
            self.batch_size,
            self.cluster_batching,
            self.clusters,
            self.confirm_target,
            self.type_hint,
            self.feature_indices,
            self.temperature,
            self.fit_context,
        );
        if !self.routes.is_empty() {
            use std::fmt::Write;
            let policy = self
                .escalate_on
                .clone()
                .unwrap_or_else(|| dprep_llm::EscalationPolicy::default().canonical());
            let _ = write!(
                descriptor,
                "|routes={}|esc={}",
                self.routes.join("->"),
                policy
            );
        }
        descriptor
    }

    /// The prompt-level configuration (what `dprep-prompt` consumes).
    pub fn prompt_config(&self) -> PromptConfig {
        PromptConfig {
            task: self.task,
            reasoning: self.components.reasoning,
            confirm_target: self.confirm_target && self.components.reasoning,
            type_hint: self.type_hint.clone(),
            feature_indices: self.feature_indices.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_six_distinct_rows() {
        let rows = ComponentSet::table2_rows();
        assert_eq!(rows.len(), 6);
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                assert_ne!(rows[i].1, rows[j].1);
            }
        }
        assert_eq!(rows[0].0, "ZS-T");
        assert_eq!(rows[5].1, ComponentSet::full());
    }

    #[test]
    fn batching_off_means_batch_size_one() {
        let mut cfg = PipelineConfig::best(Task::EntityMatching);
        cfg.components.batching = false;
        assert_eq!(cfg.effective_batch_size(), 1);
        cfg.components.batching = true;
        assert_eq!(cfg.effective_batch_size(), 15);
    }

    #[test]
    fn confirm_target_requires_reasoning() {
        let mut cfg = PipelineConfig::best(Task::ErrorDetection);
        cfg.components.reasoning = false;
        assert!(!cfg.prompt_config().confirm_target);
        cfg.components.reasoning = true;
        assert!(cfg.prompt_config().confirm_target);
    }

    #[test]
    fn descriptor_appends_routes_only_when_routed() {
        let mut cfg = PipelineConfig::best(Task::EntityMatching);
        let single = cfg.descriptor();
        assert!(!single.contains("routes="));

        cfg.routes = vec!["sim-gpt-3.5".into(), "sim-gpt-4".into()];
        let routed = cfg.descriptor();
        assert!(routed.starts_with(&single));
        assert!(routed.ends_with("|routes=sim-gpt-3.5->sim-gpt-4|esc=fault,format,partial"));

        cfg.escalate_on = Some("garbled".into());
        assert!(cfg.descriptor().ends_with("|esc=garbled"));

        // A different cascade is a different identity: resume must refuse.
        cfg.routes = vec!["sim-gpt-3.5".into()];
        assert_ne!(cfg.descriptor(), routed);
    }

    #[test]
    fn cluster_strategy_selected() {
        let mut cfg = PipelineConfig::best(Task::EntityMatching);
        cfg.cluster_batching = true;
        assert!(matches!(
            cfg.batch_strategy(),
            BatchStrategy::Cluster { .. }
        ));
        cfg.cluster_batching = false;
        assert!(matches!(cfg.batch_strategy(), BatchStrategy::Random { .. }));
    }
}
