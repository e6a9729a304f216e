//! Assembles complete chat requests from the framework's components.

use std::sync::Arc;

use dprep_llm::{ChatRequest, Message};
use dprep_text::count_tokens;

use crate::fewshot::{render_examples, FewShotExample};
use crate::source::InstanceSource;
use crate::task::{Task, TaskInstance};
use crate::template::{system_sections, TemplateOptions};

/// Configuration of one prompt — the component switches of the paper's
/// Table 2 plus feature selection.
#[derive(Debug, Clone)]
pub struct PromptConfig {
    /// The task being performed.
    pub task: Task,
    /// Zero-shot chain-of-thought reasoning (ZS-R).
    pub reasoning: bool,
    /// The ED "confirm the target attribute" safeguard.
    pub confirm_target: bool,
    /// Optional DI data-type hint `(attribute, hint text)`.
    pub type_hint: Option<(String, String)>,
    /// Feature selection (§3.4): indices of attributes to keep in record
    /// contextualizations. `None` keeps everything.
    pub feature_indices: Option<Vec<usize>>,
}

impl PromptConfig {
    /// A default configuration for `task`: reasoning on, ED confirmation
    /// on, no hint, no feature selection — the paper's best setting.
    pub fn best(task: Task) -> Self {
        PromptConfig {
            task,
            reasoning: true,
            confirm_target: true,
            type_hint: None,
            feature_indices: None,
        }
    }

    /// Zero-shot task specification only (the Table 2 `ZS-T` row).
    pub fn zero_shot_task_only(task: Task) -> Self {
        PromptConfig {
            task,
            reasoning: false,
            confirm_target: false,
            type_hint: None,
            feature_indices: None,
        }
    }
}

/// Token counts of a built request's prompt components, for cost
/// attribution (the five tagged sections; message framing — role tags and
/// tokenization residue — is whatever the billed total leaves over).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromptSections {
    /// Persona + task specification + data-type hint.
    pub task_spec: usize,
    /// Contextualization-format / answer-numbering instructions and
    /// safeguards.
    pub answer_format: usize,
    /// The chain-of-thought answer instruction (zero when reasoning is
    /// off).
    pub cot: usize,
    /// Few-shot example questions and answers.
    pub few_shot: usize,
    /// The batched instance questions (contextualized, feature-selected).
    pub instances: usize,
}

impl PromptSections {
    /// The five counts in attribution order (task-spec, answer-format,
    /// cot, few-shot, instances) — the shape the executor reconciles
    /// against the billed total.
    pub fn as_array(&self) -> [usize; 5] {
        [
            self.task_spec,
            self.answer_format,
            self.cot,
            self.few_shot,
            self.instances,
        ]
    }
}

/// Builds the chat request for one batch of instances.
///
/// Message layout (matching §3's framework figure):
///
/// 1. system: persona + zero-shot instruction (+ safeguards/hints),
/// 2. optional user/assistant pair: few-shot questions and answers,
/// 3. user: the batch questions, numbered `Question 1..k`.
///
/// # Panics
/// Panics when `batch` is empty or an instance's task differs from
/// `config.task`.
pub fn build_request(
    config: &PromptConfig,
    examples: &[FewShotExample],
    batch: &[&TaskInstance],
) -> ChatRequest {
    build_request_sections(config, examples, batch).0
}

/// Builds the chat request together with its per-component token counts
/// ([`PromptSections`]). The request is byte-identical to
/// [`build_request`]; the counts tag each message's content with the
/// component it belongs to, so an executor can attribute every billed
/// prompt token.
///
/// # Panics
/// Panics when `batch` is empty or an instance's task differs from
/// `config.task`.
pub fn build_request_sections(
    config: &PromptConfig,
    examples: &[FewShotExample],
    batch: &[&TaskInstance],
) -> (ChatRequest, PromptSections) {
    PromptContext::new(config, examples).build(batch)
}

/// The full-text token contribution of one chat message: its role tag, the
/// `:` separator, and its content. [`ChatRequest::full_text`] renders
/// `"{tag}: {content}\n"` per message, and the tokenizer never merges runs
/// across the `:` or the newline, so per-message counts sum exactly to the
/// full-text count the serving model bills.
fn message_tokens(tag: &str, content: &str) -> usize {
    count_tokens(tag) + 1 + count_tokens(content)
}

/// Appends `Question {number}: {question body}` and a newline to `out`.
pub(crate) fn write_numbered_question(
    out: &mut String,
    number: usize,
    instance: &TaskInstance,
    feature_indices: Option<&[usize]>,
) {
    use std::fmt::Write;
    let _ = write!(out, "Question {number}: ");
    instance.write_question(out, feature_indices);
    out.push('\n');
}

/// Invariant prompt parts of one execution plan, rendered and tokenized
/// once.
///
/// The system message and the few-shot turns depend only on the prompt
/// configuration and the example set — never on the batch — yet a naive
/// builder re-renders and re-tokenizes them for every request. A plan
/// builds one `PromptContext` up front and stacks each batch's questions
/// under the shared (`Arc`-held) sections; the context also accumulates
/// the exact full-text token count as it goes, so the built request
/// carries [`ChatRequest::prompt_tokens_hint`] and the serving model
/// never tokenizes the prompt a second time.
#[derive(Debug, Clone)]
pub struct PromptContext {
    config: PromptConfig,
    system: Arc<str>,
    /// Section counts of the system message (task-spec, answer-format, cot).
    task_spec: usize,
    answer_format: usize,
    cot: usize,
    /// Full-text token contribution of the system message.
    system_message_tokens: usize,
    few_shot: Option<FewShotContext>,
}

/// The rendered few-shot user/assistant pair and its token counts.
#[derive(Debug, Clone)]
struct FewShotContext {
    user: Arc<str>,
    assistant: Arc<str>,
    /// The few-shot attribution section: content tokens of both turns.
    section_tokens: usize,
    /// Full-text token contribution of both messages (role tags included).
    message_tokens: usize,
}

impl PromptContext {
    /// Renders the plan-invariant sections for `config` and `examples`.
    pub fn new(config: &PromptConfig, examples: &[FewShotExample]) -> Self {
        let options = TemplateOptions {
            reasoning: config.reasoning,
            confirm_target: config.confirm_target,
            type_hint: config.type_hint.clone(),
        };
        let system = system_sections(config.task, &options);
        let system_message_tokens = message_tokens("system", &system.text);
        let few_shot = render_examples(
            examples,
            config.reasoning,
            config.feature_indices.as_deref(),
        )
        .map(|(user, assistant)| FewShotContext {
            section_tokens: count_tokens(&user.content) + count_tokens(&assistant.content),
            message_tokens: message_tokens("user", &user.content)
                + message_tokens("assistant", &assistant.content),
            user: user.content.into(),
            assistant: assistant.content.into(),
        });
        PromptContext {
            config: config.clone(),
            system: system.text.into(),
            task_spec: system.task_spec_tokens,
            answer_format: system.answer_format_tokens,
            cot: system.cot_tokens,
            system_message_tokens,
            few_shot,
        }
    }

    /// Builds the request for one batch under the shared sections. The
    /// request is byte-identical to [`build_request`] on the same inputs;
    /// only the batch body is rendered and tokenized per call: it is
    /// [`write_body`](Self::write_body) then [`frame`](Self::frame).
    ///
    /// # Panics
    /// Panics when `batch` is empty or an instance's task differs from the
    /// context's configuration.
    pub fn build(&self, batch: &[&TaskInstance]) -> (ChatRequest, PromptSections) {
        let mut body = String::new();
        self.write_body(&mut body, batch);
        let body_tokens = count_tokens(&body);
        self.frame(body, body_tokens)
    }

    /// Appends one batch's body — its questions, numbered `Question 1..k`,
    /// one line each — to `out`. It is [`write_batch`](Self::write_batch)
    /// over the batch's own instances.
    ///
    /// # Panics
    /// Panics when `batch` is empty or an instance's task differs from the
    /// context's configuration.
    pub fn write_body(&self, out: &mut String, batch: &[&TaskInstance]) {
        self.write_batch(out, batch, 0..batch.len());
    }

    /// Appends the body of the batch of `source`'s instances at `batch`, in
    /// question order, to `out`. This is the one per-request render: each
    /// instance is read from the source as its question is written, and
    /// every question, and every record in it, is written straight into
    /// the caller's buffer, so a caller rendering many batches reuses one.
    ///
    /// # Panics
    /// Panics when `batch` is empty or an instance's task differs from the
    /// context's configuration.
    pub fn write_batch<S: InstanceSource + ?Sized>(
        &self,
        out: &mut String,
        source: &S,
        batch: impl ExactSizeIterator<Item = usize>,
    ) {
        assert!(batch.len() > 0, "cannot build a prompt with no instances");
        for (k, i) in batch.enumerate() {
            let instance = source.instance(i);
            assert!(
                instance.task() == self.config.task,
                "instance task does not match the prompt configuration"
            );
            write_numbered_question(
                out,
                k + 1,
                &instance,
                self.config.feature_indices.as_deref(),
            );
        }
    }

    /// The request around a rendered body: the shared system message and
    /// few-shot turns, then `body` as the last user turn. `body_tokens`
    /// must be `count_tokens(&body)`: the request's
    /// [`ChatRequest::prompt_tokens_hint`] and the sections' `instances`
    /// count are built from it, and the serving model trusts the hint.
    pub fn frame(&self, body: String, body_tokens: usize) -> (ChatRequest, PromptSections) {
        let mut sections = PromptSections {
            task_spec: self.task_spec,
            answer_format: self.answer_format,
            cot: self.cot,
            instances: body_tokens,
            ..PromptSections::default()
        };
        let mut full_text_tokens =
            self.system_message_tokens + count_tokens("user") + 1 + body_tokens;
        let mut messages = Vec::with_capacity(if self.few_shot.is_some() { 4 } else { 2 });
        messages.push(Message::system(self.system.to_string()));
        if let Some(fs) = &self.few_shot {
            sections.few_shot = fs.section_tokens;
            full_text_tokens += fs.message_tokens;
            messages.push(Message::user(fs.user.to_string()));
            messages.push(Message::assistant(fs.assistant.to_string()));
        }
        messages.push(Message::user(body));
        (
            ChatRequest::new(messages).with_prompt_tokens_hint(full_text_tokens),
            sections,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::AttrSpec;
    use dprep_llm::comprehend::{comprehend, TaskKind};
    use dprep_llm::Role;
    use dprep_tabular::{Record, Schema, Value};

    fn di_instance(city_missing: bool) -> TaskInstance {
        let schema = Schema::all_text(&["name", "phone", "city"])
            .unwrap()
            .shared();
        let record = Record::new(
            schema,
            vec![
                Value::text("carey's corner"),
                Value::text("770-933-0909"),
                if city_missing {
                    Value::Missing
                } else {
                    Value::text("marietta")
                },
            ],
        )
        .unwrap();
        TaskInstance::Imputation {
            record,
            attribute: "city".into(),
        }
    }

    #[test]
    fn builds_three_part_request() {
        let config = PromptConfig::best(Task::Imputation);
        let examples = vec![FewShotExample::new(
            di_instance(false),
            "The 770 area code points to Marietta.",
            "marietta",
        )];
        let inst = di_instance(true);
        let req = build_request(&config, &examples, &[&inst]);
        assert_eq!(req.messages.len(), 4);
        assert_eq!(req.messages[0].role, Role::System);
        assert_eq!(req.messages[1].role, Role::User);
        assert_eq!(req.messages[2].role, Role::Assistant);
        assert_eq!(req.messages[3].role, Role::User);
    }

    #[test]
    fn round_trips_through_model_comprehension() {
        // The critical invariant: whatever this builder emits, the simulated
        // LLM's reader must understand.
        let config = PromptConfig::best(Task::Imputation);
        let examples = vec![FewShotExample::new(
            di_instance(false),
            "The 770 area code points to Marietta.",
            "marietta",
        )];
        let inst = di_instance(true);
        let req = build_request(&config, &examples, &[&inst, &inst]);
        let c = comprehend(&req);
        assert_eq!(c.task, Some(TaskKind::Imputation));
        assert!(c.wants_reason);
        assert_eq!(c.examples.len(), 1);
        assert_eq!(c.examples[0].answer, "marietta");
        assert_eq!(c.questions.len(), 2);
        assert_eq!(c.questions[0].target_attribute, Some("city"));
    }

    #[test]
    fn ed_round_trip_detects_confirmation() {
        let schema = Schema::all_text(&["age", "city"]).unwrap().shared();
        let record = Record::new(schema, vec![Value::text("250"), Value::text("atlanta")]).unwrap();
        let inst = TaskInstance::ErrorDetection {
            record,
            attribute: "age".into(),
        };
        let req = build_request(&PromptConfig::best(Task::ErrorDetection), &[], &[&inst]);
        let c = comprehend(&req);
        assert_eq!(c.task, Some(TaskKind::ErrorDetection));
        assert!(c.confirm_target);
        assert_eq!(c.questions[0].target_attribute, Some("age"));
    }

    #[test]
    fn sm_round_trip() {
        let inst = TaskInstance::SchemaMatching {
            a: AttrSpec::new("zip", "postal code"),
            b: AttrSpec::new("postcode", "zip code"),
        };
        let req = build_request(&PromptConfig::best(Task::SchemaMatching), &[], &[&inst]);
        let c = comprehend(&req);
        assert_eq!(c.task, Some(TaskKind::SchemaMatching));
        assert_eq!(c.questions[0].instances.len(), 2);
    }

    #[test]
    fn sections_partition_the_prompt_within_the_billed_total() {
        let config = PromptConfig::best(Task::Imputation);
        let examples = vec![FewShotExample::new(
            di_instance(false),
            "The 770 area code points to Marietta.",
            "marietta",
        )];
        let inst = di_instance(true);
        let (req, sections) = build_request_sections(&config, &examples, &[&inst, &inst]);
        assert_eq!(req, build_request(&config, &examples, &[&inst, &inst]));
        assert!(sections.task_spec > 0);
        assert!(sections.cot > 0, "reasoning is on");
        assert!(sections.few_shot > 0);
        assert!(sections.instances > 0);
        // The tagged sections never exceed what the model bills for the
        // full request text: the remainder is message framing (role tags).
        let billed = dprep_text::count_tokens(&req.full_text());
        let tagged: usize = sections.as_array().iter().sum();
        assert!(
            tagged <= billed,
            "tagged {tagged} tokens exceed billed {billed}"
        );
        // Framing is small: two tokens per message tag plus residue.
        assert!(billed - tagged <= 4 * req.messages.len());
    }

    #[test]
    fn context_build_matches_one_shot_build_and_hints_exactly() {
        let config = PromptConfig::best(Task::Imputation);
        let examples = vec![FewShotExample::new(
            di_instance(false),
            "The 770 area code points to Marietta.",
            "marietta",
        )];
        let inst = di_instance(true);
        let context = PromptContext::new(&config, &examples);
        for k in 1..=3usize {
            let batch: Vec<&TaskInstance> = std::iter::repeat_n(&inst, k).collect();
            let (req, sections) = context.build(&batch);
            let (oneshot, oneshot_sections) = build_request_sections(&config, &examples, &batch);
            assert_eq!(req, oneshot, "shared sections must not change bytes");
            assert_eq!(sections, oneshot_sections);
            // The hint is exact: the serving model trusts it in place of
            // re-tokenizing the prompt.
            assert_eq!(
                req.prompt_tokens_hint,
                Some(dprep_text::count_tokens(&req.full_text())),
                "batch size {k}"
            );
        }
        // Without few-shot examples (and without reasoning) too.
        let plain = PromptContext::new(&PromptConfig::zero_shot_task_only(Task::Imputation), &[]);
        let (req, _) = plain.build(&[&inst]);
        assert_eq!(
            req.prompt_tokens_hint,
            Some(dprep_text::count_tokens(&req.full_text()))
        );
        assert_eq!(req.messages.len(), 2);
    }

    #[test]
    #[should_panic(expected = "no instances")]
    fn empty_batch_panics() {
        build_request(&PromptConfig::best(Task::Imputation), &[], &[]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn task_mismatch_panics() {
        let inst = di_instance(true);
        build_request(&PromptConfig::best(Task::EntityMatching), &[], &[&inst]);
    }
}
