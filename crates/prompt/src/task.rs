//! Task definitions and data instances.
//!
//! The paper (§2.1) defines four tasks over relational data, each handling
//! one record — or one pair — at a time so a prompt is easy to write.

use dprep_tabular::context::{contextualize_into, contextualize_selected_into};
use dprep_tabular::Record;

/// The four data-preprocessing tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Error detection: is cell `r_j` erroneous?
    ErrorDetection,
    /// Data imputation: infer the missing value of cell `r_j`.
    Imputation,
    /// Schema matching: do attributes `j` and `j'` refer to the same thing?
    SchemaMatching,
    /// Entity matching: do records `r` and `r'` refer to the same entity?
    EntityMatching,
}

impl Task {
    /// Short lowercase identifier (used in reports and file names).
    pub fn id(&self) -> &'static str {
        match self {
            Task::ErrorDetection => "ed",
            Task::Imputation => "di",
            Task::SchemaMatching => "sm",
            Task::EntityMatching => "em",
        }
    }

    /// Human-readable task name.
    pub fn name(&self) -> &'static str {
        match self {
            Task::ErrorDetection => "error detection",
            Task::Imputation => "data imputation",
            Task::SchemaMatching => "schema matching",
            Task::EntityMatching => "entity matching",
        }
    }
}

/// An attribute presented to schema matching as `(name, description)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrSpec {
    /// Attribute name.
    pub name: String,
    /// Human-readable description.
    pub description: String,
}

impl AttrSpec {
    /// Builds an attribute spec.
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        AttrSpec {
            name: name.into(),
            description: description.into(),
        }
    }

    /// Appends the contextualized form, `[name: "...", description:
    /// "..."]` (§3.3), to `out`.
    pub fn contextualize_into(&self, out: &mut String) {
        contextualize_into(
            out,
            [
                ("name", self.name.as_str()),
                ("description", self.description.as_str()),
            ],
        );
    }
}

/// One data instance for one task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskInstance {
    /// A record and the attribute to check for an error.
    ErrorDetection {
        /// The full record.
        record: Record,
        /// Name of the attribute under test.
        attribute: String,
    },
    /// A record with a missing cell to impute.
    Imputation {
        /// The record; the target cell should be
        /// [`Value::Missing`](dprep_tabular::Value::Missing).
        record: Record,
        /// Name of the attribute to impute.
        attribute: String,
    },
    /// A pair of attributes to match.
    SchemaMatching {
        /// First attribute.
        a: AttrSpec,
        /// Second attribute.
        b: AttrSpec,
    },
    /// A pair of records to match.
    EntityMatching {
        /// First record.
        a: Record,
        /// Second record.
        b: Record,
    },
}

impl TaskInstance {
    /// The task this instance belongs to.
    pub fn task(&self) -> Task {
        match self {
            TaskInstance::ErrorDetection { .. } => Task::ErrorDetection,
            TaskInstance::Imputation { .. } => Task::Imputation,
            TaskInstance::SchemaMatching { .. } => Task::SchemaMatching,
            TaskInstance::EntityMatching { .. } => Task::EntityMatching,
        }
    }

    /// Renders the question body for this instance (without the
    /// `Question N:` numbering), applying feature selection when
    /// `feature_indices` is given (§3.4). For ED/DI the target attribute is
    /// always kept even if not selected.
    pub fn question_text(&self, feature_indices: Option<&[usize]>) -> String {
        let mut out = String::new();
        self.write_question(&mut out, feature_indices);
        out
    }

    /// Appends the [question body](TaskInstance::question_text) to `out`,
    /// writing each record straight into it: no per-question string.
    pub fn write_question(&self, out: &mut String, feature_indices: Option<&[usize]>) {
        match self {
            TaskInstance::ErrorDetection { record, attribute } => {
                out.push_str("Record is ");
                write_record(out, record, feature_indices, Some(attribute));
                out.push_str(". Is there an error in the \"");
                out.push_str(attribute);
                out.push_str("\" attribute?");
            }
            TaskInstance::Imputation { record, attribute } => {
                out.push_str("Record is ");
                write_record(out, record, feature_indices, Some(attribute));
                out.push_str(". What is the value of the \"");
                out.push_str(attribute);
                out.push_str("\" attribute?");
            }
            TaskInstance::SchemaMatching { a, b } => {
                out.push_str("Attribute A is ");
                a.contextualize_into(out);
                out.push_str(". Attribute B is ");
                b.contextualize_into(out);
                out.push_str(". Do they refer to the same attribute?");
            }
            TaskInstance::EntityMatching { a, b } => {
                out.push_str("Record A is ");
                write_record(out, a, feature_indices, None);
                out.push_str(". Record B is ");
                write_record(out, b, feature_indices, None);
                out.push_str(". Do they refer to the same entity?");
            }
        }
    }

    /// All instance text concatenated — the string embedded for cluster
    /// batching.
    pub fn flat_text(&self) -> String {
        match self {
            TaskInstance::ErrorDetection { record, .. }
            | TaskInstance::Imputation { record, .. } => flat_record(record),
            TaskInstance::SchemaMatching { a, b } => {
                format!("{} {} {} {}", a.name, a.description, b.name, b.description)
            }
            TaskInstance::EntityMatching { a, b } => {
                format!("{} {}", flat_record(a), flat_record(b))
            }
        }
    }
}

fn flat_record(record: &Record) -> String {
    let mut out = String::new();
    for v in record.values() {
        if !v.is_missing() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&v.to_string());
        }
    }
    out
}

/// Appends `record`'s contextualization: every attribute, or under feature
/// selection the selected ones followed by `keep_attribute` when the
/// selection left it out.
fn write_record(
    out: &mut String,
    record: &Record,
    feature_indices: Option<&[usize]>,
    keep_attribute: Option<&str>,
) {
    let Some(indices) = feature_indices else {
        return contextualize_into(out, record.named_values());
    };
    let kept = keep_attribute
        .and_then(|keep| record.schema().index_of(keep))
        .filter(|target| !indices.contains(target));
    contextualize_selected_into(out, record, indices.iter().copied().chain(kept));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprep_rng::Rng;
    use dprep_tabular::{Schema, Value};
    use std::sync::Arc;

    fn restaurant() -> Record {
        let schema = Schema::all_text(&["name", "phone", "type", "city"])
            .unwrap()
            .shared();
        Record::new(
            schema,
            vec![
                Value::text("carey's corner"),
                Value::text("770-933-0909"),
                Value::text("hamburgers"),
                Value::Missing,
            ],
        )
        .unwrap()
    }

    #[test]
    fn di_question_names_the_target() {
        let inst = TaskInstance::Imputation {
            record: restaurant(),
            attribute: "city".into(),
        };
        let q = inst.question_text(None);
        assert!(q.contains("What is the value of the \"city\" attribute?"));
        assert!(q.contains("city: ???"));
        assert_eq!(inst.task(), Task::Imputation);
    }

    #[test]
    fn feature_selection_keeps_target() {
        let inst = TaskInstance::Imputation {
            record: restaurant(),
            attribute: "city".into(),
        };
        // Select only phone (index 1); target city (index 3) must survive.
        let q = inst.question_text(Some(&[1]));
        assert!(q.contains("phone"));
        assert!(q.contains("city: ???"));
        assert!(!q.contains("hamburgers"));
    }

    #[test]
    fn em_question_has_two_records() {
        let inst = TaskInstance::EntityMatching {
            a: restaurant(),
            b: restaurant(),
        };
        let q = inst.question_text(None);
        assert!(q.contains("Record A is ["));
        assert!(q.contains("Record B is ["));
        assert!(q.contains("same entity"));
    }

    #[test]
    fn sm_question_contextualizes_attr_specs() {
        let inst = TaskInstance::SchemaMatching {
            a: AttrSpec::new("zip", "postal code of address"),
            b: AttrSpec::new("postcode", "zip code"),
        };
        let q = inst.question_text(None);
        assert!(q.contains("[name: \"zip\", description: \"postal code of address\"]"));
        assert!(q.contains("same attribute"));
    }

    #[test]
    fn flat_text_skips_missing_cells() {
        let inst = TaskInstance::ErrorDetection {
            record: restaurant(),
            attribute: "phone".into(),
        };
        let flat = inst.flat_text();
        assert!(flat.contains("carey's corner"));
        assert!(!flat.contains("???"));
    }

    /// The render as it read before records were written in place: each
    /// selected value cloned, formatted by `to_string`, escaped char by
    /// char, and each question assembled by `format!`. The reference the
    /// in-place writer must match byte for byte.
    fn cloned_question_text(instance: &TaskInstance, feature_indices: Option<&[usize]>) -> String {
        fn pairs(pairs: Vec<(&str, Value)>) -> String {
            let mut out = String::from("[");
            for (i, (name, value)) in pairs.into_iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(name);
                out.push_str(": ");
                if value.is_missing() {
                    out.push_str("???");
                } else {
                    out.push('"');
                    for c in value.to_string().chars() {
                        if matches!(c, '"' | '\\') {
                            out.push('\\');
                        }
                        out.push(c);
                    }
                    out.push('"');
                }
            }
            out.push(']');
            out
        }
        fn record_text(record: &Record, indices: Option<&[usize]>, keep: Option<&str>) -> String {
            let Some(indices) = indices else {
                return pairs(record.named_values().map(|(n, v)| (n, v.clone())).collect());
            };
            let mut indices = indices.to_vec();
            if let Some(target) = keep.and_then(|k| record.schema().index_of(k)) {
                if !indices.contains(&target) {
                    indices.push(target);
                }
            }
            indices.retain(|&i| i < record.schema().len());
            let schema = record.schema();
            pairs(
                indices
                    .iter()
                    .filter_map(|&i| {
                        Some((schema.attribute(i)?.name.as_str(), record.get(i)?.clone()))
                    })
                    .collect(),
            )
        }
        let spec = |a: &AttrSpec| {
            pairs(vec![
                ("name", Value::text(a.name.clone())),
                ("description", Value::text(a.description.clone())),
            ])
        };
        match instance {
            TaskInstance::ErrorDetection { record, attribute } => format!(
                "Record is {}. Is there an error in the \"{attribute}\" attribute?",
                record_text(record, feature_indices, Some(attribute))
            ),
            TaskInstance::Imputation { record, attribute } => format!(
                "Record is {}. What is the value of the \"{attribute}\" attribute?",
                record_text(record, feature_indices, Some(attribute))
            ),
            TaskInstance::SchemaMatching { a, b } => format!(
                "Attribute A is {}. Attribute B is {}. Do they refer to the same attribute?",
                spec(a),
                spec(b)
            ),
            TaskInstance::EntityMatching { a, b } => format!(
                "Record A is {}. Record B is {}. Do they refer to the same entity?",
                record_text(a, feature_indices, None),
                record_text(b, feature_indices, None)
            ),
        }
    }

    #[test]
    fn in_place_render_matches_the_cloned_render() {
        const TEXT: &[&str] = &[
            "",
            "plain",
            "o\"brien",
            "back\\slash",
            "\\\"",
            "\\é",
            "münchen",
            "東京",
            "tab\u{b}vt",
            "\u{0}",
            "???",
            "a, b: [c]",
            "İstanbul",
        ];
        let mut rng = Rng::seed_from_u64(0x7e_4de2);
        let schema = Schema::all_text(&["name", "age", "city", "state", "notes"])
            .unwrap()
            .shared();
        let value = |rng: &mut Rng| match rng.range_usize(0, 7) {
            0 => Value::Missing,
            1 => Value::Int(rng.next_u64() as i64 >> rng.range_usize(0, 64)),
            2 => Value::Float(
                *rng.choose(&[
                    0.0,
                    -0.0,
                    4.0,
                    2.5,
                    1e15,
                    1e20,
                    -3e-9,
                    f64::NAN,
                    f64::INFINITY,
                ])
                .expect("nonempty"),
            ),
            3 => Value::Bool(rng.bool(0.5)),
            _ => Value::text(
                (0..rng.range_incl(1usize, 3))
                    .map(|_| *rng.choose(TEXT).expect("nonempty"))
                    .collect::<String>(),
            ),
        };
        let record = |rng: &mut Rng| {
            Record::new(Arc::clone(&schema), (0..5).map(|_| value(rng)).collect()).unwrap()
        };
        let selections: [Option<&[usize]>; 5] = [
            None,
            Some(&[]),
            Some(&[2, 0]),
            Some(&[4, 9, 1, 1]),
            Some(&[0, 1, 2, 3, 4]),
        ];
        for _ in 0..300 {
            let attribute = ["name", "age", "city", "state", "notes", "absent"]
                [rng.range_usize(0, 6)]
            .to_string();
            let text = |rng: &mut Rng| (*rng.choose(TEXT).expect("nonempty")).to_string();
            let instances = [
                TaskInstance::ErrorDetection {
                    record: record(&mut rng),
                    attribute: attribute.clone(),
                },
                TaskInstance::Imputation {
                    record: record(&mut rng),
                    attribute,
                },
                TaskInstance::SchemaMatching {
                    a: AttrSpec::new(text(&mut rng), text(&mut rng)),
                    b: AttrSpec::new(text(&mut rng), text(&mut rng)),
                },
                TaskInstance::EntityMatching {
                    a: record(&mut rng),
                    b: record(&mut rng),
                },
            ];
            for instance in &instances {
                for selection in selections {
                    let want = cloned_question_text(instance, selection);
                    assert_eq!(instance.question_text(selection), want);
                    let mut appended = String::from("Question 7: ");
                    instance.write_question(&mut appended, selection);
                    assert_eq!(appended, format!("Question 7: {want}"));
                }
            }
        }
    }

    #[test]
    fn task_ids_are_stable() {
        assert_eq!(Task::ErrorDetection.id(), "ed");
        assert_eq!(Task::EntityMatching.name(), "entity matching");
    }
}
