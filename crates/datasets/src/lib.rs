//! # dprep-datasets
//!
//! Seeded synthetic generators for the 12 benchmark datasets of the paper's
//! evaluation (§4.1, originally from the `fm_data_tasks` collection):
//!
//! | dataset | task | test instances (scale = 1) |
//! |---|---|---|
//! | Adult | error detection | 11 000 cells (1000 rows × 11 attrs) |
//! | Hospital | error detection | 17 102 cells (1006 rows × 17 attrs) |
//! | Buy | data imputation | 65 |
//! | Restaurant | data imputation | 86 |
//! | Synthea | schema matching | 120 pairs |
//! | Amazon-Google | entity matching | 2293 pairs |
//! | Beer | entity matching | 91 pairs |
//! | DBLP-ACM | entity matching | 2473 pairs |
//! | DBLP-Google | entity matching | 5742 pairs |
//! | Fodors-Zagats | entity matching | 189 pairs |
//! | iTunes-Amazon | entity matching | 109 pairs |
//! | Walmart-Amazon | entity matching | 2049 pairs |
//!
//! Every generator emits, deterministically under a seed:
//!
//! * test instances with ground-truth [`Label`]s,
//! * a disjoint few-shot pool with human-plausible reasoning strings
//!   (3 examples for schema matching, 10 for the other tasks — the paper's
//!   counts),
//! * a [`KnowledgeBase`] of the world facts its instances depend on — the
//!   simulated LLM's "pretraining corpus" for this domain.
//!
//! The `scale` parameter shrinks instance counts proportionally (≥ a small
//! floor) so unit tests stay fast; benchmarks use `scale = 1.0`.

pub mod adult;
pub mod amazon_google;
pub mod beer;
pub mod buy;
pub mod common;
pub mod dblp_acm;
pub mod dblp_google;
pub mod fodors_zagats;
pub mod hospital;
pub mod itunes_amazon;
pub mod restaurant;
pub mod stats;
pub mod synthea;
pub mod vocab;

use dprep_llm::KnowledgeBase;
use dprep_prompt::{FewShotExample, Task, TaskInstance};

/// Ground truth for one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Label {
    /// ED ("is there an error"), SM/EM ("do they match").
    YesNo(bool),
    /// DI: the hidden value.
    Value(String),
}

impl Label {
    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Label::YesNo(b) => Some(*b),
            Label::Value(_) => None,
        }
    }

    /// Value view.
    pub fn as_value(&self) -> Option<&str> {
        match self {
            Label::Value(v) => Some(v),
            Label::YesNo(_) => None,
        }
    }
}

/// A generated benchmark dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name as it appears in the paper's tables.
    pub name: &'static str,
    /// The preprocessing task it evaluates.
    pub task: Task,
    /// Test instances.
    pub instances: Vec<TaskInstance>,
    /// Ground truth, parallel to `instances`.
    pub labels: Vec<Label>,
    /// Few-shot pool (disjoint from the test instances).
    pub few_shot: Vec<FewShotExample>,
    /// World facts underlying this dataset.
    pub kb: KnowledgeBase,
    /// DI data-type hint, when the paper's framework would use one.
    pub type_hint: Option<(String, String)>,
    /// Attribute indices a practitioner would select as informative
    /// (drives the feature-selection experiment), when applicable.
    pub informative_features: Option<Vec<usize>>,
}

impl Dataset {
    /// Number of test instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the dataset has no test instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Sanity-checks internal invariants (parallel arrays, label kinds).
    pub fn validate(&self) -> Result<(), String> {
        if self.instances.len() != self.labels.len() {
            return Err(format!(
                "{}: {} instances but {} labels",
                self.name,
                self.instances.len(),
                self.labels.len()
            ));
        }
        for (i, (inst, label)) in self.instances.iter().zip(&self.labels).enumerate() {
            if inst.task() != self.task {
                return Err(format!("{}: instance {i} has the wrong task", self.name));
            }
            let ok = match self.task {
                Task::Imputation => matches!(label, Label::Value(_)),
                _ => matches!(label, Label::YesNo(_)),
            };
            if !ok {
                return Err(format!(
                    "{}: instance {i} has the wrong label kind",
                    self.name
                ));
            }
        }
        for (i, ex) in self.few_shot.iter().enumerate() {
            if ex.instance.task() != self.task {
                return Err(format!("{}: few-shot {i} has the wrong task", self.name));
            }
        }
        Ok(())
    }
}

/// The largest generation scale a user-supplied `scale` may ask for: ten
/// times the paper's instance counts. Far larger scales only exhaust memory
/// (`1e12` asks the allocator for an exabyte).
pub const MAX_SCALE: f64 = 10.0;

/// Checks a user-supplied generation scale before any dataset is built:
/// finite and in `(0, MAX_SCALE]`. The error names the bound.
pub fn check_scale(scale: f64) -> Result<f64, String> {
    if scale.is_finite() && scale > 0.0 && scale <= MAX_SCALE {
        Ok(scale)
    } else {
        Err(format!(
            "scale must be a number in (0, {MAX_SCALE}], got {scale:?}"
        ))
    }
}

/// Scales a paper-size count by `scale`, with a floor so tiny scales still
/// produce usable datasets.
pub(crate) fn scaled(paper_count: usize, scale: f64, floor: usize) -> usize {
    ((paper_count as f64 * scale).round() as usize).max(floor)
}

/// All 12 datasets in the paper's column order.
pub fn all_datasets(scale: f64, seed: u64) -> Vec<Dataset> {
    vec![
        adult::generate(scale, seed),
        hospital::generate(scale, seed),
        buy::generate(scale, seed),
        restaurant::generate(scale, seed),
        synthea::generate(scale, seed),
        amazon_google::generate(scale, seed),
        beer::generate(scale, seed),
        dblp_acm::generate(scale, seed),
        dblp_google::generate(scale, seed),
        fodors_zagats::generate(scale, seed),
        itunes_amazon::generate(scale, seed),
        walmart_amazon::generate(scale, seed),
    ]
}

pub mod walmart_amazon;

/// A dataset by its table name (case-insensitive), or `None`.
pub fn dataset_by_name(name: &str, scale: f64, seed: u64) -> Option<Dataset> {
    let lower = name.to_lowercase();
    let gen: fn(f64, u64) -> Dataset = match lower.as_str() {
        "adult" => adult::generate,
        "hospital" => hospital::generate,
        "buy" => buy::generate,
        "restaurant" => restaurant::generate,
        "synthea" => synthea::generate,
        "amazon-google" | "amazon_google" => amazon_google::generate,
        "beer" => beer::generate,
        "dblp-acm" | "dblp_acm" => dblp_acm::generate,
        "dblp-google" | "dblp_google" => dblp_google::generate,
        "fodors-zagats" | "fodors_zagats" => fodors_zagats::generate,
        "itunes-amazon" | "itunes_amazon" => itunes_amazon::generate,
        "walmart-amazon" | "walmart_amazon" => walmart_amazon::generate,
        _ => return None,
    };
    Some(gen(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_outside_the_bound_are_rejected() {
        for good in [0.02, 0.5, 1.0, MAX_SCALE] {
            assert_eq!(check_scale(good), Ok(good));
        }
        for bad in [0.0, -1.0, 1e12, 1e300, f64::NAN, f64::INFINITY] {
            let err = check_scale(bad).unwrap_err();
            assert!(err.contains("(0, 10]"), "{err}");
        }
    }

    #[test]
    fn all_datasets_validate_at_small_scale() {
        for ds in all_datasets(0.02, 7) {
            ds.validate().unwrap_or_else(|e| panic!("{e}"));
            assert!(!ds.is_empty(), "{} is empty", ds.name);
            assert!(!ds.kb.is_empty(), "{} has no knowledge base", ds.name);
            assert!(!ds.few_shot.is_empty(), "{} has no few-shot pool", ds.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = all_datasets(0.02, 42);
        let b = all_datasets(0.02, 42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.instances, y.instances, "{} not deterministic", x.name);
            assert_eq!(x.labels, y.labels);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = all_datasets(0.02, 1);
        let b = all_datasets(0.02, 2);
        assert!(
            a.iter().zip(&b).any(|(x, y)| x.instances != y.instances),
            "seeds should change generated data"
        );
    }

    #[test]
    fn paper_scale_instance_counts() {
        // Generate at full scale only for the small datasets to keep the
        // test fast; the large ones are checked at reduced scale via ratio.
        let buy = buy::generate(1.0, 0);
        assert_eq!(buy.len(), 65);
        let restaurant = restaurant::generate(1.0, 0);
        assert_eq!(restaurant.len(), 86);
        let beer = beer::generate(1.0, 0);
        assert_eq!(beer.len(), 91);
        let itunes = itunes_amazon::generate(1.0, 0);
        assert_eq!(itunes.len(), 109);
        let synthea = synthea::generate(1.0, 0);
        assert_eq!(synthea.len(), 120);
        let fodors = fodors_zagats::generate(1.0, 0);
        assert_eq!(fodors.len(), 189);
    }

    #[test]
    fn sm_uses_three_shots_others_ten() {
        for ds in all_datasets(0.05, 3) {
            let expected = if ds.task == Task::SchemaMatching {
                3
            } else {
                10
            };
            assert_eq!(ds.few_shot.len(), expected, "{}", ds.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(dataset_by_name("Beer", 0.1, 0).is_some());
        assert!(dataset_by_name("walmart-amazon", 0.05, 0).is_some());
        assert!(dataset_by_name("nope", 1.0, 0).is_none());
    }
}
