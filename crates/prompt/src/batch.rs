//! Batch prompting (§3.5).
//!
//! Batching amortizes the fixed instruction tokens and per-request latency
//! over several data instances. Two modes, as in the paper:
//!
//! * **random batching** — instances are shuffled and chunked,
//! * **cluster batching** — instances are embedded (the Sentence-BERT
//!   substitute from `dprep-embed`), k-means clustered, and chunked within
//!   each cluster, so every batch holds similar questions the model can
//!   answer consistently.

use dprep_embed::{kmeans, HashedNgramEmbedder};
use dprep_rng::Rng;

use crate::source::InstanceSource;

/// How to group instances into batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchStrategy {
    /// Random batching with the given batch size (size 1 = no batching).
    Random {
        /// Instances per prompt.
        batch_size: usize,
    },
    /// Cluster batching: k-means over instance embeddings, then random
    /// batching within each cluster.
    Cluster {
        /// Instances per prompt.
        batch_size: usize,
        /// Number of k-means clusters (clamped to the instance count).
        clusters: usize,
    },
}

impl BatchStrategy {
    /// The batch size of the strategy.
    pub fn batch_size(&self) -> usize {
        match self {
            BatchStrategy::Random { batch_size } | BatchStrategy::Cluster { batch_size, .. } => {
                *batch_size
            }
        }
    }
}

/// Groups instance indices `0..n` into batches per the strategy,
/// deterministic under `seed`. Every index appears in exactly one batch.
/// Random batching reads only the source's length; cluster batching
/// embeds each instance's text, one instance at a time.
pub fn make_batches<S: InstanceSource + ?Sized>(
    instances: &S,
    strategy: &BatchStrategy,
    seed: u64,
) -> Vec<Vec<usize>> {
    let n = instances.len();
    if n == 0 {
        return Vec::new();
    }
    let batch_size = strategy.batch_size().max(1);
    let mut rng = Rng::seed_from_u64(seed);

    let groups: Vec<Vec<usize>> = match strategy {
        BatchStrategy::Random { .. } => {
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            vec![order]
        }
        BatchStrategy::Cluster { clusters, .. } => {
            let embedder = HashedNgramEmbedder::default();
            let vectors: Vec<_> = (0..n)
                .map(|i| embedder.embed(&instances.instance(i).flat_text()))
                .collect();
            let k = (*clusters).clamp(1, n);
            let result = kmeans(&vectors, k, seed);
            let mut groups = result.clusters();
            for g in &mut groups {
                rng.shuffle(g);
            }
            groups.retain(|g| !g.is_empty());
            groups
        }
    };

    let mut batches = Vec::new();
    for group in groups {
        for chunk in group.chunks(batch_size) {
            batches.push(chunk.to_vec());
        }
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskInstance;
    use dprep_tabular::{Record, Schema, Value};

    fn em_instances(texts: &[&str]) -> Vec<TaskInstance> {
        let schema = Schema::all_text(&["title"]).unwrap().shared();
        texts
            .iter()
            .map(|t| {
                let rec = Record::new(schema.clone(), vec![Value::text(t.to_string())]).unwrap();
                TaskInstance::EntityMatching {
                    a: rec.clone(),
                    b: rec,
                }
            })
            .collect()
    }

    #[test]
    fn random_batches_partition_all_indices() {
        let instances = em_instances(&["a", "b", "c", "d", "e", "f", "g"]);
        let batches = make_batches(&instances, &BatchStrategy::Random { batch_size: 3 }, 1);
        let mut all: Vec<usize> = batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(batches.iter().all(|b| b.len() <= 3));
        assert_eq!(batches.len(), 3);
    }

    #[test]
    fn batch_size_one_yields_singletons() {
        let instances = em_instances(&["a", "b"]);
        let batches = make_batches(&instances, &BatchStrategy::Random { batch_size: 1 }, 0);
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn deterministic_under_seed() {
        let instances = em_instances(&["a", "b", "c", "d", "e"]);
        let s = BatchStrategy::Random { batch_size: 2 };
        assert_eq!(
            make_batches(&instances, &s, 7),
            make_batches(&instances, &s, 7)
        );
        // Different seeds usually shuffle differently.
        assert_ne!(
            make_batches(&instances, &s, 1),
            make_batches(&instances, &s, 2)
        );
    }

    #[test]
    fn cluster_batching_groups_similar_instances() {
        // Two lexical families; cluster batching should keep each batch
        // within one family.
        let instances = em_instances(&[
            "apple iphone 12 smartphone black",
            "apple iphone 11 smartphone white",
            "apple iphone 13 smartphone blue",
            "apple iphone se smartphone red",
            "garden hose fifty feet green",
            "garden hose thirty feet black",
            "garden hose expandable nozzle",
            "garden hose heavy duty brass",
        ]);
        let batches = make_batches(
            &instances,
            &BatchStrategy::Cluster {
                batch_size: 4,
                clusters: 2,
            },
            3,
        );
        let mut all: Vec<usize> = batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        for batch in &batches {
            let phones = batch.iter().filter(|&&i| i < 4).count();
            assert!(
                phones == 0 || phones == batch.len(),
                "batch mixes families: {batch:?}"
            );
        }
    }

    #[test]
    fn empty_input_no_batches() {
        let none: &[TaskInstance] = &[];
        assert!(make_batches(none, &BatchStrategy::Random { batch_size: 4 }, 0).is_empty());
    }

    #[test]
    fn zero_batch_size_treated_as_one() {
        let instances = em_instances(&["a", "b"]);
        let batches = make_batches(&instances, &BatchStrategy::Random { batch_size: 0 }, 0);
        assert_eq!(batches.len(), 2);
    }
}
