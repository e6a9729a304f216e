//! `dprep match` — full entity matching between two CSV files: blocking
//! (§2.1) then pairwise LLM matching.

use std::io::Write;

use dprep_core::blocking::{EmbeddingBlocker, NgramBlocker};
use dprep_core::{PipelineConfig, Preprocessor};
use dprep_prompt::{Task, TaskInstance};

use crate::args::Flags;
use crate::commands::{
    load_table, print_metrics, print_usage_footer, serving_setup, write_stdout, ServingSetup,
};

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), String> {
    let left = load_table(flags.require("left")?)?;
    let right = load_table(flags.require("right")?)?;
    let mut config = PipelineConfig::best(Task::EntityMatching);
    let ServingSetup {
        serving,
        obs,
        durability,
        model,
    } = serving_setup(flags, &mut [&mut config])?;

    // ── blocking ─────────────────────────────────────────────────────────
    let blocker = flags.get("blocker").unwrap_or("ngram");
    let candidates: Vec<(usize, usize)> = match blocker {
        "ngram" => {
            NgramBlocker::default()
                .block(left.rows(), right.rows())
                .pairs
        }
        "embedding" => {
            EmbeddingBlocker::default()
                .block(left.rows(), right.rows())
                .pairs
        }
        "none" => {
            let mut all = Vec::with_capacity(left.len() * right.len());
            for i in 0..left.len() {
                for j in 0..right.len() {
                    all.push((i, j));
                }
            }
            all
        }
        other => return Err(format!("unknown blocker {other:?} (ngram|embedding|none)")),
    };
    eprintln!(
        "blocking ({blocker}): {} candidate pairs of {} possible",
        candidates.len(),
        left.len() * right.len()
    );
    if candidates.is_empty() {
        eprintln!("no candidates survived blocking");
        return obs.finish();
    }

    // ── pairwise matching ────────────────────────────────────────────────
    let instances: Vec<TaskInstance> = candidates
        .iter()
        .map(|&(i, j)| TaskInstance::EntityMatching {
            a: left.rows()[i].clone(),
            b: right.rows()[j].clone(),
        })
        .collect();
    let preprocessor = Preprocessor::new(&model, config)
        .with_durability(durability)
        .with_tracer(obs.tracer());
    let result = preprocessor.try_run(&instances, &[])?;

    let mut matches = 0usize;
    write_stdout(|out| {
        writeln!(out, "left\tright\tleft_record\tright_record")?;
        for (&(i, j), prediction) in candidates.iter().zip(&result.predictions) {
            if prediction.as_yes_no() == Some(true) {
                matches += 1;
                writeln!(
                    out,
                    "{i}\t{j}\t{}\t{}",
                    dprep_tabular::context::contextualize(&left.rows()[i]),
                    dprep_tabular::context::contextualize(&right.rows()[j]),
                )?;
            }
        }
        Ok(())
    })?;
    eprintln!(
        "{matches} matching pair(s) of {} candidates",
        candidates.len()
    );
    print_usage_footer(&result.usage, Some(&result.stats));
    print_metrics(&serving, &result.metrics)?;
    obs.finish()
}
