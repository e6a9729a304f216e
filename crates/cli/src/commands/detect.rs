//! `dprep detect` — cell-level error detection over a CSV file.

use std::fmt::Display;
use std::io::Write;

use dprep_core::{PipelineConfig, Preprocessor};
use dprep_prompt::{Task, TaskInstance};

use crate::args::Flags;
use crate::commands::{
    attrs_for, load_table, print_metrics, print_usage_footer, serving_setup, write_stdout,
    ServingSetup,
};

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), String> {
    let table = load_table(flags.require("input")?)?;
    let attrs = attrs_for(flags, &table)?;
    let mut config = PipelineConfig::best(Task::ErrorDetection);
    let ServingSetup {
        serving,
        obs,
        durability,
        model,
    } = serving_setup(flags, &mut [&mut config])?;

    // Per checked cell: its row and the index of its attribute in `attrs`.
    let mut instances = Vec::new();
    let mut cells = Vec::new();
    for (row_idx, row) in table.rows().iter().enumerate() {
        for (attr_idx, attr) in attrs.iter().enumerate() {
            if row
                .get_by_name(attr)
                .map(|v| v.is_missing())
                .unwrap_or(true)
            {
                continue;
            }
            instances.push(TaskInstance::ErrorDetection {
                record: row.clone(),
                attribute: attr.clone(),
            });
            cells.push((row_idx, attr_idx));
        }
    }
    if instances.is_empty() {
        return Err("no checkable cells (everything missing?)".into());
    }

    let preprocessor = Preprocessor::new(&model, config)
        .with_durability(durability)
        .with_tracer(obs.tracer());
    let result = preprocessor.try_run(&instances, &[])?;

    let all = flags.get("all").is_some();
    let mut flagged = 0usize;
    write_stdout(|out| {
        writeln!(out, "row\tattribute\tvalue\tverdict\treason")?;
        for (&(row_idx, attr_idx), prediction) in cells.iter().zip(&result.predictions) {
            let verdict = prediction.as_yes_no();
            if verdict == Some(true) {
                flagged += 1;
            }
            // Print errors always; clean cells only with --all true.
            if verdict == Some(true) || all {
                let attr = &attrs[attr_idx];
                let cell = table.row(row_idx).and_then(|r| r.get_by_name(attr));
                let value: &dyn Display = match cell {
                    Some(value) => value,
                    None => &"",
                };
                let reason = prediction
                    .answer()
                    .and_then(|a| a.reason.as_deref())
                    .unwrap_or_default();
                let label = match (verdict, prediction.failure()) {
                    (Some(true), _) => "error",
                    (Some(false), _) => "ok",
                    (None, Some(kind)) => kind.label(),
                    (None, None) => "unparsed",
                };
                writeln!(out, "{row_idx}\t{attr}\t{value}\t{label}\t{reason}")?;
            }
        }
        Ok(())
    })?;
    eprintln!("{flagged} of {} cells flagged", instances.len());
    print_usage_footer(&result.usage, Some(&result.stats));
    print_metrics(&serving, &result.metrics)?;
    obs.finish()
}
