//! `dprep clean` — detect-then-repair: flag suspicious cells and re-impute
//! them, emitting the repaired CSV on stdout and the audit trail on stderr.

use std::io::Write;

use dprep_core::{PipelineConfig, Repairer};
use dprep_prompt::Task;
use dprep_tabular::csv::write_csv;

use crate::args::Flags;
use crate::commands::{
    attrs_for, load_table, print_metrics, print_usage_footer, serving_setup, write_stdout,
    ServingSetup,
};

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), String> {
    let table = load_table(flags.require("input")?)?;
    let attrs = attrs_for(flags, &table)?;
    let mut detect_config = PipelineConfig::best(Task::ErrorDetection);
    let mut impute_config = PipelineConfig::best(Task::Imputation);
    // One journal covers both passes; its config identity is the pair of
    // pass descriptors (the header's plan fingerprint binds the detect
    // pass — the impute plan derives deterministically from its results).
    let ServingSetup {
        serving,
        obs,
        durability,
        model,
    } = serving_setup(flags, &mut [&mut detect_config, &mut impute_config])?;

    let repairer = Repairer::new(&model)
        .with_detect_config(detect_config)
        .with_impute_config(impute_config)
        .with_durability(durability)
        .with_tracer(obs.tracer());
    let outcome = repairer.try_repair(&table, &attrs, &[], &[])?;

    write_stdout(|out| out.write_all(write_csv(&outcome.table).as_bytes()))?;
    for repair in &outcome.repairs {
        eprintln!(
            "row {}, {}: {:?} -> {}",
            repair.row,
            repair.attribute,
            repair.original.to_string(),
            repair
                .replacement
                .as_deref()
                .unwrap_or("(masked: imputation unparseable)"),
        );
        if let Some(reason) = &repair.detection_reason {
            eprintln!("  {reason}");
        }
    }
    eprintln!("{} repair(s) applied", outcome.repairs.len());
    print_usage_footer(&outcome.usage, Some(&outcome.stats));
    print_metrics(&serving, &outcome.metrics)?;
    obs.finish()
}
