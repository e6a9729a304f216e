//! `dprep impute` — fill missing cells of one attribute and emit the
//! completed CSV on stdout.

use std::io::Write;

use dprep_core::{PipelineConfig, Preprocessor};
use dprep_prompt::{Task, TaskInstance};
use dprep_tabular::{csv::write_csv, Table, Value};

use crate::args::Flags;
use crate::commands::{
    load_table, print_metrics, print_usage_footer, serving_setup, write_stdout, ServingSetup,
};

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), String> {
    let table = load_table(flags.require("input")?)?;
    let attribute = flags.require("attribute")?.to_string();
    let Some(attr_idx) = table.schema().index_of(&attribute) else {
        return Err(format!(
            "attribute {attribute:?} not in the table (has: {})",
            table.schema().names().join(", ")
        ));
    };
    let mut config = PipelineConfig::best(Task::Imputation);
    let ServingSetup {
        serving,
        obs,
        durability,
        model,
    } = serving_setup(flags, &mut [&mut config])?;

    let mut instances = Vec::new();
    let mut rows_to_fill = Vec::new();
    for (row_idx, row) in table.rows().iter().enumerate() {
        if row.get(attr_idx).map(Value::is_missing).unwrap_or(false) {
            instances.push(TaskInstance::Imputation {
                record: row.clone(),
                attribute: attribute.clone(),
            });
            rows_to_fill.push(row_idx);
        }
    }
    if instances.is_empty() {
        eprintln!("nothing to impute: no missing {attribute:?} cells");
        write_stdout(|out| out.write_all(write_csv(&table).as_bytes()))?;
        return obs.finish();
    }

    let preprocessor = Preprocessor::new(&model, config)
        .with_durability(durability)
        .with_tracer(obs.tracer());
    let result = preprocessor.try_run(&instances, &[])?;

    // Rebuild the table with imputed values.
    let mut rows: Vec<_> = table.rows().to_vec();
    let mut filled = 0usize;
    for (&row_idx, prediction) in rows_to_fill.iter().zip(&result.predictions) {
        if let Some(value) = prediction.value() {
            rows[row_idx]
                .set(attr_idx, Value::text(value))
                .map_err(|e| e.to_string())?;
            filled += 1;
        }
    }
    let completed = Table::from_records(std::sync::Arc::clone(table.schema()), rows)
        .map_err(|e| e.to_string())?;
    write_stdout(|out| out.write_all(write_csv(&completed).as_bytes()))?;
    eprintln!("imputed {filled} of {} missing cells", instances.len());
    print_usage_footer(&result.usage, Some(&result.stats));
    print_metrics(&serving, &result.metrics)?;
    obs.finish()
}
