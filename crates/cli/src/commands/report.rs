//! `dprep report` — render a run report from a JSONL trace or a metrics
//! snapshot, or diff two of them.
//!
//! Unlike every other subcommand this one takes positional arguments
//! (`dprep report run.trace`), so it parses its argv directly instead of
//! going through [`crate::args::parse_flags`], which rejects positionals.

use std::io::Write;

use dprep_obs::{ReportFormat, RunReport};

use crate::commands::write_stdout;

/// Runs the command on the raw argv after `report`.
pub fn run(argv: &[String]) -> Result<(), String> {
    let mut inputs: Vec<&str> = Vec::new();
    let mut format = ReportFormat::Text;
    let mut diff = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--format needs a value (text|json|prom)".to_string())?;
                format = ReportFormat::parse(value)?;
            }
            "--diff" => diff = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?} for report"));
            }
            path => inputs.push(path),
        }
    }
    match (diff, inputs.as_slice()) {
        (false, [path]) => {
            let report = load(path)?;
            write_stdout(|out| out.write_all(report.render(format).as_bytes()))
        }
        (true, [a, b]) => {
            let before = load(a)?;
            let after = load(b)?;
            write_stdout(|out| out.write_all(before.render_diff(&after).as_bytes()))
        }
        (false, _) => Err("report needs exactly one input file (or --diff A B)".into()),
        (true, _) => Err("report --diff needs exactly two input files".into()),
    }
}

fn load(path: &str) -> Result<RunReport, String> {
    let contents =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    RunReport::from_contents(&contents).map_err(|e| format!("{path}: {e}"))
}
