//! `dprep datasets` — list the built-in synthetic benchmarks.

use std::io::Write;

use crate::args::Flags;
use crate::commands::write_stdout;

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), String> {
    let scale: f64 = match flags.get("scale") {
        None => 0.1,
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--scale must be a number, got {raw:?}"))?,
    };
    let scale = dprep_datasets::check_scale(scale).map_err(|e| format!("--{e}"))?;
    let datasets = dprep_datasets::all_datasets(scale, flags.seed()?);
    write_stdout(|out| {
        writeln!(
            out,
            "{:<16} {:<18} {:>10} {:>9} {:>7}",
            "dataset", "task", "instances", "few-shot", "facts"
        )?;
        for ds in &datasets {
            writeln!(
                out,
                "{:<16} {:<18} {:>10} {:>9} {:>7}",
                ds.name,
                ds.task.name(),
                ds.len(),
                ds.few_shot.len(),
                ds.kb.len()
            )?;
        }
        Ok(())
    })?;
    eprintln!("(generated at scale {scale}; scale 1.0 = the paper's instance counts)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absurd_scales_are_rejected_before_generation() {
        for raw in ["1e12", "1e300", "0", "-1", "NaN"] {
            let mut flags = Flags::default();
            flags.set("scale", raw);
            let err = run(&flags).unwrap_err();
            assert!(err.starts_with("--scale must be"), "{raw}: {err}");
            assert!(err.contains("(0, 10]"), "{raw}: {err}");
        }
    }
}
