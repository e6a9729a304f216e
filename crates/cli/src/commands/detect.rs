//! `dprep detect` — cell-level error detection over a CSV file.
//!
//! The command asks one question per checked cell, yet holds no question
//! per cell: [`Cells`] reads each cell's question from the table when a
//! batch renders it, and [`Verdicts`] keeps one byte per cell, plus the
//! reasons of the cells the command prints.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Write;

use dprep_core::{FailureKind, PipelineConfig, PredictionSink, Preprocessor};
use dprep_prompt::{ExtractedAnswer, InstanceSource, Task, TaskInstance};
use dprep_tabular::{Record, Table};

use crate::args::Flags;
use crate::commands::{
    attrs_for, load_table, print_metrics, print_usage_footer, serving_setup, write_stdout,
    ServingSetup,
};

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), String> {
    let all = flags.bool_or("all", false)?;
    let table = load_table(flags.require("input")?)?;
    let attrs = attrs_for(flags, &table)?;
    let mut config = PipelineConfig::best(Task::ErrorDetection);
    let ServingSetup {
        serving,
        obs,
        durability,
        model,
    } = serving_setup(flags, &mut [&mut config])?;

    let cells = Cells::new(&table, &attrs)?;
    let preprocessor = Preprocessor::new(&model, config)
        .with_durability(durability)
        .with_tracer(obs.tracer());
    let result = preprocessor.try_run_into(&cells, Verdicts::new(cells.len(), all), &[])?;
    let verdicts = &result.predictions;

    let mut flagged = 0usize;
    write_stdout(|out| {
        writeln!(out, "row\tattribute\tvalue\tverdict\treason")?;
        for (i, (row_idx, attr_idx)) in cells.iter().enumerate() {
            let verdict = verdicts.verdict(i);
            if verdict == Verdict::Error {
                flagged += 1;
            }
            // Print errors always; clean cells only with --all on.
            if verdict == Verdict::Error || all {
                let attr = &attrs[attr_idx];
                let value = cells.value(row_idx, attr_idx);
                let reason = verdicts.reason(i);
                let label = verdict.label();
                writeln!(out, "{row_idx}\t{attr}\t{value}\t{label}\t{reason}")?;
            }
        }
        Ok(())
    })?;
    eprintln!("{flagged} of {} cells flagged", cells.len());
    print_usage_footer(&result.usage, Some(&result.stats));
    print_metrics(&serving, &result.metrics)?;
    obs.finish()
}

/// The cells `dprep detect` checks, as an [`InstanceSource`]: every
/// non-missing cell of the checked attributes, row by row, and within a
/// row in the attributes' order.
///
/// It holds a count per row, 4 bytes, and no instance: cell `i` is found
/// from the counts and built as an error-detection question over its row
/// when a batch that holds it is rendered, then dropped with the batch.
#[derive(Debug)]
pub struct Cells<'t> {
    table: &'t Table,
    attrs: &'t [String],
    /// The schema index of each checked attribute.
    columns: Vec<usize>,
    /// Per row, how many cells the rows before it hold; one more entry at
    /// the end holds the total.
    starts: Vec<u32>,
}

impl<'t> Cells<'t> {
    /// The non-missing cells of `attrs` in `table`. Refuses an attribute
    /// the table lacks, and a table with no such cell.
    pub fn new(table: &'t Table, attrs: &'t [String]) -> Result<Cells<'t>, String> {
        let columns = attrs
            .iter()
            .map(|attr| {
                table
                    .schema()
                    .index_of(attr)
                    .ok_or_else(|| format!("attribute {attr:?} not in the table"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut starts = Vec::with_capacity(table.len() + 1);
        let mut total = 0u32;
        for record in table.rows() {
            starts.push(total);
            let checked = columns.iter().filter(|&&c| checked(record, c)).count();
            total = u32::try_from(checked)
                .ok()
                .and_then(|checked| total.checked_add(checked))
                .ok_or("the table has more cells than one run can check")?;
        }
        starts.push(total);
        if total == 0 {
            return Err("no checkable cells (everything missing?)".into());
        }
        Ok(Cells {
            table,
            attrs,
            columns,
            starts,
        })
    }

    /// Every cell, in order: its row and the index of its attribute in
    /// the checked attributes.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.table
            .rows()
            .iter()
            .enumerate()
            .flat_map(move |(row, record)| {
                self.columns
                    .iter()
                    .enumerate()
                    .filter(move |&(_, &c)| checked(record, c))
                    .map(move |(attr, _)| (row, attr))
            })
    }

    /// Cell `i`'s row and the index of its attribute.
    fn cell(&self, i: usize) -> (usize, usize) {
        let i = u32::try_from(i).expect("a cell index below the total");
        let row = self.starts.partition_point(|&start| start <= i) - 1;
        let record = &self.table.rows()[row];
        let nth = (i - self.starts[row]) as usize;
        let (attr, _) = self
            .columns
            .iter()
            .enumerate()
            .filter(|&(_, &c)| checked(record, c))
            .nth(nth)
            .expect("a row holds the cells its count says");
        (row, attr)
    }

    /// The value of the cell at `row` and checked attribute `attr`.
    pub fn value(&self, row: usize, attr: usize) -> &dprep_tabular::Value {
        &self.table.rows()[row].values()[self.columns[attr]]
    }
}

impl InstanceSource for Cells<'_> {
    fn len(&self) -> usize {
        self.starts.last().map_or(0, |&total| total as usize)
    }

    fn instance(&self, i: usize) -> Cow<'_, TaskInstance> {
        let (row, attr) = self.cell(i);
        Cow::Owned(TaskInstance::ErrorDetection {
            record: self.table.rows()[row].clone(),
            attribute: self.attrs[attr].clone(),
        })
    }
}

/// Whether `record`'s cell at schema index `column` is checked: it is
/// there and not missing.
fn checked(record: &Record, column: usize) -> bool {
    record.get(column).is_some_and(|value| !value.is_missing())
}

/// One checked cell's outcome, in one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The model answered yes: the cell holds an error.
    Error,
    /// The model answered no.
    Ok,
    /// The model answered, neither yes nor no.
    Unparsed,
    /// No answer, and why.
    Failed(FailureKind),
}

const _: () = assert!(std::mem::size_of::<Verdict>() == 1);

impl Verdict {
    /// The `verdict` column's label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Error => "error",
            Verdict::Ok => "ok",
            Verdict::Unparsed => "unparsed",
            Verdict::Failed(kind) => kind.label(),
        }
    }
}

/// A parsed answer as [`Verdicts`] keeps it: its verdict, and its reason
/// when the cell will be printed.
#[derive(Debug, Clone)]
pub struct KeptAnswer {
    verdict: Verdict,
    reason: Option<Box<str>>,
}

/// `dprep detect`'s [`PredictionSink`]: one [`Verdict`] per cell, and the
/// reason of each cell the command prints — the flagged cells, or every
/// cell under `--all on`.
#[derive(Debug)]
pub struct Verdicts {
    verdicts: Vec<Verdict>,
    /// Whether every cell is printed, so every reason is kept.
    all: bool,
    reasons: HashMap<usize, Box<str>>,
}

impl Verdicts {
    /// `cells` verdicts, each a skipped answer until its outcome arrives;
    /// `all` keeps every reason, not only the flagged cells'.
    pub fn new(cells: usize, all: bool) -> Verdicts {
        Verdicts {
            verdicts: vec![Verdict::Failed(FailureKind::SkippedAnswer); cells],
            all,
            reasons: HashMap::new(),
        }
    }

    /// Cell `i`'s verdict.
    pub fn verdict(&self, i: usize) -> Verdict {
        self.verdicts[i]
    }

    /// Cell `i`'s reason, empty when it has none or it was not kept.
    pub fn reason(&self, i: usize) -> &str {
        self.reasons.get(&i).map_or("", |reason| reason)
    }
}

impl PredictionSink for Verdicts {
    type Answer = KeptAnswer;

    fn shrink(&self, answer: ExtractedAnswer) -> KeptAnswer {
        let verdict = match answer.as_yes_no() {
            Some(true) => Verdict::Error,
            Some(false) => Verdict::Ok,
            None => Verdict::Unparsed,
        };
        let printed = self.all || verdict == Verdict::Error;
        KeptAnswer {
            verdict,
            reason: answer
                .reason
                .filter(|_| printed)
                .map(String::into_boxed_str),
        }
    }

    fn put(&mut self, cell: usize, outcome: Result<KeptAnswer, FailureKind>) {
        self.verdicts[cell] = match outcome {
            Ok(KeptAnswer { verdict, reason }) => {
                if let Some(reason) = reason {
                    self.reasons.insert(cell, reason);
                }
                verdict
            }
            Err(kind) => Verdict::Failed(kind),
        };
    }
}
