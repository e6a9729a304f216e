//! `dprep` — command-line data preprocessing over CSV files with the
//! simulated-LLM framework.
//!
//! ```text
//! dprep detect --input dirty.csv [--attrs age,city] [--model sim-gpt-4] [--facts facts.tsv]
//! dprep impute --input gaps.csv --attribute city [--facts facts.tsv]
//! dprep match  --left a.csv --right b.csv [--blocker ngram|embedding|none]
//! dprep datasets
//! ```
//!
//! World knowledge is supplied as a tab-separated facts file (see
//! [`dprep_cli::facts`]); without one the model falls back to generic
//! heuristics. The commands themselves live in the `dprep_cli` library;
//! this binary dispatches argv to them and prints the usage text.

use std::io::Write;
use std::process::ExitCode;

use dprep_cli::{args, commands};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // `report` takes positional file arguments, which the shared flag
    // parser rejects, so it dispatches on the raw argv.
    if command == "report" {
        return match commands::report::run(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match args::parse_flags(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "detect" => commands::detect::run(&parsed),
        "clean" => commands::clean::run(&parsed),
        "impute" => commands::impute::run(&parsed),
        "match" => commands::match_cmd::run(&parsed),
        "serve" => commands::serve::run(&parsed),
        "top" => commands::top::run(&parsed),
        "datasets" => commands::datasets::run(&parsed),
        "help" | "--help" | "-h" => commands::write_stdout(|out| writeln!(out, "{}", usage())),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "dprep — LLM-style data preprocessing over CSV files

USAGE:
  dprep detect   --input FILE [--attrs A,B] [--model NAME] [--facts FILE] [--seed N]
                 [--all on|off]
  dprep impute   --input FILE --attribute NAME [--model NAME] [--facts FILE] [--seed N]
  dprep clean    --input FILE [--attrs A,B] [--model NAME] [--facts FILE] [--seed N]
  dprep match    --left FILE --right FILE [--blocker ngram|embedding|none]
                 [--model NAME] [--facts FILE] [--seed N]
  dprep report   FILE [--format text|json|prom]
  dprep report   --diff BEFORE AFTER
  dprep serve    [--host ADDR] [--port N] [--journal-dir DIR] [--seed N]
                 [--tenant-budgets NAME=TOKENS,..] [--default-tenant-budget N]
                 [--plan-shard-size N] [--retries N] [--route A,B]
                 [--escalate-on CLASSES] [--slo SPEC,..] [--recorder DIR]
                 [--max-inflight N] [--max-queued N] [--tenant-inflight N]
                 [--default-deadline SECS] [--max-frame-bytes N]
                 [--frame-timeout SECS] [--idle-timeout SECS]
                 [--write-timeout SECS]
  dprep top      [--host ADDR] [--port N] [--interval SECS] [--once on]
                 [--retry N] [--format text|json]
  dprep datasets [--scale S] [--seed N]   (0 < S <= 10; 1 = the paper's sizes)

DETECT:
  Prints the flagged cells; --all on prints every checked cell.

SERVING (detect/impute/clean/match):
  --workers N      executor threads (default 1; results are identical at any N)
  --retries N      re-ask on incomplete responses up to N times (default 2;
                   0 = off; at most 10)
  --cache on|off   memoize identical requests across the run (default off)
  --plan-shard-size N
                   stream the plan in shards of N batches under bounded
                   memory instead of materializing it up front (default:
                   materialized; results are identical either way)
  --route A,B      serve through a model cascade, cheapest first: every
                   request tries A; responses that trip the escalation
                   policy re-ask B (and so on). Replaces --model. Each
                   route keeps its own retry budget and pricing; the
                   journal, trace, report, and Prometheus series bill
                   per route. Results are identical at any --workers N.
  --escalate-on CLASSES
                   comma list of response classes that escalate (default
                   fault,format,partial; also: garbled = corrupted
                   completions only)

OBSERVABILITY (detect/impute/clean/match):
  --trace FILE     write the request-lifecycle event stream as JSON lines
  --metrics on|off|FILE
                   print the serving-metrics summary after the run (default
                   off), or write the metrics snapshot as JSON to FILE
  --audit on|off   check ledger invariants online; violations fail the command

DURABILITY (detect/impute/clean/match):
  --journal FILE   append every terminal request to a crash-safe JSONL run
                   journal (flushed line-atomically; probed at startup)
  --resume FILE    replay completed requests from a recovered journal and
                   execute only the remainder — bit-identical to an
                   uninterrupted run. A torn final line is truncated with a
                   warning; a journal whose header (plan, model, config,
                   seed) mismatches the current run is rejected up front.
                   Pass the same FILE to both flags to keep extending it.

REPORT:
  Reads a --trace JSONL file or a metrics-snapshot JSON file and renders
  quality, cost breakdown by prompt component, latency quantiles, the
  failure taxonomy, and the span-tree profile. --diff compares two runs.

SERVE:
  Long-running multi-tenant daemon: newline-delimited JSON over TCP, one
  object per line. Ops: ping | submit | stats | metrics | health | drain |
  shutdown. --port is at most 65535 (0 picks a free port).
  drain stops admitting jobs (queued ones shed), halts every job in
  flight at its next shard boundary (a journaled one resumes from there
  when resubmitted), and closes the daemon once they settle.
  Each submit names a dataset workload (scale in (0, 10],
  default 0.5) plus a tenant; concurrent
  jobs interleave fairly at plan-shard granularity through a round-robin
  turnstile that runs them side by side while their workers fit the
  machine's cores (gating never changes results — each job stays
  bit-identical to its one-shot run) and bill against per-tenant token
  budgets. With
  --journal-dir, a submit carrying journal_key is journaled per job and
  resumable after a crash with exactly-once billing. stats returns the
  tenant ledger; metrics returns Prometheus text with a tenant label
  ({\"op\":\"metrics\",\"format\":\"raw\"} returns the scrape body verbatim
  for real scrapers). A submit may override the daemon's --seed,
  --retries, --plan-shard-size, --route and --escalate-on with seed,
  retries, plan_shard_size, route and escalate_on fields, checked as the
  flags are; scenario names a fault preset for the job.
  Submit fields and their JSON types:
    dataset (string, required), tenant (string, default \"default\"),
    scale (number), seed, workers, token_budget, retries,
    plan_shard_size (whole numbers below 2^53), deadline_secs,
    deadline_ms (numbers), route, escalate_on, scenario, journal_key
    (strings).
  A field of the wrong type, null included, is refused with an error
  naming it, before the job runs. Every job
  also feeds the live ops plane: per-tenant sliding windows over the
  deterministic virtual clock, and — with
  --slo latency-p95=SECS,failure-rate=FRAC,budget-headroom=FRAC —
  multi-window burn-rate alerting (ok -> warning -> paging) surfaced by
  the health op, in run reports, and as slo_transition trace events.
  --recorder DIR keeps a flight-recorder ring of recent events and dumps
  a postmortem JSONL there whenever an alert pages.
  Overload protection (every cap off by default): --max-inflight N bounds
  concurrent jobs, --max-queued N adds a bounded wait queue (without it
  excess jobs shed at once), --tenant-inflight N caps one tenant's
  concurrency, and --default-deadline SECS applies a deadline to jobs
  that set none. A shed submit replies rejected (overloaded, with a
  retry_after hint; deadline; or draining) and bills nothing. Wire limits:
  --max-frame-bytes N caps one request line, --frame-timeout SECS bounds
  reading a started line, --idle-timeout SECS closes a silent
  connection, --write-timeout SECS bounds writing a reply; each timeout
  is at most 31536000 seconds (365 days).

TOP:
  Live per-tenant table against a running daemon's health op: windowed
  request/token rates, windowed error rate and p95 latency, budget
  headroom, active jobs, and SLO alert states. --once prints a single
  snapshot; --format json emits the raw health reply. A failed poll
  retries with capped exponential backoff, giving up after --retry N
  consecutive failures (default 5).

MODELS: sim-gpt-4 (default), sim-gpt-3.5, sim-gpt-3, sim-vicuna-13b

FACTS FILE (tab-separated, one fact per line):
  lexicon<TAB>DOMAIN<TAB>VALUE        legal value of a domain/attribute
  range<TAB>ATTR<TAB>MIN<TAB>MAX      plausible numeric range
  areacode<TAB>PREFIX<TAB>CITY        phone prefix -> city
  cue<TAB>ATTR<TAB>TOKEN<TAB>VALUE    token implies attribute value
  brand<TAB>TOKEN<TAB>MAKER           product token -> manufacturer
  synonym<TAB>NAME_A<TAB>NAME_B       schema-attribute synonyms
  alias<TAB>CANONICAL<TAB>VARIANT     spelling/abbreviation variants"
}
