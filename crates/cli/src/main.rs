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
        "chaos" => commands::chaos::run(&parsed),
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
  dprep impute   --input FILE --attribute NAME [--model NAME] [--facts FILE] [--seed N]
  dprep clean    --input FILE [--attrs A,B] [--model NAME] [--facts FILE] [--seed N]
  dprep match    --left FILE --right FILE [--blocker ngram|embedding|none]
                 [--model NAME] [--facts FILE] [--seed N]
  dprep report   FILE [--format text|json|prom]
  dprep report   --diff BEFORE AFTER
  dprep chaos    [--scenario NAME] [--workers N] [--retries N] [--seed N]
                 [--soak on]
  dprep serve    [--host ADDR] [--port N] [--journal-dir DIR] [--seed N]
                 [--tenant-budgets NAME=TOKENS,..] [--default-tenant-budget N]
                 [--plan-shard-size N] [--retries N] [--route A,B]
                 [--escalate-on CLASSES] [--slo SPEC,..] [--recorder DIR]
  dprep top      [--host ADDR] [--port N] [--interval SECS] [--once on]
                 [--format text|json]
  dprep datasets [--scale S] [--seed N]   (0 < S <= 10; 1 = the paper's sizes)

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
  object per line, ops ping | submit | stats | metrics | health |
  shutdown. Each submit names a dataset workload (scale in (0, 10],
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
  flags are; scenario names a chaos fault preset for the job. Every job
  also feeds the live ops plane: per-tenant sliding windows over the
  deterministic virtual clock, and — with
  --slo latency-p95=SECS,failure-rate=FRAC,budget-headroom=FRAC —
  multi-window burn-rate alerting (ok -> warning -> paging) surfaced by
  the health op, in run reports, and as slo_transition trace events.
  --recorder DIR keeps a flight-recorder ring of recent events and dumps
  a postmortem JSONL there whenever an alert pages.

TOP:
  Live per-tenant table against a running daemon's health op: windowed
  request/token rates, windowed error rate and p95 latency, budget
  headroom, active jobs, and SLO alert states. --once prints a single
  snapshot; --format json emits the raw health reply.

CHAOS:
  Sweeps the seeded fault-scenario presets (burst outages, rate-limit
  storms, latency spikes, garbled completions, partial batch answers) over
  a pinned ED/EM workload with graceful batch degradation on, asserting
  terminal coverage, the serving-ledger audit, monotone degradation, and
  bit-identical results across worker counts; then runs the route-outage
  drill (a cascade's primary hard-down: the router's plan-order circuit
  breaker shorts the dead primary's legs unbilled while the secondary
  serves, bit-identical at 1/2/4 workers), and the kill-point drill: a
  journaled run is aborted after every Nth terminal event in turn and
  resumed, asserting bit-identity with the uninterrupted run and
  exactly-once billing at every kill point — once with the whole plan as
  one shard and once in shards of 2 batches. Any violation fails the
  command.

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
