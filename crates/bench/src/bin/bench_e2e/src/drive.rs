//! The untraced run: every end-to-end metric, measured by driving the real
//! `dprep` binary from outside with tracing off.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dprep_obs::Json;

use crate::calib::Calibration;
use crate::defs::Workload;
use crate::gen::{self, DetectInputs, Job, TENANTS};
use crate::proc::{parse_footer, run_measured, Conn, Daemon, Exit, Footer};
use crate::stats::{highest_supported_percentile, median, percentile};

/// Rows of the `detect-bulk` table (4 attributes, so 4x as many cells).
pub const BULK_ROWS: usize = 10_000;
/// Rows of the `detect-durable` table.
pub const DURABLE_ROWS: usize = 5_000;
/// Set-up probes per run; set-up is milliseconds, so the median of many
/// is cheap and steady.
const CLI_SETUP_REPS: usize = 61;
const DAEMON_SETUP_REPS: usize = 9;
/// Parts a daemon window is split into. Between them, with the daemon
/// idle, the run samples the calibration loop twice.
const SUB_WINDOWS: u32 = 5;
/// Closed-loop client connections, one per core of the two-core host the
/// workloads are sized for.
pub const CLIENTS: usize = 2;
/// `--workers` of every CLI run.
const CLI_WORKERS: &str = "2";
/// The cascade of `detect-durable`, cheapest model first.
pub const DURABLE_ROUTE: &str = "sim-gpt-3.5,sim-gpt-4";

/// Where a run reads and writes, and how long it measures.
pub struct Ctx {
    pub dprep: PathBuf,
    pub scratch: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }

    pub fn write(&self, name: &str, contents: &str) -> Result<PathBuf, String> {
        let path = self.path(name);
        std::fs::write(&path, contents)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// One run's results: its metrics in output order, supplementary values
/// outside the gated metric list, and its operation counts.
#[derive(Debug, Default)]
pub struct Outcome {
    /// (name, value, samples behind it)
    pub metrics: Vec<(&'static str, f64, usize)>,
    /// (name, value, unit, samples) printed and saved, but not gated.
    pub extras: Vec<(&'static str, f64, &'static str, usize)>,
    pub attempted: usize,
    pub failed: usize,
    /// Every check that did not hold.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    fn extra(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.extras.push((name, value, unit, samples));
    }
}

pub fn run(workload: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        Workload::DetectBulk | Workload::DetectDurable => detect(ctx, workload),
        Workload::ServeSmall | Workload::ServeMixed => serve(ctx, workload),
    }
}

/// The generated detect inputs on disk.
pub struct DetectFiles {
    pub inputs: DetectInputs,
    pub csv: PathBuf,
    pub one_row: PathBuf,
    pub facts: PathBuf,
}

pub fn detect_files(ctx: &Ctx, durable: bool) -> Result<DetectFiles, String> {
    let rows = if durable { DURABLE_ROWS } else { BULK_ROWS };
    let inputs = gen::detect_inputs(ctx.seed, rows);
    Ok(DetectFiles {
        csv: ctx.write("input.csv", &inputs.csv)?,
        one_row: ctx.write("one-row.csv", &inputs.one_row_csv)?,
        facts: ctx.write("facts.tsv", &inputs.facts)?,
        inputs,
    })
}

/// `dprep detect` over `input`, with the workload's flags; `journal` adds
/// the durable flags, `resume` the `--resume` of the same journal.
pub fn detect_command(
    ctx: &Ctx,
    input: &Path,
    facts: &Path,
    journal: Option<&Path>,
    resume: bool,
) -> Command {
    let mut cmd = Command::new(&ctx.dprep);
    cmd.arg("detect")
        .arg("--input")
        .arg(input)
        .arg("--facts")
        .arg(facts)
        .args(["--workers", CLI_WORKERS]);
    if let Some(journal) = journal {
        cmd.args(["--route", DURABLE_ROUTE, "--cache", "on", "--journal"])
            .arg(journal);
        if resume {
            cmd.arg("--resume").arg(journal);
        }
    }
    cmd
}

/// A successful detect invocation's parsed results.
pub struct Detected {
    pub exit: Exit,
    pub footer: Footer,
}

/// Runs one detect invocation and checks it answered every cell.
pub fn detect_once(ctx: &Ctx, cmd: Command, cells: usize) -> Result<Detected, String> {
    let exit = run_measured(cmd, &ctx.scratch)?;
    if !exit.ok {
        let tail: Vec<&str> = exit.stderr.lines().rev().take(3).collect();
        return Err(format!("dprep detect failed: {}", tail.join(" | ")));
    }
    let (footer, seen) = parse_footer(&exit.stderr)
        .ok_or_else(|| format!("no usage footer in stderr: {:?}", exit.stderr))?;
    if seen != cells {
        return Err(format!("detect checked {seen} cells, expected {cells}"));
    }
    Ok(Detected { exit, footer })
}

/// F1 of the flagged cells in detect stdout against the injected errors.
pub fn detect_f1(stdout: &[u8], truth: &BTreeSet<(usize, String)>) -> f64 {
    let text = String::from_utf8_lossy(stdout);
    let flagged: BTreeSet<(usize, String)> = text
        .lines()
        .skip(1)
        .filter_map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                [row, attr, _value, "error", ..] => Some((row.parse().ok()?, attr.to_string())),
                _ => None,
            }
        })
        .collect();
    let hits = flagged.intersection(truth).count() as f64;
    if hits == 0.0 {
        return 0.0;
    }
    2.0 * hits / (flagged.len() + truth.len()) as f64
}

/// Sanity floor on detection quality: far below what the simulated models
/// reach on these inputs, far above what a broken detector reaches.
const MIN_F1: f64 = 0.3;

fn detect(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let durable = workload == Workload::DetectDurable;
    let files = detect_files(ctx, durable)?;
    let cells = files.inputs.cells;
    let journal = durable.then(|| ctx.path("run.journal"));
    let setup_journal = durable.then(|| ctx.path("setup.journal"));
    let mut out = Outcome::default();
    let mut calibration = Calibration::default();

    calibration.sample();
    let mut setup = Vec::new();
    for _ in 0..CLI_SETUP_REPS {
        out.attempted += 1;
        let cmd = detect_command(
            ctx,
            &files.one_row,
            &files.facts,
            setup_journal.as_deref(),
            false,
        );
        match detect_once(ctx, cmd, 4) {
            Ok(done) => setup.push(done.exit.wall_s),
            Err(e) => out.fail(format!("set-up: {e}")),
        }
    }
    calibration.sample();

    // The first job warms the page cache and the allocator outside the
    // window, and is the reference every later job must print and bill.
    out.attempted += 1;
    let reference = match detect_job(ctx, &files, journal.as_deref()) {
        Ok(job) => job,
        Err(e) => {
            out.fail(e);
            return Ok(out);
        }
    };
    let mut jobs = Vec::new();
    let started = Instant::now();
    while jobs.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        out.attempted += 1;
        calibration.sample();
        match detect_job(ctx, &files, journal.as_deref()) {
            Ok(job) => {
                if job.stdout != reference.stdout || job.footer != reference.footer {
                    out.fail("a repeated job printed or billed different results".into());
                }
                jobs.push(job);
            }
            Err(e) => {
                out.fail(e);
                break;
            }
        }
    }
    if jobs.is_empty() {
        return Ok(out);
    }

    // Rates are medians over the jobs, so a burst of interference from the
    // machine's other tenants that slows a few jobs does not move them, and
    // every timing is calibrated: these jobs are CPU-bound throughout.
    let divisor = calibration.divisor();
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s / divisor).collect();
    let passes = if durable { 2 } else { 1 };
    let kinst = (passes * cells) as f64 / 1000.0;
    let per_job = |f: &dyn Fn(&DetectJob) -> f64| {
        median(&jobs.iter().map(f).collect::<Vec<f64>>()).unwrap_or(f64::NAN)
    };
    let footer = reference.footer;
    let f1 = detect_f1(&reference.stdout, &files.inputs.truth);
    if f1 < MIN_F1 {
        out.problems
            .push(format!("f1 {f1:.3} is below the {MIN_F1} floor"));
    }
    let n = jobs.len();
    out.metric(
        "setup_s",
        median(&setup).unwrap_or(f64::NAN) / divisor,
        setup.len(),
    );
    out.metric(
        "inst_per_s",
        per_job(&|j| kinst * 1000.0 / j.wall_s) * divisor,
        n,
    );
    out.metric("jobs_per_s", per_job(&|j| 1.0 / j.wall_s) * divisor, n);
    out.metric(
        "job_p50_ms",
        percentile(&walls, 50.0).unwrap_or(f64::NAN) * 1e3,
        n,
    );
    let tail = workload.tail_percentile();
    out.metric(
        "job_tail_ms",
        percentile(&walls, tail).unwrap_or(f64::NAN) * 1e3,
        n,
    );
    out.metric(
        "cpu_ms_per_kinst",
        per_job(&|j| j.cpu_s * 1e3 / kinst) / divisor,
        n,
    );
    out.metric("peak_rss_mb", per_job(&|j| j.peak_rss_mb), n);
    out.metric("tokens_per_inst", footer.tokens as f64 / cells as f64, 1);
    out.metric("usd_per_kinst", footer.usd * 1000.0 / cells as f64, 1);
    highest_percentile(&mut out, &walls);
    out.extra(
        "host_slowdown",
        calibration.host_slowdown(),
        "x",
        calibration.len(),
    );
    out.extra("f1", f1, "frac", 1);
    out.extra(
        "virtual_s_per_kinst",
        footer.virtual_s * 1000.0 / cells as f64,
        "s",
        1,
    );
    if durable {
        let replay: Vec<f64> = jobs.iter().map(|j| j.replay_wall_s / divisor).collect();
        let write: Vec<f64> = walls.iter().zip(&replay).map(|(w, r)| w - r).collect();
        out.extra(
            "write_p50_ms",
            percentile(&write, 50.0).unwrap_or(f64::NAN) * 1e3,
            "ms",
            n,
        );
        out.extra(
            "replay_p50_ms",
            percentile(&replay, 50.0).unwrap_or(f64::NAN) * 1e3,
            "ms",
            n,
        );
        let replay_rate = per_job(&|j| cells as f64 / j.replay_wall_s) * divisor;
        out.extra("replay_inst_per_s", replay_rate, "inst/s", n);
    }
    Ok(out)
}

/// The highest percentile with ten job latencies beyond it, and its value.
fn highest_percentile(out: &mut Outcome, latencies_s: &[f64]) {
    if let Some(p) = highest_supported_percentile(latencies_s.len()) {
        let value = percentile(latencies_s, p).unwrap_or(f64::NAN) * 1e3;
        out.extra("highest_pct", p, "pct", latencies_s.len());
        out.extra("highest_pct_ms", value, "ms", latencies_s.len());
    }
}

/// One detect job: an invocation, or for the durable workload a run and
/// the `--resume` of its journal, which must print and bill the same.
struct DetectJob {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// The `--resume` invocation's share of `wall_s`.
    replay_wall_s: f64,
    stdout: Vec<u8>,
    footer: Footer,
}

fn detect_job(ctx: &Ctx, files: &DetectFiles, journal: Option<&Path>) -> Result<DetectJob, String> {
    let cells = files.inputs.cells;
    let run = detect_once(
        ctx,
        detect_command(ctx, &files.csv, &files.facts, journal, false),
        cells,
    )?;
    let mut job = DetectJob {
        wall_s: run.exit.wall_s,
        cpu_s: run.exit.cpu_s,
        peak_rss_mb: run.exit.peak_rss_mb,
        replay_wall_s: 0.0,
        stdout: run.exit.stdout,
        footer: run.footer,
    };
    if journal.is_some() {
        let resumed = detect_once(
            ctx,
            detect_command(ctx, &files.csv, &files.facts, journal, true),
            cells,
        )
        .map_err(|e| format!("resume: {e}"))?;
        if resumed.exit.stdout != job.stdout {
            return Err("--resume printed different results than the run it resumed".into());
        }
        if resumed.footer.tokens != job.footer.tokens {
            return Err(format!(
                "--resume billed {} tokens, the run it resumed {}",
                resumed.footer.tokens, job.footer.tokens
            ));
        }
        job.wall_s += resumed.exit.wall_s;
        job.cpu_s += resumed.exit.cpu_s;
        job.peak_rss_mb = job.peak_rss_mb.max(resumed.exit.peak_rss_mb);
        job.replay_wall_s = resumed.exit.wall_s;
    }
    Ok(job)
}

/// The daemon flags of a serve workload; `journal_dir` is `serve-mixed`'s.
pub fn daemon_args(journal_dir: Option<&Path>) -> Vec<String> {
    match journal_dir {
        Some(dir) => vec!["--journal-dir".into(), dir.display().to_string()],
        None => Vec::new(),
    }
}

/// Fresh-connection pings per daemon set-up probe. The daemon's accept
/// loop polls, so one connection waits anywhere from nothing to a full
/// poll interval; the mean of several is what a client can expect.
const FRESH_PINGS: usize = 5;

/// Starts a daemon and measures its set-up: spawn to its `listening`
/// line, plus what a ping on a fresh connection then takes.
pub fn start_daemon(ctx: &Ctx, args: &[String]) -> Result<(Daemon, f64), String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let started = Instant::now();
    let daemon = Daemon::spawn(&ctx.dprep, &args, &ctx.path("daemon.stderr"))?;
    let listening = started.elapsed().as_secs_f64();
    let mut pings = 0.0;
    for _ in 0..FRESH_PINGS {
        let sent = Instant::now();
        let pong = Conn::open(&daemon.addr)?.call(r#"{"op":"ping"}"#)?;
        pings += sent.elapsed().as_secs_f64();
        if pong.get("pong") != Some(&Json::Bool(true)) {
            return Err(format!("ping answered {}", pong.to_json()));
        }
    }
    Ok((daemon, listening + pings / FRESH_PINGS as f64))
}

/// One answered `submit`, as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub key: String,
    pub heavy: bool,
    pub latency_s: f64,
    /// Daemon job id.
    pub job: u64,
    pub fingerprint: String,
    pub tokens: usize,
    pub usd: f64,
    pub instances: usize,
}

/// Submits `job` for `tenant` and reads the reply; `Err` for a transport
/// failure or an error reply.
pub fn submit(
    conn: &mut Conn,
    job: &Job,
    tenant: &str,
    journal_key: Option<&str>,
) -> Result<Reply, String> {
    let line = job.line(tenant, journal_key);
    let started = Instant::now();
    let reply = conn.call(&line)?;
    let latency_s = started.elapsed().as_secs_f64();
    let num = |key: &str| reply.get(key).and_then(Json::as_f64);
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("{} answered {}", job.key(), reply.to_json()));
    }
    if reply.get("budget_tripped") != Some(&Json::Bool(false))
        || reply.get("killed") != Some(&Json::Bool(false))
    {
        return Err(format!(
            "{} did not run to completion: {}",
            job.key(),
            reply.to_json()
        ));
    }
    let field =
        |key: &str| num(key).ok_or_else(|| format!("reply has no {key:?}: {}", reply.to_json()));
    Ok(Reply {
        key: job.key(),
        heavy: job.heavy,
        latency_s,
        job: field("job")? as u64,
        fingerprint: reply
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("reply has no fingerprint")?
            .to_string(),
        tokens: field("tokens_billed")? as usize,
        usd: field("cost_usd")?,
        instances: (field("answered")? + field("failed")?) as usize,
    })
}

/// Closed-loop traffic of a serve workload over `CLIENTS` connections,
/// each sending its next job only after the previous reply. Without a
/// heavy job both connections submit small jobs; with one, the first
/// connection submits heavy jobs and the second small jobs until the first
/// is done.
pub struct Traffic<'a> {
    pub small: &'a [Job],
    pub heavy: Option<&'a Job>,
    /// End of a timed window, for whichever side has no limit.
    pub deadline: Instant,
    /// Small jobs to submit in all (a fixed pass instead of a window).
    pub small_limit: Option<usize>,
    /// Heavy jobs to submit in all; without a limit, at least one.
    pub heavy_limit: Option<usize>,
    /// Prefix of heavy jobs' journal keys (unique per job).
    pub journal_prefix: &'a str,
}

impl Traffic<'_> {
    /// Runs the traffic on `conns`; returns every reply, every failure, and
    /// when the last client finished. The daemon serves each connection on
    /// a thread of its own, so keeping the connections from one traffic
    /// phase to the next keeps each client's jobs on the same daemon thread
    /// and allocator arena.
    pub fn run(&self, conns: &mut [Conn; CLIENTS]) -> (Vec<Reply>, Vec<String>, Instant) {
        let next = AtomicUsize::new(0);
        let ended = Mutex::new(Instant::now());
        let finish = || {
            let mut ended = ended.lock().expect("end time");
            *ended = (*ended).max(Instant::now());
        };
        let heavy_done = AtomicBool::new(self.heavy.is_none());
        let replies = Mutex::new(Vec::new());
        let failures = Mutex::new(Vec::new());
        let small_client = |conn: &mut Conn| {
            loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let done = match self.small_limit {
                    Some(limit) => i >= limit,
                    None if self.heavy.is_some() => heavy_done.load(Ordering::SeqCst),
                    None => Instant::now() >= self.deadline,
                };
                if done {
                    break;
                }
                let job = &self.small[i % self.small.len()];
                match submit(conn, job, TENANTS[i % TENANTS.len()], None) {
                    Ok(reply) => replies.lock().expect("replies").push(reply),
                    Err(e) => {
                        failures.lock().expect("failures").push(e);
                        break;
                    }
                }
            }
            finish();
        };
        let heavy_client = |conn: &mut Conn, job: &Job| {
            let mut n = 0;
            loop {
                let more = match self.heavy_limit {
                    Some(limit) => n < limit,
                    None => n == 0 || Instant::now() < self.deadline,
                };
                if !more {
                    break;
                }
                let key = format!("{}-{n}", self.journal_prefix);
                match submit(conn, job, "bulk", Some(&key)) {
                    Ok(reply) => replies.lock().expect("replies").push(reply),
                    Err(e) => {
                        failures.lock().expect("failures").push(e);
                        break;
                    }
                }
                n += 1;
            }
            heavy_done.store(true, Ordering::SeqCst);
            finish();
        };
        std::thread::scope(|scope| {
            let mut clients = Vec::new();
            for (c, conn) in conns.iter_mut().enumerate() {
                clients.push(match (c, self.heavy) {
                    (0, Some(job)) => scope.spawn(move || heavy_client(conn, job)),
                    _ => scope.spawn(move || small_client(conn)),
                });
            }
            for client in clients {
                if client.join().is_err() {
                    failures
                        .lock()
                        .expect("failures")
                        .push("a client thread panicked".into());
                }
            }
        });
        (
            replies.into_inner().expect("replies"),
            failures.into_inner().expect("failures"),
            ended.into_inner().expect("end time"),
        )
    }
}

/// Replies to the same job must carry the same fingerprint and bill.
/// Returns the mismatches, and each job's first reply.
pub fn check_repeats(replies: &[Reply]) -> (Vec<String>, BTreeMap<&str, &Reply>) {
    let mut first: BTreeMap<&str, &Reply> = BTreeMap::new();
    let mut problems = Vec::new();
    for r in replies {
        let seen = first.entry(&r.key).or_insert(r);
        if seen.fingerprint != r.fingerprint || seen.tokens != r.tokens {
            problems.push(format!(
                "{}: fingerprint {} / {} tokens, first seen {} / {} tokens",
                r.key, r.fingerprint, r.tokens, seen.fingerprint, seen.tokens
            ));
        }
    }
    (problems, first)
}

fn serve(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let mixed = workload == Workload::ServeMixed;
    let small = gen::small_jobs(ctx.seed);
    let heavy = mixed.then(gen::heavy_job);
    let journal_dir = mixed.then(|| ctx.path("journals"));
    if let Some(dir) = &journal_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let args = daemon_args(journal_dir.as_deref());
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut daemon = None;
    for rep in 0..DAEMON_SETUP_REPS {
        out.attempted += 1;
        let (started, secs) = start_daemon(ctx, &args)?;
        setup.push(secs);
        if rep + 1 < DAEMON_SETUP_REPS {
            started.shutdown()?;
        } else {
            daemon = Some(started);
        }
    }
    let daemon = daemon.expect("at least one set-up");

    // Warm-up outside the window, on the window's connections: every small
    // job once (and a heavy one), so lazy set-up inside the daemon does not
    // land in the first samples.
    let mut conns = [Conn::open(&daemon.addr)?, Conn::open(&daemon.addr)?];
    let warm = Traffic {
        small: &small,
        heavy: heavy.as_ref(),
        deadline: Instant::now(),
        small_limit: Some(small.len()),
        heavy_limit: Some(1),
        journal_prefix: "warm",
    };
    let (mut replies, failures, _) = warm.run(&mut conns);
    out.attempted += replies.len() + failures.len();
    for f in failures {
        out.fail(f);
    }

    let cpu_before = daemon.cpu_s()?;
    let mut calibration = Calibration::default();
    let mut measured = Vec::new();
    let mut elapsed = 0.0;
    for part in 0..SUB_WINDOWS {
        calibration.sample();
        calibration.sample();
        let started = Instant::now();
        let window = Traffic {
            small: &small,
            heavy: heavy.as_ref(),
            deadline: started + Duration::from_secs_f64(ctx.seconds) / SUB_WINDOWS,
            small_limit: None,
            heavy_limit: None,
            journal_prefix: &format!("heavy{part}"),
        };
        let (done, failures, ended) = window.run(&mut conns);
        elapsed += (ended - started).as_secs_f64();
        measured.extend(done);
        out.attempted += failures.len();
        for f in failures {
            out.fail(f);
        }
    }
    calibration.sample();
    calibration.sample();
    let cpu = daemon.cpu_s()? - cpu_before;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    drop(conns);
    daemon.shutdown()?;
    out.attempted += measured.len();

    replies.extend(measured.iter().cloned());
    let (mismatches, distinct) = check_repeats(&replies);
    for m in mismatches {
        out.fail(m);
    }
    let small_lat: Vec<f64> = measured
        .iter()
        .filter(|r| !r.heavy)
        .map(|r| r.latency_s)
        .collect();
    let heavy_lat: Vec<f64> = measured
        .iter()
        .filter(|r| r.heavy)
        .map(|r| r.latency_s)
        .collect();
    if small_lat.is_empty() {
        out.problems
            .push("no small job completed in the window".into());
        return Ok(out);
    }
    let instances: usize = measured.iter().map(|r| r.instances).sum();
    let kinst = instances as f64 / 1000.0;
    // Calibrated only where compute dominates: serve-mixed's instances and
    // CPU are the heavy jobs'. Job rates and latencies are set mostly by
    // the wire's timers, and serve-small's CPU time did not follow the
    // calibration loop; they are raw.
    let divisor = if mixed { calibration.divisor() } else { 1.0 };
    // Billing per instance over the distinct jobs, so the small/heavy mix
    // the window happened to complete does not move it.
    let distinct_inst: usize = distinct.values().map(|r| r.instances).sum();
    let distinct_tokens: usize = distinct.values().map(|r| r.tokens).sum();
    let distinct_usd: f64 = distinct.values().map(|r| r.usd).sum();

    out.metric("setup_s", median(&setup).unwrap_or(f64::NAN), setup.len());
    out.metric(
        "inst_per_s",
        instances as f64 / elapsed * divisor,
        measured.len(),
    );
    out.metric(
        "jobs_per_s",
        measured.len() as f64 / elapsed,
        measured.len(),
    );
    out.metric(
        "job_p50_ms",
        percentile(&small_lat, 50.0).unwrap_or(f64::NAN) * 1e3,
        small_lat.len(),
    );
    let tail = workload.tail_percentile();
    out.metric(
        "job_tail_ms",
        percentile(&small_lat, tail).unwrap_or(f64::NAN) * 1e3,
        small_lat.len(),
    );
    out.metric(
        "cpu_ms_per_kinst",
        cpu * 1e3 / kinst / divisor,
        measured.len(),
    );
    out.metric("peak_rss_mb", peak_rss_mb, 1);
    out.metric(
        "tokens_per_inst",
        distinct_tokens as f64 / distinct_inst as f64,
        distinct.len(),
    );
    out.metric(
        "usd_per_kinst",
        distinct_usd * 1000.0 / distinct_inst as f64,
        distinct.len(),
    );
    highest_percentile(&mut out, &small_lat);
    out.extra(
        "host_slowdown",
        calibration.host_slowdown(),
        "x",
        calibration.len(),
    );
    if !heavy_lat.is_empty() {
        let p50 = percentile(&heavy_lat, 50.0).unwrap_or(f64::NAN) * 1e3;
        out.extra("heavy_job_p50_ms", p50, "ms", heavy_lat.len());
    }
    Ok(out)
}
