//! Seeded schedule explorer for the daemon's scheduling core
//! (`core::serve::DaemonCore`), in the style of simulation testing.
//!
//! Each seed draws a world — an overload policy with each cap on or off, a
//! turn limit of 1–4, tenants with and without token allowances, and jobs,
//! each with a worker count, a token-budget ask, a deadline (some at or
//! below zero), a number of shard turns and an ending (settle with tokens,
//! fail, or panic) — and then one schedule over it: submits, queued
//! retries, turn requests and releases, endings, and perhaps a drain,
//! interleaved at random. The core is closed once a drain quiesces.
//!
//! After every step the explorer checks the core against a model it keeps
//! itself:
//! - admission follows the ladder (deadline, draining, tenant cap, slots,
//!   queue, allowance) and grants the clamped options;
//! - each tenant's billed tokens and cost are the sums over its settled
//!   jobs, and a shed or refused job never runs and bills nothing;
//! - the holders' shares fit the turn limit, and no job starts a turn
//!   ahead of a job before it in the rotation whose share would then not
//!   fit (nor waits when everything ahead fits);
//! - in-flight, per-tenant and queued counts stay within the policy's
//!   caps, and the derived totals match the model's;
//! - a drain admits nothing new, and once every job has ended the core
//!   closes with zero in flight;
//! - `AuditTracer` (invariant 10) accepts every event the core returned,
//!   and each `queue_depth` event carries the counts after its transition.
//!
//! A failure prints the seed and the schedule's last steps. Pin a seed
//! that caught a regression by adding it to [`PINNED`].

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dprep_rng::Rng;
use llm_data_preprocessors::core::serve::{
    Admission, DaemonCore, JobOutcome, OverloadPolicy, Rejection, TenantLedger, TenantUsage,
};
use llm_data_preprocessors::core::ExecutionOptions;
use llm_data_preprocessors::obs::{AuditTracer, TraceEvent, Tracer};

/// Seeds explored per run, besides the pinned ones.
const SEEDS: u64 = 10_000;

/// Seeds that caught a defect in the core, each with what it caught. They
/// run whatever [`SEEDS`] is. The first four each caught a deliberately
/// broken copy of the core.
const PINNED: &[(u64, &str)] = &[
    (1, "a drain that never closed"),
    (0, "a shed that billed a token"),
    (3, "a later job that started in a reservation"),
    (3, "a settle that billed twice"),
];

/// Steps after which a schedule that has not finished counts as stuck.
const MAX_STEPS: usize = 5_000;

/// How many of a failed schedule's last steps the report shows.
const SHOWN_STEPS: usize = 30;

/// How a drawn job ends once it runs.
#[derive(Debug, Clone, Copy)]
enum Ending {
    /// Settles after its last turn, billing these tokens.
    Settle { tokens: usize, tripped: bool },
    /// Its handler returns an error, at any point of its run.
    Fail,
    /// Its handler panics, at any point of its run (even mid-turn).
    Panic,
}

/// Where a drawn job is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Unsubmitted,
    Queued,
    Running { holding: bool },
    Refused,
    Ended,
}

#[derive(Debug)]
struct Job {
    tenant: usize,
    options: ExecutionOptions,
    turns: usize,
    ending: Ending,
    phase: Phase,
    id: u64,
    turns_taken: usize,
}

/// The explorer's own account of one tenant.
#[derive(Debug, Default, Clone)]
struct Books {
    tokens: usize,
    cost: f64,
    settled: u64,
    failed: u64,
    rejected: u64,
    shed: u64,
    running: usize,
}

/// One scheduling step, kept compact; formatted only when a check fails.
#[derive(Debug, Clone, Copy)]
enum Step {
    Submit(usize),
    Retry(usize),
    Request(usize),
    Release(usize),
    End(usize),
    Drain,
    EarlyClose,
}

struct World {
    seed: u64,
    rng: Rng,
    policy: OverloadPolicy,
    limit: usize,
    tenants: Vec<String>,
    budgets: Vec<Option<usize>>,
    jobs: Vec<Job>,
    books: Vec<Books>,
    core: DaemonCore,
    audit: AuditTracer,
    drains: bool,
    draining: bool,
    closed: bool,
    queued: usize,
    schedule: Vec<Step>,
}

fn draw_world(seed: u64) -> World {
    let mut rng = Rng::seed_from_u64(seed);
    let cap = |rng: &mut Rng, lo: usize, hi: usize| rng.bool(0.5).then(|| rng.range_incl(lo, hi));
    let policy = OverloadPolicy {
        max_inflight: cap(&mut rng, 1, 3),
        max_queued: cap(&mut rng, 0, 2),
        tenant_inflight: cap(&mut rng, 1, 2),
        default_deadline_secs: rng.bool(0.3).then(|| rng.range_f64(1.0, 60.0)),
    };
    let limit = rng.range_incl(1, 4);
    let default_budget = rng.bool(0.3).then(|| rng.range_incl(10, 120));
    let mut ledger = TenantLedger::new().with_default_budget(default_budget);
    let tenants: Vec<String> = (0..rng.range_incl(1, 3)).map(|t| format!("t{t}")).collect();
    let mut budgets = vec![default_budget; tenants.len()];
    for (tenant, budget) in tenants.iter().zip(&mut budgets) {
        // Configured tenants are capped or explicitly uncapped; the rest
        // get the default when first seen.
        if rng.bool(0.5) {
            *budget = rng.bool(0.6).then(|| rng.range_incl(0, 150));
            ledger.set_budget(tenant, *budget);
        }
    }
    let jobs = (0..rng.range_incl(1, 8))
        .map(|_| {
            let deadline = match rng.range(0, 6) {
                0 => Some(0.0),
                1 => Some(-1.0),
                2 => Some(rng.range_f64(0.5, 90.0)),
                _ => None,
            };
            let ending = match rng.range(0, 10) {
                0 | 1 => Ending::Fail,
                2 => Ending::Panic,
                _ => Ending::Settle {
                    tokens: rng.range_incl(0, 60),
                    tripped: rng.bool(0.2),
                },
            };
            Job {
                tenant: rng.range_usize(0, tenants.len()),
                options: ExecutionOptions {
                    workers: rng.range_incl(0, 5),
                    token_budget: rng.bool(0.4).then(|| rng.range_incl(1, 80)),
                    deadline_secs: deadline,
                    ..ExecutionOptions::default()
                },
                turns: rng.range_incl(0, 3),
                ending,
                phase: Phase::Unsubmitted,
                id: 0,
                turns_taken: 0,
            }
        })
        .collect();
    let drains = rng.bool(0.4);
    World {
        seed,
        policy: policy.clone(),
        limit,
        books: vec![Books::default(); tenants.len()],
        tenants,
        budgets,
        jobs,
        core: DaemonCore::new(policy, limit, ledger),
        audit: AuditTracer::new(),
        drains,
        draining: false,
        closed: false,
        queued: 0,
        schedule: Vec::new(),
        rng,
    }
}

/// What the admission ladder should decide for `job`, from the model.
fn expected_admission(world: &World, job: usize, retry: bool) -> &'static str {
    let j = &world.jobs[job];
    let deadline = j
        .options
        .deadline_secs
        .or(world.policy.default_deadline_secs);
    let inflight: usize = world.books.iter().map(|b| b.running).sum();
    let books = &world.books[j.tenant];
    let tenant_capped = world
        .policy
        .tenant_inflight
        .is_some_and(|cap| books.running >= cap);
    let slots_full = world.policy.max_inflight.is_some_and(|cap| inflight >= cap);
    if !retry && deadline.is_some_and(|secs| secs <= 0.0) {
        "deadline"
    } else if world.draining {
        "draining"
    } else if tenant_capped || slots_full {
        let queue_full = world.queued >= world.policy.max_queued.unwrap_or(0);
        if retry || !(tenant_capped || queue_full) {
            "queued"
        } else {
            "overloaded"
        }
    } else if world.budgets[j.tenant].is_some_and(|budget| books.tokens >= budget) {
        "budget-exhausted"
    } else {
        "admitted"
    }
}

impl World {
    /// Steps that are possible now.
    fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        if let Some(next) = self.jobs.iter().position(|j| j.phase == Phase::Unsubmitted) {
            steps.push(Step::Submit(next));
        }
        for (i, job) in self.jobs.iter().enumerate() {
            match job.phase {
                Phase::Queued => steps.push(Step::Retry(i)),
                Phase::Running { holding: true } => {
                    steps.push(Step::Release(i));
                    if !matches!(job.ending, Ending::Settle { .. }) {
                        steps.push(Step::End(i));
                    }
                }
                Phase::Running { holding: false } => {
                    if job.turns_taken < job.turns {
                        steps.push(Step::Request(i));
                    }
                    if job.turns_taken == job.turns || !matches!(job.ending, Ending::Settle { .. })
                    {
                        steps.push(Step::End(i));
                    }
                }
                _ => {}
            }
        }
        if self.drains && !self.draining {
            steps.push(Step::Drain);
        }
        if self.draining && !self.closed && !steps.is_empty() {
            steps.push(Step::EarlyClose);
        }
        steps
    }

    /// Records a transition's events, checking each `queue_depth` against
    /// the core's counts after it.
    fn emit(&mut self, events: &[TraceEvent]) -> Result<(), String> {
        let overload = self.core.overload();
        for event in events {
            if let TraceEvent::QueueDepth { queued, inflight } = event {
                if (*queued, *inflight) != (overload.queued, overload.inflight) {
                    return Err(format!(
                        "queue_depth says {queued} queued and {inflight} in flight, the core {} \
                         and {}",
                        overload.queued, overload.inflight
                    ));
                }
            }
            self.audit.record(event);
        }
        Ok(())
    }

    /// Books an admission decision for `job` against the model.
    fn admitted(&mut self, job: usize, admission: Admission, retry: bool) -> Result<(), String> {
        let expected = expected_admission(self, job, retry);
        let got = match &admission {
            Admission::Admitted(..) => "admitted",
            Admission::Queued => "queued",
            Admission::Refused(Rejection { kind, .. }) => kind,
        };
        if got != expected {
            return Err(format!("job {job} was {got}, the ladder says {expected}"));
        }
        let (tenant, asked) = (self.jobs[job].tenant, self.jobs[job].options);
        if retry && !matches!(admission, Admission::Queued) {
            self.queued -= 1;
        }
        match admission {
            Admission::Admitted(granted, halt) => {
                let books = &self.books[tenant];
                let budget = match self.budgets[tenant] {
                    None => asked.token_budget,
                    Some(allowance) => {
                        let remaining = allowance - books.tokens;
                        Some(asked.token_budget.map_or(remaining, |r| r.min(remaining)))
                    }
                };
                let deadline = asked.deadline_secs.or(self.policy.default_deadline_secs);
                let workers = asked.workers.clamp(1, self.limit);
                if (granted.workers, granted.token_budget, granted.deadline_secs)
                    != (workers, budget, deadline)
                {
                    return Err(format!(
                        "job {job} was granted {granted:?}, the model says {workers} workers, \
                         budget {budget:?}, deadline {deadline:?}"
                    ));
                }
                if halt.fired() {
                    return Err(format!("job {job} was granted a fired halt"));
                }
                self.books[tenant].running += 1;
                self.jobs[job].phase = Phase::Running { holding: false };
            }
            Admission::Queued => {
                if !retry {
                    self.queued += 1;
                }
                self.jobs[job].phase = Phase::Queued;
            }
            Admission::Refused(rejection) => {
                let books = &mut self.books[tenant];
                match rejection.kind {
                    "budget-exhausted" => books.rejected += 1,
                    _ => books.shed += 1,
                }
                self.jobs[job].phase = Phase::Refused;
            }
        }
        Ok(())
    }

    /// Runs one step against the core and the model.
    fn step(&mut self, step: Step) -> Result<(), String> {
        match step {
            Step::Submit(job) => {
                let tenant = self.tenants[self.jobs[job].tenant].clone();
                let (id, admission, events) = self.core.submit(&tenant, self.jobs[job].options);
                if id != job as u64 + 1 {
                    return Err(format!("job {job} got id {id}"));
                }
                self.jobs[job].id = id;
                self.admitted(job, admission, false)?;
                self.emit(&events)
            }
            Step::Retry(job) => {
                let tenant = self.tenants[self.jobs[job].tenant].clone();
                let id = self.jobs[job].id;
                let (admission, events) = self.core.retry(id, &tenant, self.jobs[job].options);
                self.admitted(job, admission, true)?;
                self.emit(&events)
            }
            Step::Request(job) => {
                let id = self.jobs[job].id;
                let (holding, rotation) = self.core.turns();
                let position = rotation.iter().position(|&j| j == id).ok_or_else(|| {
                    format!("running job {job} is neither holding a turn nor waiting for one")
                })?;
                let claimed: usize = holding
                    .iter()
                    .chain(rotation.iter().take(position + 1))
                    .map(|&j| self.core.share(j))
                    .sum();
                let granted = self.core.turn_requested(id);
                if granted != (claimed <= self.limit) {
                    return Err(format!(
                        "job {job}'s turn request was {} with {claimed} shares claimed of {} \
                         by the holders and the jobs ahead of it",
                        if granted { "granted" } else { "refused" },
                        self.limit
                    ));
                }
                if granted {
                    self.jobs[job].phase = Phase::Running { holding: true };
                }
                Ok(())
            }
            Step::Release(job) => {
                self.core.turn_released(self.jobs[job].id);
                self.jobs[job].turns_taken += 1;
                self.jobs[job].phase = Phase::Running { holding: false };
                Ok(())
            }
            Step::End(job) => {
                let (id, tenant) = (self.jobs[job].id, self.jobs[job].tenant);
                let events = match self.jobs[job].ending {
                    Ending::Settle { tokens, tripped } => {
                        let outcome = JobOutcome {
                            tokens_billed: tokens,
                            cost_usd: tokens as f64 * 0.001,
                            budget_tripped: tripped,
                            ..JobOutcome::default()
                        };
                        let (headroom, events) = self.core.settled(id, &outcome);
                        let books = &mut self.books[tenant];
                        books.tokens += tokens;
                        books.cost += outcome.cost_usd;
                        books.settled += 1;
                        let expected = self.budgets[tenant].map(|budget| match budget {
                            0 => 0.0,
                            _ => budget.saturating_sub(books.tokens) as f64 / budget as f64,
                        });
                        if headroom != expected {
                            return Err(format!(
                                "job {job} settled to headroom {headroom:?}, the model says \
                                 {expected:?}"
                            ));
                        }
                        events
                    }
                    Ending::Fail => self.core.failed(id, "the handler failed"),
                    Ending::Panic => self.core.failed(id, "job handler panicked: bug"),
                };
                if !matches!(self.jobs[job].ending, Ending::Settle { .. }) {
                    self.books[tenant].failed += 1;
                }
                self.books[tenant].running -= 1;
                self.jobs[job].phase = Phase::Ended;
                self.emit(&events)
            }
            Step::Drain => {
                let inflight = self.core.overload().inflight;
                let events = self.core.drain();
                self.draining = true;
                let expected = TraceEvent::DrainTransition {
                    from: "serving",
                    to: "draining",
                    inflight,
                };
                if events != [expected] {
                    return Err(format!("the drain emitted {events:?}"));
                }
                if !self.core.drain().is_empty() {
                    return Err("a second drain emitted events".to_string());
                }
                self.emit(&events)
            }
            Step::EarlyClose => {
                let quiesced = {
                    let overload = self.core.overload();
                    overload.inflight == 0 && overload.queued == 0
                };
                let events = self.core.close();
                if !quiesced && !events.is_empty() {
                    return Err(format!("the core closed with work in flight: {events:?}"));
                }
                self.closed |= !events.is_empty();
                self.emit(&events)
            }
        }
    }

    /// The invariants that hold after every step.
    fn check(&mut self) -> Result<(), String> {
        let overload = self.core.overload();
        let rows = self.core.ledger().rows();
        let unseen = TenantUsage::default();
        let inflight: usize = self.books.iter().map(|b| b.running).sum();
        for (t, books) in self.books.iter().enumerate() {
            let name = &self.tenants[t];
            let row = rows.get(name).unwrap_or(&unseen);
            if row.tokens_billed != books.tokens || (row.cost_usd - books.cost).abs() > 1e-9 {
                return Err(format!(
                    "tenant {name} billed {} tokens and ${}, its settled jobs {} and ${}",
                    row.tokens_billed, row.cost_usd, books.tokens, books.cost
                ));
            }
            let counts = (
                row.jobs_completed,
                row.jobs_failed,
                row.jobs_rejected,
                row.jobs_shed,
            );
            let model = (books.settled, books.failed, books.rejected, books.shed);
            if counts != model || row.jobs_active != books.running {
                return Err(format!(
                    "tenant {name}'s row {row:?} disagrees with the model {books:?}"
                ));
            }
            if let Some(cap) = self.policy.tenant_inflight {
                if row.jobs_active > cap {
                    return Err(format!(
                        "tenant {name} runs {} jobs past its cap {cap}",
                        row.jobs_active
                    ));
                }
            }
        }
        let admitted: u64 = self
            .books
            .iter()
            .map(|b| b.running as u64 + b.settled + b.failed)
            .sum();
        let shed: u64 = self.books.iter().map(|b| b.shed).sum();
        let totals = (
            overload.inflight,
            overload.queued,
            overload.admitted_total,
            overload.shed_total,
        );
        if totals != (inflight, self.queued, admitted, shed) {
            return Err(format!(
                "the core reports {totals:?} in flight, queued, admitted and shed; the model \
                 {:?}",
                (inflight, self.queued, admitted, shed)
            ));
        }
        if self.policy.max_inflight.is_some_and(|cap| inflight > cap)
            || self.queued > self.policy.max_queued.unwrap_or(0)
        {
            return Err(format!(
                "{inflight} in flight and {} queued past the caps",
                self.queued
            ));
        }
        let (holding, rotation) = self.core.turns();
        let held: usize = holding.iter().map(|&j| self.core.share(j)).sum();
        if held > self.limit {
            return Err(format!(
                "holders {holding:?} claim {held} shares of {}",
                self.limit
            ));
        }
        for job in &self.jobs {
            let seen = holding.contains(&job.id) || rotation.contains(&job.id);
            let running = matches!(job.phase, Phase::Running { .. });
            if job.id != 0 && seen != running {
                return Err(format!(
                    "job {} is {:?} but {} the rotation",
                    job.id,
                    job.phase,
                    if seen { "in" } else { "not in" }
                ));
            }
            if job.phase == (Phase::Running { holding: true }) && !holding.contains(&job.id) {
                return Err(format!(
                    "job {} holds a turn the core does not know",
                    job.id
                ));
            }
        }
        let state = overload.state;
        let expected = if self.closed {
            "closed"
        } else if self.draining {
            "draining"
        } else {
            "serving"
        };
        if state != expected {
            return Err(format!("the core is {state}, the model {expected}"));
        }
        // A drain that has gone quiet closes, reporting nothing in flight.
        if self.draining && !self.closed && inflight == 0 && self.queued == 0 {
            let events = self.core.close();
            let closed = TraceEvent::DrainTransition {
                from: "draining",
                to: "closed",
                inflight: 0,
            };
            if events != [closed] {
                return Err(format!("a quiesced drain closed with {events:?}"));
            }
            self.closed = true;
            self.emit(&events)?;
        }
        if !self.audit.is_clean() {
            return Err(format!("the audit found {:?}", self.audit.violations()));
        }
        Ok(())
    }

    /// Runs the whole schedule.
    fn run(&mut self) -> Result<(), String> {
        for _ in 0..MAX_STEPS {
            let steps = self.enabled();
            let Some(&step) = self.rng.choose(&steps) else {
                let overload = self.core.overload();
                if (overload.inflight, overload.queued) != (0, 0) {
                    return Err(format!("the schedule ended with {overload:?}"));
                }
                return Ok(());
            };
            self.schedule.push(step);
            self.step(step)?;
            self.check()?;
        }
        Err(format!("the schedule did not finish in {MAX_STEPS} steps"))
    }

    /// The world and the last steps of its schedule, for a failure report.
    fn report(&self, failure: &str) -> String {
        let mut out = format!(
            "seed {} failed: {failure}\n  policy {:?}, turn limit {}, tenants {:?} with \
             allowances {:?}\n",
            self.seed, self.policy, self.limit, self.tenants, self.budgets
        );
        for (i, job) in self.jobs.iter().enumerate() {
            let _ = writeln!(
                out,
                "  job {i} (id {}): tenant {}, {} workers, budget {:?}, deadline {:?}, {} \
                 turns, {:?}",
                job.id,
                job.tenant,
                job.options.workers,
                job.options.token_budget,
                job.options.deadline_secs,
                job.turns,
                job.ending
            );
        }
        let skipped = self.schedule.len().saturating_sub(SHOWN_STEPS);
        let _ = writeln!(out, "  schedule ({skipped} earlier steps not shown):");
        for step in &self.schedule[skipped..] {
            let _ = writeln!(out, "    {step:?}");
        }
        let _ = write!(
            out,
            "  pin it: add ({}, \"what it caught\") to PINNED",
            self.seed
        );
        out
    }
}

/// Explores `seed`'s schedule; the failure report, if a check failed or
/// the core panicked.
fn explore(seed: u64) -> Result<(), String> {
    let mut world = draw_world(seed);
    match catch_unwind(AssertUnwindSafe(|| world.run())) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(failure)) => Err(world.report(&failure)),
        Err(_) => Err(world.report("the core panicked")),
    }
}

fn explore_range(seeds: impl Iterator<Item = u64>) {
    for seed in seeds {
        if let Err(report) = explore(seed) {
            panic!("{report}");
        }
    }
}

#[test]
fn pinned_seeds_hold() {
    explore_range(PINNED.iter().map(|&(seed, _)| seed));
}

/// The seeds run in two halves, so the test harness's threads share them.
#[test]
fn first_half_of_the_seeds_holds() {
    explore_range(0..SEEDS / 2);
}

#[test]
fn second_half_of_the_seeds_holds() {
    explore_range(SEEDS / 2..SEEDS);
}
