//! Multi-tenant serving: the `dprep serve` daemon's scheduling core.
//!
//! Long-running deployments want one resident process accepting
//! detect/impute/clean/match jobs from several tenants at once, with each
//! tenant's spend capped and no tenant able to starve another. This module
//! supplies the pieces, bottom-up:
//!
//! * [`ShardGate`] — the executor-side fairness hook: the executor
//!   brackets every plan-shard iteration with `acquire`/`release`, so
//!   concurrent jobs interleave at shard granularity. Each shard turn
//!   uses the job's full worker pool, so a job running alone is exactly
//!   as fast as without the gate.
//! * [`DaemonCore`] — every scheduling decision, as one value whose
//!   methods are transitions: submit, a queued job's retry, turn
//!   requested, turn released, settled, failed, drain and closed. Each
//!   returns its decision and the trace events to emit; none takes a
//!   lock, calls a tracer or reads a clock, so a seeded explorer
//!   (`tests/daemon_explorer.rs`) drives it through thousands of
//!   schedules. It holds:
//!   - the [`TenantLedger`]: per-tenant allowances, billed totals, job
//!     counts, running counts and merged metrics. Admission clamps a
//!     job's own token budget to the tenant's remaining allowance, so the
//!     job runs under a private [`ExecutionOptions`] budget gauge and
//!     stays **bit-identical to a one-shot run at that clamped budget**;
//!   - bounded admission under an [`OverloadPolicy`]: in-flight slots and
//!     a bounded wait queue (global and per-tenant caps), with excess load
//!     *shed* as a structured [`Rejection`] carrying a `retry_after` hint
//!     — shed jobs bill exactly zero tokens (`job_shed` events, audit
//!     invariant 10). A policy default deadline propagates into each
//!     job's [`ExecutionOptions::deadline_secs`] budget gauge;
//!   - the shard-turn rotation: running jobs take turns in rotation
//!     order, and several hold turns at once while their summed shares
//!     fit the machine's available parallelism;
//!   - the running jobs' checkpoint halts and the drain state machine
//!     (`serving → draining → closed`): a drain stops admitting, fires
//!     every running job's [`KillSwitch`] so journaled jobs stop at their
//!     next terminal, and closes once nothing is in flight — a restart
//!     then resumes every checkpointed job bit-identically with
//!     exactly-once billing.
//!
//!   The in-flight, admitted and shed totals are derived from the
//!   ledger's rows, never counted beside them.
//! * [`JobScheduler`] — the shell around the core: one `Mutex` and one
//!   `Condvar`, shared by jobs waiting for a slot and jobs waiting for a
//!   turn. It locks, runs one transition, unlocks, and only then records
//!   the transition's events (`job_accepted`, `job_completed`,
//!   `job_rejected`, `job_shed`, `queue_depth`, `drain_transition`), so
//!   no tracer, handler or file write runs under the lock. A guard runs
//!   the failed transition for an admitted job that unwinds, so a panic
//!   cannot leak a slot, a turn or a halt.
//! * [`OpsPlane`] — the live observability plane: per-tenant windowed
//!   metrics ([`dprep_obs::WindowAggregator`]) and SLO burn-rate alerting
//!   ([`dprep_obs::SloEngine`]) fed by each job's trace stream, plus an
//!   optional [`dprep_obs::FlightRecorder`] that dumps a postmortem when
//!   an alert pages. Windows and alert timelines fold only the executor's
//!   plan-ordered events over the sequential-account virtual clock, so
//!   they are bit-identical across `--workers` counts and repeat runs.
//! * [`Daemon`] — the TCP front end: newline-delimited JSON requests, one
//!   thread per connection, with `ping` / `submit` / `stats` / `metrics`
//!   (Prometheus text with a `tenant` label; `"format":"raw"` returns the
//!   scrape body verbatim) / `health` (per-tenant windowed rates and alert
//!   states, for `dprep top`) / `drain` / `shutdown` operations. The
//!   workload itself is supplied as a [`JobHandler`] closure, so the
//!   daemon core stays free of dataset and model-stack dependencies. The
//!   wire layer is hardened by [`WireLimits`]: a max NDJSON frame size,
//!   an idle timeout between frames, and a frame-completion timeout, so
//!   an oversized line, binary garbage, a torn frame, or a slow-loris
//!   client costs one connection thread at worst and never stalls the
//!   accept loop or other clients. Every frame, request or reply, goes
//!   out in one write on a `TCP_NODELAY` socket, so no frame waits on
//!   the peer's delayed ACK; the accept loop blocks in `accept` and is
//!   woken by a loopback connection when shutdown is requested or a
//!   drain goes quiet.
//!
//! Everything here is std-only, like the rest of the workspace.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dprep_obs::{
    render_prom_daemon, render_prom_tenants, FlightRecorder, Json, MetricsSnapshot, NullTracer,
    SloEngine, SloSpec, TraceEvent, Tracer, WindowAggregator, WindowConfig, WindowSnapshot,
};

use crate::exec::{ExecutionOptions, KillSwitch};
use crate::pipeline::RunResult;

/// The executor's cooperative fairness hook. The executor calls
/// [`acquire`](ShardGate::acquire) before rendering each plan shard and
/// [`release`](ShardGate::release) after parsing it (release always runs,
/// even when the shard errors), so an implementation can interleave
/// concurrent jobs at shard granularity. A plan run as one shard takes
/// one turn. Both calls happen on the job's own thread; `acquire` may
/// block.
pub trait ShardGate: Send + Sync {
    /// Blocks until the job holds the turn. Balanced by `release`.
    fn acquire(&self);
    /// Gives the turn up; the next waiter may proceed.
    fn release(&self);
}

/// Remaining allowance over allowance, for a capped tenant.
fn headroom(budget: Option<usize>, tokens_billed: usize) -> Option<f64> {
    budget.map(|budget| match budget {
        0 => 0.0,
        _ => budget.saturating_sub(tokens_billed) as f64 / budget as f64,
    })
}

/// One tenant's ledger row (see [`TenantLedger::rows`]).
#[derive(Debug, Clone, Default)]
pub struct TenantUsage {
    /// The tenant's token allowance, if capped.
    pub budget: Option<usize>,
    /// Tokens billed across the tenant's completed jobs.
    pub tokens_billed: usize,
    /// Dollars billed across the tenant's completed jobs.
    pub cost_usd: f64,
    /// Jobs admitted and still running: the tenant's in-flight slots.
    pub jobs_active: usize,
    /// Jobs that completed and settled.
    pub jobs_completed: u64,
    /// Jobs that errored while running.
    pub jobs_failed: u64,
    /// Jobs turned away at admission (allowance exhausted).
    pub jobs_rejected: u64,
    /// Completed jobs whose own deadline or token budget tripped.
    pub jobs_tripped: u64,
    /// Jobs shed by the overload policy before any work (billed zero).
    pub jobs_shed: u64,
    /// The completed jobs' metrics, merged: the tenant's Prometheus
    /// series.
    pub metrics: MetricsSnapshot,
}

/// Per-tenant token allowances, billed totals and job counts: the
/// [`DaemonCore`]'s tenant table.
///
/// Admission is charge-aware, not reservation-based: a job is admitted
/// with `min(its own budget, tenant remaining)` as its effective token
/// budget and bills what it actually spent at settlement. Two concurrent
/// jobs of one tenant can therefore jointly overshoot the allowance by at
/// most one job's effective budget — the same charge-then-check semantics
/// the per-run [`ExecutionOptions::token_budget`] gauge uses.
#[derive(Debug, Default)]
pub struct TenantLedger {
    tenants: BTreeMap<String, TenantUsage>,
    /// Allowance for tenants never configured explicitly (None = uncapped).
    default_budget: Option<usize>,
}

impl TenantLedger {
    /// A ledger with uncapped tenants by default.
    pub fn new() -> TenantLedger {
        TenantLedger::default()
    }

    /// Caps tenants that were never configured explicitly.
    pub fn with_default_budget(mut self, tokens: Option<usize>) -> TenantLedger {
        self.default_budget = tokens;
        self
    }

    /// Sets (or lifts, with `None`) a tenant's token allowance.
    pub fn set_budget(&mut self, tenant: &str, tokens: Option<usize>) {
        self.row(tenant).budget = tokens;
    }

    /// `tenant`'s row, created under the default allowance when new.
    fn row(&mut self, tenant: &str) -> &mut TenantUsage {
        let budget = self.default_budget;
        self.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantUsage {
                budget,
                ..TenantUsage::default()
            })
    }

    /// Every tenant's row, in name order.
    pub fn rows(&self) -> &BTreeMap<String, TenantUsage> {
        &self.tenants
    }
}

/// Declarative overload limits for a [`JobScheduler`]. Every field
/// defaults to `None` (unlimited), which reproduces the unprotected
/// behavior exactly; setting any cap turns excess load into structured
/// shedding instead of unbounded queueing.
#[derive(Debug, Clone, Default)]
pub struct OverloadPolicy {
    /// Max jobs running concurrently (holding in-flight slots).
    pub max_inflight: Option<usize>,
    /// Max jobs waiting for an in-flight slot. `None` means *no* wait
    /// queue: once in-flight slots are full, excess jobs shed immediately
    /// — a bounded queue is opt-in, queueing forever is not on the menu.
    pub max_queued: Option<usize>,
    /// Max in-flight jobs per tenant. A tenant at its cap sheds rather
    /// than queues, so one tenant cannot camp the shared wait queue.
    pub tenant_inflight: Option<usize>,
    /// Deadline applied to jobs that did not request one, in virtual
    /// seconds (propagates into [`ExecutionOptions::deadline_secs`]).
    pub default_deadline_secs: Option<f64>,
}

/// A structured admission refusal: why the job was turned away before any
/// model work, and when (if ever) a retry is worthwhile.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Refusal class: `overloaded` / `draining` / `deadline` /
    /// `budget-exhausted`.
    pub kind: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Suggested client backoff before resubmitting, in seconds.
    /// `Some` for transient refusals (overload), `None` for refusals a
    /// retry cannot fix unchanged (exhausted allowance, dead deadline).
    pub retry_after_secs: Option<f64>,
}

/// How a job submitted to [`JobScheduler::run_job`] can fail: turned away
/// at admission with a structured [`Rejection`], or admitted but errored
/// while running.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Refused before any work: overload shed, drain, dead deadline, or
    /// exhausted tenant allowance. Bills zero tokens by construction.
    Rejected(Rejection),
    /// Admitted, ran, and failed; partial spend may have been billed.
    Failed(String),
}

impl JobError {
    /// The human-readable error message.
    pub fn message(&self) -> &str {
        match self {
            JobError::Rejected(rejection) => &rejection.message,
            JobError::Failed(message) => message,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

/// A point-in-time view of the scheduler's overload gate, for `health` /
/// `stats` / Prometheus surfacing.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadSnapshot {
    /// Drain state: `serving` / `draining` / `closed`.
    pub state: &'static str,
    /// Jobs holding in-flight slots.
    pub inflight: usize,
    /// Jobs waiting in the admission queue.
    pub queued: usize,
    /// Lifetime jobs admitted past the overload gate.
    pub admitted_total: u64,
    /// Lifetime jobs shed by the overload gate.
    pub shed_total: u64,
}

/// What the scheduler grants an admitted job: its id, its shard-turn gate
/// (wire it into the executor with `with_shard_gate`), its effective
/// execution options — the requested options with `token_budget` clamped
/// to the tenant's remaining allowance and `workers` to the job's turn
/// share — and its drain halt.
pub struct JobGrant {
    /// Job id (per-scheduler, starts at 1).
    pub job: u64,
    /// The job's slot in the shard-turn rotation.
    pub gate: Arc<dyn ShardGate>,
    /// Admission-clamped execution options for the run.
    pub options: ExecutionOptions,
    /// The job's checkpoint halt: unarmed at grant, fired by a drain.
    /// Journaled handlers should wire it into the executor
    /// (`with_kill_switch`) so a drain checkpoints the job at its next
    /// journaled terminal instead of losing billed work.
    pub halt: KillSwitch,
}

/// What a finished job reports back for settlement and the reply wire.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// Extra reply fields the daemon merges into the `submit` response.
    pub reply: Vec<(String, Json)>,
    /// Tokens billed by the run (fresh attempts only).
    pub tokens_billed: usize,
    /// Dollars billed by the run.
    pub cost_usd: f64,
    /// Whether the job's own deadline or token budget tripped.
    pub budget_tripped: bool,
    /// The run's metrics snapshot, folded into the tenant's registry.
    pub metrics: MetricsSnapshot,
}

/// Where the daemon is in its drain chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainState {
    Serving,
    Draining,
    Closed,
}

/// A running job: its tenant, its share of the turn limit and its drain
/// halt.
#[derive(Debug)]
struct Running {
    tenant: String,
    share: usize,
    halt: KillSwitch,
}

/// What admission decided for a job.
#[derive(Debug)]
pub enum Admission {
    /// The job holds an in-flight slot and a place in the turn rotation.
    /// It runs under these options — its token budget clamped to its
    /// tenant's allowance, its workers to its turn share, the policy's
    /// default deadline filled in — with this drain halt.
    Admitted(ExecutionOptions, KillSwitch),
    /// The job waits in the bounded queue: retry it after a later
    /// transition.
    Queued,
    /// Turned away before any work; the job bills nothing.
    Refused(Rejection),
}

/// A refusal of `kind`.
fn refusal(kind: &'static str, message: String, retry_after_secs: Option<f64>) -> Rejection {
    Rejection {
        kind,
        message,
        retry_after_secs,
    }
}

/// The daemon's scheduling state; every change is a transition (see the
/// module docs). Admission follows one ladder: a non-positive deadline
/// sheds (`deadline`), then a drain sheds (`draining`), then a tenant at
/// its cap sheds, then a full gate queues or, with the queue full, sheds
/// (`overloaded`), then an exhausted allowance refuses
/// (`budget-exhausted`).
///
/// Turns keep rotation order by reservation: a waiting job starts a turn
/// only in the capacity left by the jobs holding turns and by every job
/// ahead of it in the rotation, asking yet or not. So a job never waits
/// on one behind it, a wide job is not starved by a stream of narrow
/// ones, and no turn waits while capacity idles. A job's share is its
/// worker count capped at the limit: a job at least as wide as the limit
/// runs alone, and at limit 1 every job does (strict alternation). A job
/// leaves the rotation when it settles or fails, even mid-turn.
#[derive(Debug)]
pub struct DaemonCore {
    policy: OverloadPolicy,
    /// Summed shares that may hold turns at once.
    limit: usize,
    ledger: TenantLedger,
    /// Jobs waiting in the admission queue.
    queued: usize,
    running: BTreeMap<u64, Running>,
    /// Running jobs not holding a turn, in rotation order.
    rotation: VecDeque<u64>,
    /// Running jobs holding a turn.
    holding: Vec<u64>,
    drain: DrainState,
    next_job: u64,
}

impl DaemonCore {
    /// A serving core billing against `ledger`, whose turns admit `limit`
    /// summed shares at once.
    pub fn new(policy: OverloadPolicy, limit: usize, ledger: TenantLedger) -> DaemonCore {
        DaemonCore {
            policy,
            limit: limit.max(1),
            ledger,
            queued: 0,
            running: BTreeMap::new(),
            rotation: VecDeque::new(),
            holding: Vec::new(),
            drain: DrainState::Serving,
            next_job: 1,
        }
    }

    /// A new job of `tenant` asking for `options`: takes the next job id,
    /// then runs admission.
    pub fn submit(
        &mut self,
        tenant: &str,
        options: ExecutionOptions,
    ) -> (u64, Admission, Vec<TraceEvent>) {
        let job = self.next_job;
        self.next_job += 1;
        let deadline = options.deadline_secs.or(self.policy.default_deadline_secs);
        let (admission, events) = match deadline.filter(|&secs| secs <= 0.0) {
            Some(secs) => {
                let message = format!("job cannot finish by its deadline ({secs}s at admission)");
                self.shed(job, tenant, refusal("deadline", message, None))
            }
            None => self.admit(job, tenant, options, false),
        };
        (job, admission, events)
    }

    /// Queued `job` asks again, after a transition that may have freed a
    /// slot or started a drain.
    pub fn retry(
        &mut self,
        job: u64,
        tenant: &str,
        options: ExecutionOptions,
    ) -> (Admission, Vec<TraceEvent>) {
        self.admit(job, tenant, options, true)
    }

    /// Admission past the deadline check, for a new job or a queued one.
    fn admit(
        &mut self,
        job: u64,
        tenant: &str,
        options: ExecutionOptions,
        queued: bool,
    ) -> (Admission, Vec<TraceEvent>) {
        let inflight = self.inflight();
        if self.drain != DrainState::Serving {
            self.queued -= usize::from(queued);
            let message = "daemon is draining and admits no new jobs".to_string();
            return self.shed(job, tenant, refusal("draining", message, None));
        }
        let held = self
            .ledger
            .tenants
            .get(tenant)
            .map_or(0, |row| row.jobs_active);
        let tenant_capped = self.policy.tenant_inflight.is_some_and(|cap| held >= cap);
        if tenant_capped || self.policy.max_inflight.is_some_and(|cap| inflight >= cap) {
            if queued {
                return (Admission::Queued, Vec::new());
            }
            // A tenant at its own cap sheds instead of queueing, so one
            // tenant cannot occupy the shared queue; likewise a full
            // queue sheds instead of blocking the wire thread forever.
            if tenant_capped || self.queued >= self.policy.max_queued.unwrap_or(0) {
                let message = if tenant_capped {
                    format!("tenant {tenant:?} is at its concurrency cap ({held} in flight)")
                } else {
                    let queued = self.queued;
                    format!("admission queue is full ({queued} queued, {inflight} in flight)")
                };
                // Longer the deeper the backlog, so colliding clients
                // spread their retries.
                let after = 0.5 * (self.queued + inflight + 1) as f64;
                return self.shed(job, tenant, refusal("overloaded", message, Some(after)));
            }
            self.queued += 1;
            return (Admission::Queued, vec![self.queue_depth()]);
        }
        self.queued -= usize::from(queued);
        let row = self.ledger.row(tenant);
        let token_budget = match row.budget.map(|b| (b, b.saturating_sub(row.tokens_billed))) {
            None => options.token_budget,
            Some((budget, 0)) => {
                row.jobs_rejected += 1;
                let billed = row.tokens_billed;
                let reason = format!(
                    "tenant {tenant:?} token allowance exhausted ({billed} billed of {budget})"
                );
                let event = TraceEvent::JobRejected {
                    tenant: tenant.to_string(),
                    reason: reason.clone(),
                };
                let rejection = refusal("budget-exhausted", reason, None);
                return (Admission::Refused(rejection), vec![event]);
            }
            Some((_, remaining)) => {
                Some(options.token_budget.map_or(remaining, |r| r.min(remaining)))
            }
        };
        row.jobs_active += 1;
        // A job runs on no more threads than its turn share: the survey
        // spans the whole plan, not one shard, so an unclamped count would
        // spawn a thread per batch.
        let share = options.workers.clamp(1, self.limit);
        let halt = KillSwitch::unarmed();
        let tenant = tenant.to_string();
        let accepted = TraceEvent::JobAccepted {
            job,
            tenant: tenant.clone(),
        };
        let events = vec![self.queue_depth(), accepted];
        let running = Running {
            tenant,
            share,
            halt: halt.clone(),
        };
        self.running.insert(job, running);
        self.rotation.push_back(job);
        let options = ExecutionOptions {
            workers: share,
            token_budget,
            deadline_secs: options.deadline_secs.or(self.policy.default_deadline_secs),
            ..options
        };
        (Admission::Admitted(options, halt), events)
    }

    /// Books a shed on `tenant`'s row; the job bills nothing.
    fn shed(
        &mut self,
        job: u64,
        tenant: &str,
        rejection: Rejection,
    ) -> (Admission, Vec<TraceEvent>) {
        self.ledger.row(tenant).jobs_shed += 1;
        let event = TraceEvent::JobShed {
            job,
            tenant: tenant.to_string(),
            reason: rejection.kind.to_string(),
            retry_after_secs: rejection.retry_after_secs.unwrap_or(0.0),
            queued: self.queued,
            inflight: self.inflight(),
        };
        (Admission::Refused(rejection), vec![event])
    }

    /// The gate's occupancy, as the event a job entering the queue or an
    /// in-flight slot emits.
    fn queue_depth(&self) -> TraceEvent {
        TraceEvent::QueueDepth {
            queued: self.queued,
            inflight: self.inflight(),
        }
    }

    /// Running `job` asks for a shard turn: true when it starts one (or
    /// holds no place in the rotation to wait for), false when it must
    /// wait for a later transition.
    pub fn turn_requested(&mut self, job: u64) -> bool {
        let Some(position) = self.rotation.iter().position(|&j| j == job) else {
            return true;
        };
        // The capacity claimed once this job starts: every holder's share
        // plus every share up to and including its own.
        let ahead = self.rotation.range(..=position);
        let claimed: usize = ahead.chain(&self.holding).map(|&j| self.share(j)).sum();
        if claimed > self.limit {
            return false;
        }
        self.rotation.remove(position);
        self.holding.push(job);
        true
    }

    /// `job` gives its turn up and goes to the back of the rotation.
    pub fn turn_released(&mut self, job: u64) {
        if let Some(i) = self.holding.iter().position(|&j| j == job) {
            self.holding.swap_remove(i);
            self.rotation.push_back(job);
        }
    }

    /// Running `job` finished with `outcome`: bills its tenant, merges its
    /// metrics, and frees its slot, turn and halt. Returns the tenant's
    /// headroom after the bill (capped tenants only).
    pub fn settled(&mut self, job: u64, outcome: &JobOutcome) -> (Option<f64>, Vec<TraceEvent>) {
        let Some(tenant) = self.end(job) else {
            return (None, Vec::new());
        };
        let row = self.ledger.row(&tenant);
        row.tokens_billed += outcome.tokens_billed;
        row.cost_usd += outcome.cost_usd;
        row.jobs_completed += 1;
        row.jobs_tripped += u64::from(outcome.budget_tripped);
        row.metrics.merge(&outcome.metrics);
        let headroom = headroom(row.budget, row.tokens_billed);
        let event = TraceEvent::JobCompleted {
            job,
            tenant,
            tokens: outcome.tokens_billed,
            cost_usd: outcome.cost_usd,
            budget_tripped: outcome.budget_tripped,
        };
        (headroom, vec![event])
    }

    /// Running `job` failed for `reason`: frees its slot, turn and halt,
    /// billing nothing.
    pub fn failed(&mut self, job: u64, reason: &str) -> Vec<TraceEvent> {
        let Some(tenant) = self.end(job) else {
            return Vec::new();
        };
        self.ledger.row(&tenant).jobs_failed += 1;
        let reason = reason.to_string();
        vec![TraceEvent::JobRejected { tenant, reason }]
    }

    /// Takes `job` out of the running set and the rotation; its tenant,
    /// if it was running.
    fn end(&mut self, job: u64) -> Option<String> {
        let Running { tenant, .. } = self.running.remove(&job)?;
        self.rotation.retain(|&j| j != job);
        self.holding.retain(|&j| j != job);
        self.ledger.row(&tenant).jobs_active -= 1;
        Some(tenant)
    }

    /// Starts a drain: admission sheds every new and queued job as
    /// `draining`, and every running job's checkpoint halt fires.
    /// Idempotent.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        if self.drain != DrainState::Serving {
            return Vec::new();
        }
        self.drain = DrainState::Draining;
        for running in self.running.values() {
            running.halt.trigger();
        }
        let inflight = self.inflight();
        vec![TraceEvent::DrainTransition {
            from: "serving",
            to: "draining",
            inflight,
        }]
    }

    /// Completes a drain once nothing is in flight or queued. Idempotent;
    /// a no-op unless draining.
    pub fn close(&mut self) -> Vec<TraceEvent> {
        if self.drain != DrainState::Draining || !self.quiesced() {
            return Vec::new();
        }
        self.drain = DrainState::Closed;
        vec![TraceEvent::DrainTransition {
            from: "draining",
            to: "closed",
            inflight: 0,
        }]
    }

    /// The gate's occupancy and lifetime totals, read off the ledger.
    pub fn overload(&self) -> OverloadSnapshot {
        let rows = || self.ledger.tenants.values();
        OverloadSnapshot {
            state: match self.drain {
                DrainState::Serving => "serving",
                DrainState::Draining => "draining",
                DrainState::Closed => "closed",
            },
            inflight: self.inflight(),
            queued: self.queued,
            admitted_total: rows()
                .map(|r| r.jobs_active as u64 + r.jobs_completed + r.jobs_failed)
                .sum(),
            shed_total: rows().map(|r| r.jobs_shed).sum(),
        }
    }

    /// The tenant table.
    pub fn ledger(&self) -> &TenantLedger {
        &self.ledger
    }

    /// The jobs holding turns, then the running ones waiting, in
    /// rotation order.
    pub fn turns(&self) -> (&[u64], &VecDeque<u64>) {
        (&self.holding, &self.rotation)
    }

    /// Running `job`'s share of the turn limit (0 once it has ended).
    pub fn share(&self, job: u64) -> usize {
        self.running.get(&job).map_or(0, |running| running.share)
    }

    fn inflight(&self) -> usize {
        self.ledger.tenants.values().map(|r| r.jobs_active).sum()
    }

    fn quiesced(&self) -> bool {
        self.inflight() == 0 && self.queued == 0
    }

    /// Whether a drain has started and gone quiet.
    fn drained(&self) -> bool {
        self.drain != DrainState::Serving && self.quiesced()
    }
}

/// The one lock over a [`DaemonCore`], and the signal its waiters share.
struct Shared {
    core: Mutex<DaemonCore>,
    changed: Condvar,
}

impl Shared {
    #[allow(
        clippy::expect_used,
        reason = "no tracer, handler, clock read or file write runs under the core lock, \
                  and the explorer drives every transition, so only a bug in a transition \
                  could poison it"
    )]
    fn lock(&self) -> MutexGuard<'_, DaemonCore> {
        self.core.lock().expect("daemon core lock")
    }

    #[allow(clippy::expect_used, reason = "as for `lock`")]
    fn wait<'a>(&self, core: MutexGuard<'a, DaemonCore>) -> MutexGuard<'a, DaemonCore> {
        self.changed.wait(core).expect("daemon core lock")
    }
}

/// A job's [`ShardGate`]: its place in the core's turn rotation.
struct Turns {
    shared: Arc<Shared>,
    job: u64,
}

impl ShardGate for Turns {
    fn acquire(&self) {
        let mut core = self.shared.lock();
        while !core.turn_requested(self.job) {
            core = self.shared.wait(core);
        }
    }

    fn release(&self) {
        self.shared.lock().turn_released(self.job);
        self.shared.changed.notify_all();
    }
}

/// Fails an admitted job that leaves [`JobScheduler::run_job`] without
/// settling — a tracer panicking through it — so its slot, turn and halt
/// cannot leak.
struct Unsettled<'a> {
    shared: &'a Shared,
    job: Option<u64>,
}

impl Drop for Unsettled<'_> {
    fn drop(&mut self) {
        let Some(job) = self.job else { return };
        // A core poisoned by a transition's own panic is left as it is, for
        // `Drop` must not panic; the events go unrecorded, for the tracer
        // is what unwinds.
        if let Ok(mut core) = self.shared.core.lock() {
            let _ = core.failed(job, "job ended without settling");
            drop(core);
            self.shared.changed.notify_all();
        }
    }
}

/// Admission, shard turns and settlement for concurrent jobs: the shell
/// that runs [`DaemonCore`] transitions under one lock and records their
/// events after it.
pub struct JobScheduler {
    shared: Arc<Shared>,
    tracer: Arc<dyn Tracer>,
}

impl JobScheduler {
    /// A scheduler billing against `ledger`, whose shard turns share the
    /// machine's available parallelism.
    pub fn new(ledger: TenantLedger) -> JobScheduler {
        let limit = std::thread::available_parallelism().map_or(1, |n| n.get());
        let core = DaemonCore::new(OverloadPolicy::default(), limit, ledger);
        JobScheduler {
            shared: Arc::new(Shared {
                core: Mutex::new(core),
                changed: Condvar::new(),
            }),
            tracer: Arc::new(NullTracer),
        }
    }

    /// Streams `job_accepted` / `job_completed` / `job_rejected` /
    /// `job_shed` / `queue_depth` / `drain_transition` events into
    /// `tracer`.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> JobScheduler {
        self.tracer = tracer;
        self
    }

    /// Bounds admission with `policy` (see [`OverloadPolicy`]).
    pub fn with_policy(self, policy: OverloadPolicy) -> JobScheduler {
        self.shared.lock().policy = policy;
        self
    }

    /// Reads the core under its lock.
    fn read<R>(&self, read: impl FnOnce(&DaemonCore) -> R) -> R {
        read(&self.shared.lock())
    }

    fn record(&self, events: &[TraceEvent]) {
        for event in events {
            self.tracer.record(event);
        }
    }

    /// The overload gate's current occupancy and lifetime totals.
    pub fn overload_snapshot(&self) -> OverloadSnapshot {
        self.read(DaemonCore::overload)
    }

    /// Starts a drain (see [`DaemonCore::drain`]) and wakes queued jobs,
    /// so they shed as draining instead of waiting on slots that will
    /// never be granted to them.
    pub fn drain(&self) {
        let events = self.shared.lock().drain();
        self.shared.changed.notify_all();
        self.record(&events);
    }

    /// Completes the drain chain once nothing is in flight.
    fn close(&self) {
        let events = self.shared.lock().close();
        self.record(&events);
    }

    /// Admits, runs, and settles one job on the calling thread.
    ///
    /// `body` receives the [`JobGrant`] and must run the workload under
    /// `grant.options` with `grant.gate` wired into the executor
    /// (`with_shard_gate`), returning the outcome to bill. The job leaves
    /// the turn rotation when it settles, whatever the result.
    ///
    /// Admission follows [`DaemonCore`]'s ladder; a job refused there is
    /// a [`JobError::Rejected`] that billed zero tokens. A failure from
    /// `body` is [`JobError::Failed`], and so is a panic in `body`: it is
    /// caught here, so the job's slot, halt, and ledger row are settled
    /// like any other failure's instead of leaking.
    pub fn run_job(
        &self,
        tenant: &str,
        requested: ExecutionOptions,
        body: impl FnOnce(&JobGrant) -> Result<JobOutcome, String>,
    ) -> Result<(u64, JobOutcome), JobError> {
        self.run(tenant, requested, body)
            .map(|(job, outcome, _)| (job, outcome))
    }

    /// [`run_job`](Self::run_job), also returning the tenant's headroom
    /// after the job settled.
    fn run(
        &self,
        tenant: &str,
        requested: ExecutionOptions,
        body: impl FnOnce(&JobGrant) -> Result<JobOutcome, String>,
    ) -> Result<(u64, JobOutcome, Option<f64>), JobError> {
        let mut core = self.shared.lock();
        let (job, mut admission, mut events) = core.submit(tenant, requested);
        let (options, halt) = loop {
            match admission {
                Admission::Admitted(options, halt) => break (options, halt),
                Admission::Refused(rejection) => {
                    drop(core);
                    self.record(&events);
                    return Err(JobError::Rejected(rejection));
                }
                Admission::Queued => {
                    core = self.shared.wait(core);
                    let (next, more) = core.retry(job, tenant, requested);
                    admission = next;
                    events.extend(more);
                }
            }
        };
        drop(core);
        let mut unsettled = Unsettled {
            shared: &self.shared,
            job: Some(job),
        };
        self.record(&events);
        let grant = JobGrant {
            job,
            gate: Arc::new(Turns {
                shared: Arc::clone(&self.shared),
                job,
            }),
            options,
            halt,
        };
        let result =
            std::panic::catch_unwind(AssertUnwindSafe(|| body(&grant))).unwrap_or_else(|panic| {
                let message = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string payload");
                Err(format!("job handler panicked: {message}"))
            });
        let mut core = self.shared.lock();
        let (headroom, events) = match &result {
            Ok(outcome) => core.settled(job, outcome),
            Err(reason) => (None, core.failed(job, reason)),
        };
        unsettled.job = None;
        drop(core);
        self.shared.changed.notify_all();
        self.record(&events);
        result
            .map(|outcome| (job, outcome, headroom))
            .map_err(JobError::Failed)
    }
}

/// One tenant's slice of the ops plane: its sliding window, its SLO
/// engine, and the alert timeline accumulated so far.
struct TenantOps {
    window: WindowAggregator,
    slo: SloEngine,
    timeline: Vec<TraceEvent>,
}

/// One tenant's live view, as reported by [`OpsPlane::health`] and the
/// daemon's `health` op.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantHealth {
    /// Tenant name.
    pub tenant: String,
    /// The tenant's windowed snapshot.
    pub window: WindowSnapshot,
    /// `(objective, alert state, burn_long, burn_short)` per objective.
    pub slos: Vec<(&'static str, &'static str, f64, f64)>,
    /// Alert transitions observed so far.
    pub transitions: usize,
}

/// The daemon's live observability plane.
///
/// One [`WindowAggregator`] + [`SloEngine`] pair per tenant, fed through
/// [`tracer_for`](Self::tracer_for) handles wired into each job's
/// preprocessor. Both consumers fold only the executor's plan-ordered
/// events (worker-thread `dispatched` events mutate nothing), and each
/// tenant's clock is the sequential-account virtual time of its own
/// stream, so windows and alert timelines are deterministic per tenant as
/// long as the tenant's jobs run sequentially — concurrency *across*
/// tenants never perturbs them. An optional [`FlightRecorder`] receives
/// every event plus the emitted transitions, dumping a postmortem when an
/// alert reaches `paging`.
pub struct OpsPlane {
    specs: Vec<SloSpec>,
    config: WindowConfig,
    tenants: Mutex<BTreeMap<String, TenantOps>>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl OpsPlane {
    /// A plane evaluating `specs` over windows of `config` geometry.
    pub fn new(specs: Vec<SloSpec>, config: WindowConfig) -> OpsPlane {
        OpsPlane {
            specs,
            config,
            tenants: Mutex::new(BTreeMap::new()),
            recorder: None,
        }
    }

    /// Attaches a flight recorder (postmortem dumps on paging alerts).
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> OpsPlane {
        self.recorder = Some(recorder);
        self
    }

    /// The per-tenant table, locked.
    #[allow(
        clippy::expect_used,
        reason = "only the windows' and SLO engines' folds of plain data run under the \
                  plane's lock: no tracer, recorder call or file write"
    )]
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, TenantOps>> {
        self.tenants.lock().expect("ops plane lock")
    }

    /// A [`Tracer`] handle that attributes every event it records to
    /// `tenant`. Wire one into each job's preprocessor.
    pub fn tracer_for(self: &Arc<Self>, tenant: &str) -> Arc<dyn Tracer> {
        Arc::new(OpsTracer {
            plane: Arc::clone(self),
            tenant: tenant.to_string(),
        })
    }

    /// Feeds one of `tenant`'s events through its window and SLO engine,
    /// recording it (and any alert transitions) into the flight recorder.
    pub fn observe(&self, tenant: &str, event: &TraceEvent) {
        if let Some(recorder) = &self.recorder {
            recorder.record(event);
        }
        let mut tenants = self.lock();
        let ops = Self::entry(&mut tenants, &self.specs, self.config, tenant);
        ops.window.observe(event);
        let vt = ops.window.vt_secs();
        let transitions = ops.slo.observe(event, vt);
        ops.timeline.extend(transitions.iter().cloned());
        drop(tenants);
        self.record_transitions(&transitions);
    }

    /// Reports `tenant`'s current budget headroom fraction (remaining /
    /// allowance) to its headroom objective, if one is configured.
    pub fn note_headroom(&self, tenant: &str, fraction: f64) {
        let mut tenants = self.lock();
        let ops = Self::entry(&mut tenants, &self.specs, self.config, tenant);
        let vt = ops.window.vt_secs();
        let transitions = ops.slo.note_headroom(fraction, vt);
        ops.timeline.extend(transitions.iter().cloned());
        drop(tenants);
        self.record_transitions(&transitions);
    }

    /// Feeds alert transitions to the recorder, where a `paging`
    /// transition triggers the postmortem dump. Runs outside the plane
    /// lock — dumping writes a file.
    fn record_transitions(&self, transitions: &[TraceEvent]) {
        if let Some(recorder) = &self.recorder {
            for transition in transitions {
                recorder.record(transition);
            }
        }
    }

    fn entry<'a>(
        tenants: &'a mut BTreeMap<String, TenantOps>,
        specs: &[SloSpec],
        config: WindowConfig,
        tenant: &str,
    ) -> &'a mut TenantOps {
        tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantOps {
                window: WindowAggregator::new(config),
                slo: SloEngine::new(tenant, specs, config),
                timeline: Vec::new(),
            })
    }

    /// Every tenant's live view, in name order.
    pub fn health(&self) -> Vec<TenantHealth> {
        let tenants = self.lock();
        tenants
            .iter()
            .map(|(tenant, ops)| TenantHealth {
                tenant: tenant.clone(),
                window: ops.window.snapshot(),
                slos: ops.slo.states(),
                transitions: ops.timeline.len(),
            })
            .collect()
    }

    /// Every tenant's alert timeline (transition events in emission
    /// order), in name order — the determinism drills compare these
    /// byte-for-byte across worker counts.
    pub fn timelines(&self) -> BTreeMap<String, Vec<TraceEvent>> {
        let tenants = self.lock();
        tenants
            .iter()
            .map(|(tenant, ops)| (tenant.clone(), ops.timeline.clone()))
            .collect()
    }
}

/// The per-tenant [`Tracer`] handle [`OpsPlane::tracer_for`] hands out.
struct OpsTracer {
    plane: Arc<OpsPlane>,
    tenant: String,
}

impl Tracer for OpsTracer {
    fn record(&self, event: &TraceEvent) {
        self.plane.observe(&self.tenant, event);
    }
}

/// A stable 64-bit digest of a run's observable outcome (predictions,
/// usage totals, serving counters). Two runs are bit-identical for serving
/// purposes exactly when their fingerprints match; the daemon returns it
/// on every `submit` so clients can compare against a one-shot run without
/// shipping predictions over the wire.
pub fn result_fingerprint(result: &RunResult) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |text: &str| {
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&format!("{:?}", result.predictions));
    eat(&format!("{:?}", result.usage));
    eat(&format!("{:?}", result.stats));
    hash
}

/// The daemon's workload: given the parsed `submit` request body and the
/// scheduler's grant, run the job and report its outcome. Implementations
/// must run under `grant.options` and wire `grant.gate` into the executor
/// — the daemon cannot enforce either from outside the closure.
pub type JobHandler = dyn Fn(&Json, &JobGrant) -> Result<JobOutcome, String> + Send + Sync;

/// How long a blocked connection read waits before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long the connection that wakes the accept loop may take to connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Wire-level protection limits for one daemon connection. Defaults are
/// generous for interactive clients but bounded, so a single hostile or
/// broken peer (an oversized line, a byte-at-a-time slow loris, a client
/// that connects and never writes) occupies at most one connection thread
/// for a bounded time and never affects the accept loop.
#[derive(Debug, Clone)]
pub struct WireLimits {
    /// Max bytes in one NDJSON request line (excluding the newline).
    /// Oversized frames answer an error naming the limit, then close.
    pub max_frame_bytes: usize,
    /// Max wall seconds to finish a frame once its first byte arrived
    /// (slow-loris protection). Timed-out frames answer an error, then
    /// close.
    pub frame_secs: f64,
    /// Max wall seconds a connection may sit idle between frames (a
    /// client that connects but never writes). Idle connections close
    /// silently.
    pub idle_secs: f64,
    /// Write timeout for replies, in wall seconds (a client that stops
    /// reading cannot pin the thread on a full socket buffer).
    pub write_secs: f64,
}

/// The longest wire timeout a daemon's operator may set, in seconds (365
/// days). Longer ones mean "never" in practice; past `u64::MAX` seconds a
/// [`Duration`] cannot hold them at all.
pub const MAX_WIRE_SECS: f64 = 31_536_000.0;

/// `secs` as a [`Duration`], saturating instead of panicking: a count past
/// what a `Duration` holds reads as the longest one, and a negative or NaN
/// count as none. A [`WireLimits`] built in code is not checked against
/// [`MAX_WIRE_SECS`], so its timeouts go through here.
fn wire_duration(secs: f64) -> Duration {
    Duration::try_from_secs_f64(secs).unwrap_or(if secs > 0.0 {
        Duration::MAX
    } else {
        Duration::ZERO
    })
}

impl Default for WireLimits {
    fn default() -> WireLimits {
        WireLimits {
            max_frame_bytes: 256 * 1024,
            frame_secs: 10.0,
            idle_secs: 300.0,
            write_secs: 10.0,
        }
    }
}

/// How one attempt to read a request frame ended (see
/// [`Daemon::read_frame`]).
enum FrameOutcome {
    /// A complete line (newline excluded).
    Frame(Vec<u8>),
    /// EOF at a frame boundary: clean close.
    Closed,
    /// EOF mid-frame: the client died leaving a torn frame.
    Torn,
    /// The frame exceeded [`WireLimits::max_frame_bytes`].
    Oversized,
    /// No frame started within [`WireLimits::idle_secs`].
    Idle,
    /// A started frame did not finish within [`WireLimits::frame_secs`].
    Stalled,
    /// The daemon is shutting down.
    Shutdown,
}

/// The `dprep serve` TCP front end: newline-delimited JSON over a
/// listening socket, one thread per connection, jobs scheduled through a
/// [`JobScheduler`].
///
/// Requests are single-line JSON objects with an `"op"` field:
///
/// ```text
/// {"op":"ping"}
/// {"op":"submit","tenant":"acme", ...handler-defined fields...}
/// {"op":"stats"}
/// {"op":"metrics"}                 -> Prometheus text inside a JSON reply
/// {"op":"metrics","format":"raw"}  -> the scrape body verbatim, then EOF
/// {"op":"health"}                  -> per-tenant windows + alert states
/// {"op":"shutdown"}
/// ```
///
/// Every response is a single-line JSON object with `"ok"` and, on
/// failure, `"error"` — except raw metrics, which answers with the
/// Prometheus text body and closes the connection (real scrapers read to
/// EOF and cannot unwrap JSON). A connection serves requests sequentially;
/// concurrency comes from concurrent connections.
pub struct Daemon {
    /// The bound listener, until [`run`](Self::run) takes it; `run` drops
    /// it when it stops accepting, so a client that connects after the
    /// daemon closed is refused instead of queued unanswered.
    listener: Mutex<Option<TcpListener>>,
    /// The address the listener was bound to.
    addr: SocketAddr,
    scheduler: JobScheduler,
    handler: Arc<JobHandler>,
    ops: Option<Arc<OpsPlane>>,
    shutdown: AtomicBool,
    wire: WireLimits,
}

/// One request's answer: a JSON reply line, or a raw body that ends the
/// connection (the `metrics` op's `"format":"raw"` scrape mode).
enum Reply {
    Line(Json),
    Raw(String),
}

impl Daemon {
    /// Binds `addr` (use port 0 for an ephemeral port) and prepares the
    /// daemon. Call [`run`](Self::run) to serve.
    pub fn bind(
        addr: impl ToSocketAddrs,
        scheduler: JobScheduler,
        handler: Arc<JobHandler>,
    ) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        Ok(Daemon {
            addr: listener.local_addr()?,
            listener: Mutex::new(Some(listener)),
            scheduler,
            handler,
            ops: None,
            shutdown: AtomicBool::new(false),
            wire: WireLimits::default(),
        })
    }

    /// Replaces the default [`WireLimits`].
    pub fn with_wire_limits(mut self, wire: WireLimits) -> Daemon {
        self.wire = wire;
        self
    }

    /// Attaches a live ops plane: jobs should be traced through
    /// [`OpsPlane::tracer_for`], and the `health` op starts answering
    /// per-tenant windows and alert states.
    pub fn with_ops(mut self, ops: Arc<OpsPlane>) -> Daemon {
        self.ops = Some(ops);
        self
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to stop (also reachable over the wire via
    /// `{"op":"shutdown"}`), waking it from `accept`. In-flight jobs
    /// finish first.
    pub fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.wake_accept();
        }
    }

    /// Wakes the accept loop's blocking `accept` with a connection to the
    /// daemon's own port, which the loop drops once it sees the shutdown
    /// flag. A wildcard bind address is reached through loopback.
    fn wake_accept(&self) {
        let mut addr = self.local_addr();
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // A failed wake leaves the loop to stop at the next connection.
        let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
    }

    /// Completes a drain once it has gone quiet — nothing in flight,
    /// nothing queued — by requesting shutdown. The daemon checks before
    /// serving (a scheduler drained before it was bound) and after every
    /// request: a drain goes quiet on a request (the drain op, or the
    /// last in-flight submit).
    fn close_if_drained(&self) {
        if self.scheduler.read(DaemonCore::drained) {
            self.request_shutdown();
        }
    }

    /// Serves until shutdown is requested — or until a drain quiesces
    /// (no jobs in flight, none queued), which completes the drain chain
    /// (`draining → closed`) and stops accepting. Either way the loop
    /// then closes the listener, so a later connect is refused, and waits
    /// for in-flight connections to finish. A daemon serves once: a second
    /// `run` finds no listener and fails.
    pub fn run(&self) -> std::io::Result<()> {
        let listener = self
            .listener
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .ok_or_else(|| {
                std::io::Error::other("the daemon has already served; bind a new one")
            })?;
        let result = std::thread::scope(|scope| {
            self.close_if_drained();
            while !self.shutdown.load(Ordering::SeqCst) {
                let (stream, _) = listener.accept()?;
                // The wake connection, or a client racing the stop.
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                scope.spawn(move || self.serve_connection(stream));
            }
            drop(listener);
            Ok(())
        });
        // All connection threads have joined: nothing can be in flight.
        self.scheduler.close();
        result
    }

    /// One connection: read a frame, answer a line, until EOF, a wire
    /// violation, or shutdown. Wire violations ([`WireLimits`]) cost this
    /// connection only — the reply (when the peer deserves one) names the
    /// violation, then the connection closes.
    fn serve_connection(&self, stream: TcpStream) {
        // The read timeout bounds how often the frame reader can poll the
        // shutdown flag and its wall clocks, not how long a request may
        // take; the write timeout stops a non-reading peer from pinning
        // this thread on a full socket buffer.
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let _ = stream.set_write_timeout(Some(wire_duration(self.wire.write_secs)));
        let _ = stream.set_nodelay(true);
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        loop {
            let frame = match self.read_frame(&mut reader) {
                FrameOutcome::Frame(frame) => frame,
                FrameOutcome::Closed
                | FrameOutcome::Torn
                | FrameOutcome::Idle
                | FrameOutcome::Shutdown => return,
                FrameOutcome::Oversized => {
                    let _ = write_frame(
                        &mut writer,
                        &error_reply(&format!(
                            "request line exceeds the {}-byte frame limit",
                            self.wire.max_frame_bytes
                        )),
                    );
                    return;
                }
                FrameOutcome::Stalled => {
                    let _ = write_frame(
                        &mut writer,
                        &error_reply(&format!(
                            "request frame not completed within {}s",
                            self.wire.frame_secs
                        )),
                    );
                    return;
                }
            };
            let Ok(line) = std::str::from_utf8(&frame) else {
                let _ = write_frame(&mut writer, &error_reply("request line is not valid UTF-8"));
                return;
            };
            let reply = self.dispatch(line.trim());
            self.close_if_drained();
            match reply {
                Reply::Line(json) => {
                    if write_frame(&mut writer, &json).is_err() {
                        return;
                    }
                }
                // A raw body is a one-shot scrape: write it and close, so
                // the scraper reads to EOF.
                Reply::Raw(body) => {
                    let _ = writer.write_all(body.as_bytes());
                    return;
                }
            }
        }
    }

    /// Reads one newline-terminated frame under the wire limits. The
    /// frame clock starts at the frame's first byte and never resets on
    /// progress, so a byte-at-a-time slow loris still times out; the idle
    /// clock only runs while no frame has started.
    fn read_frame(&self, reader: &mut BufReader<TcpStream>) -> FrameOutcome {
        let idle_limit = wire_duration(self.wire.idle_secs);
        let frame_limit = wire_duration(self.wire.frame_secs);
        let idle_since = Instant::now();
        let mut frame_since: Option<Instant> = None;
        let mut frame: Vec<u8> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return FrameOutcome::Shutdown;
            }
            match frame_since {
                Some(started) if started.elapsed() >= frame_limit => {
                    return FrameOutcome::Stalled;
                }
                None if idle_since.elapsed() >= idle_limit => {
                    return FrameOutcome::Idle;
                }
                _ => {}
            }
            /// What one buffered chunk produced, decided before `consume`.
            enum Chunk {
                Complete,
                Partial,
                Oversized,
            }
            let (advance, progress) = match reader.fill_buf() {
                Ok([]) => {
                    return if frame.is_empty() {
                        FrameOutcome::Closed
                    } else {
                        FrameOutcome::Torn
                    };
                }
                Ok(chunk) => {
                    frame_since.get_or_insert_with(Instant::now);
                    if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                        if frame.len() + pos > self.wire.max_frame_bytes {
                            (pos + 1, Chunk::Oversized)
                        } else {
                            frame.extend_from_slice(&chunk[..pos]);
                            (pos + 1, Chunk::Complete)
                        }
                    } else if frame.len() + chunk.len() > self.wire.max_frame_bytes {
                        (chunk.len(), Chunk::Oversized)
                    } else {
                        frame.extend_from_slice(chunk);
                        (chunk.len(), Chunk::Partial)
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(_) => return FrameOutcome::Torn,
            };
            reader.consume(advance);
            match progress {
                Chunk::Complete => return FrameOutcome::Frame(frame),
                Chunk::Oversized => return FrameOutcome::Oversized,
                Chunk::Partial => {}
            }
        }
    }

    /// Routes one request line to its operation.
    fn dispatch(&self, line: &str) -> Reply {
        if line.is_empty() {
            return Reply::Line(error_reply("empty request line"));
        }
        let body = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => return Reply::Line(error_reply(&format!("malformed request: {e}"))),
        };
        let ok = || field("ok", Json::Bool(true));
        Reply::Line(match body.get("op").and_then(Json::as_str) {
            Some("ping") => {
                let inflight = self.scheduler.overload_snapshot().inflight;
                Json::Obj(vec![
                    ok(),
                    field("pong", Json::Bool(true)),
                    num("active_jobs", inflight as f64),
                ])
            }
            Some("submit") => self.submit(&body),
            Some("stats") => self.stats(),
            Some("metrics") => {
                if body.get("format").and_then(Json::as_str) == Some("raw") {
                    return Reply::Raw(self.prom_body());
                }
                Json::Obj(vec![ok(), field("prom", Json::Str(self.prom_body()))])
            }
            Some("health") => self.health(),
            Some("drain") => {
                self.scheduler.drain();
                let overload = self.scheduler.overload_snapshot();
                let mut fields = vec![ok(), field("draining", Json::Bool(true))];
                fields.extend(header(&overload).into_iter().take(3));
                Json::Obj(fields)
            }
            Some("shutdown") => {
                // Shutdown is a drain plus an immediate stop-accepting:
                // in-flight jobs finish or checkpoint to their journals
                // before the process exits, so billed work survives.
                self.scheduler.drain();
                self.request_shutdown();
                Json::Obj(vec![ok(), field("shutting_down", Json::Bool(true))])
            }
            Some(other) => error_reply(&format!("unknown op {other:?}")),
            None => error_reply("request has no \"op\" field"),
        })
    }

    /// The `health` reply: per-tenant windowed rates, SLO alert states,
    /// and ledger headroom — everything `dprep top` renders. Tenants are
    /// the union of the ops plane's and the ledger's, in name order.
    fn health(&self) -> Json {
        let plane: BTreeMap<String, TenantHealth> = self
            .ops
            .iter()
            .flat_map(|ops| ops.health())
            .map(|h| (h.tenant.clone(), h))
            .collect();
        self.scheduler.read(|core| {
            let ledger = core.ledger.rows();
            let names: BTreeSet<&String> = ledger.keys().chain(plane.keys()).collect();
            let tenants = names.into_iter().map(|name| {
                let mut fields = vec![field("tenant", Json::Str(name.clone()))];
                if let Some(row) = ledger.get(name) {
                    let headroom = headroom(row.budget, row.tokens_billed);
                    fields.extend([
                        field(
                            "budget",
                            row.budget.map_or(Json::Null, |b| Json::Num(b as f64)),
                        ),
                        num("tokens_billed", row.tokens_billed as f64),
                        field("headroom", headroom.map_or(Json::Null, Json::Num)),
                        num("jobs_active", row.jobs_active as f64),
                        num("jobs_completed", row.jobs_completed as f64),
                        num("jobs_shed", row.jobs_shed as f64),
                    ]);
                }
                if let Some(health) = plane.get(name) {
                    let slos = health.slos.iter().map(|(slo, state, long, short)| {
                        Json::Obj(vec![
                            field("slo", Json::Str((*slo).to_string())),
                            field("state", Json::Str((*state).to_string())),
                            num("burn_long", *long),
                            num("burn_short", *short),
                        ])
                    });
                    fields.extend([
                        field("window", health.window.to_json()),
                        field("slos", Json::Arr(slos.collect())),
                        num("transitions", health.transitions as f64),
                    ]);
                }
                Json::Obj(fields)
            });
            let has_ops = field("has_ops", Json::Bool(self.ops.is_some()));
            let tenants = field("tenants", Json::Arr(tenants.collect()));
            status(&core.overload(), [has_ops, tenants])
        })
    }

    /// Runs one `submit` request through the scheduler and handler. The
    /// job's deadline comes from `deadline_secs` (virtual seconds) or the
    /// wire-friendly `deadline_ms` alias; an explicit `deadline_secs`
    /// wins when both are present, and the scheduler's policy default
    /// applies when neither is. A daemon field of the wrong type is
    /// refused, naming it, before admission.
    fn submit(&self, body: &Json) -> Json {
        let (tenant, requested) = match submit_fields(body) {
            Ok(fields) => fields,
            Err(e) => return error_reply(&e),
        };
        match self
            .scheduler
            .run(tenant, requested, |grant| (self.handler)(body, grant))
        {
            Ok((job, outcome, headroom)) => {
                if let (Some(ops), Some(fraction)) = (&self.ops, headroom) {
                    ops.note_headroom(tenant, fraction);
                }
                let mut fields = vec![
                    field("ok", Json::Bool(true)),
                    num("job", job as f64),
                    field("tenant", Json::Str(tenant.to_string())),
                    num("tokens_billed", outcome.tokens_billed as f64),
                    num("cost_usd", outcome.cost_usd),
                    field("budget_tripped", Json::Bool(outcome.budget_tripped)),
                ];
                fields.extend(outcome.reply);
                Json::Obj(fields)
            }
            // A structured rejection tells the client what to do next:
            // back off (`retry_after`), stop (drain), or fix the request.
            Err(JobError::Rejected(rejection)) => {
                let mut fields = vec![
                    field("ok", Json::Bool(false)),
                    field("rejected", Json::Str(rejection.kind.to_string())),
                    field("error", Json::Str(rejection.message)),
                ];
                if let Some(after) = rejection.retry_after_secs {
                    fields.push(num("retry_after", after));
                }
                Json::Obj(fields)
            }
            Err(JobError::Failed(e)) => error_reply(&e),
        }
    }

    /// The Prometheus scrape body: tenant-labeled series plus the
    /// daemon-level overload gauges.
    fn prom_body(&self) -> String {
        let (overload, metrics) = self.scheduler.read(|core| {
            let settled = core
                .ledger
                .tenants
                .iter()
                .filter(|(_, row)| row.jobs_completed > 0);
            let metrics: BTreeMap<String, MetricsSnapshot> = settled
                .map(|(tenant, row)| (tenant.clone(), row.metrics.clone()))
                .collect();
            (core.overload(), metrics)
        });
        let mut body = render_prom_tenants(&metrics);
        body.push_str(&render_prom_daemon(&[
            (
                "dprep_daemon_admitted_jobs_total",
                "counter",
                "Jobs admitted past the overload gate.",
                overload.admitted_total as f64,
            ),
            (
                "dprep_daemon_shed_jobs_total",
                "counter",
                "Jobs shed by the overload policy (billed zero tokens).",
                overload.shed_total as f64,
            ),
            (
                "dprep_daemon_queue_depth",
                "gauge",
                "Jobs waiting in the admission queue.",
                overload.queued as f64,
            ),
            (
                "dprep_daemon_inflight_jobs",
                "gauge",
                "Jobs holding in-flight slots.",
                overload.inflight as f64,
            ),
            (
                "dprep_daemon_draining",
                "gauge",
                "1 once a drain has started (draining or closed).",
                f64::from(u8::from(overload.state != "serving")),
            ),
        ]));
        body
    }

    /// The `stats` reply: the daemon header plus every tenant's ledger
    /// row.
    fn stats(&self) -> Json {
        self.scheduler.read(|core| {
            let tenants = core.ledger.rows().iter().map(|(tenant, row)| {
                Json::Obj(vec![
                    field("tenant", Json::Str(tenant.clone())),
                    field(
                        "budget",
                        row.budget.map_or(Json::Null, |b| Json::Num(b as f64)),
                    ),
                    num("tokens_billed", row.tokens_billed as f64),
                    num("cost_usd", row.cost_usd),
                    num("jobs_active", row.jobs_active as f64),
                    num("jobs_completed", row.jobs_completed as f64),
                    num("jobs_failed", row.jobs_failed as f64),
                    num("jobs_rejected", row.jobs_rejected as f64),
                    num("jobs_tripped", row.jobs_tripped as f64),
                    num("jobs_shed", row.jobs_shed as f64),
                ])
            });
            status(
                &core.overload(),
                [field("tenants", Json::Arr(tenants.collect()))],
            )
        })
    }
}

/// A reply field.
fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

/// A numeric reply field.
fn num(key: &str, value: f64) -> (String, Json) {
    field(key, Json::Num(value))
}

/// The daemon header every status reply carries, in wire order: drain
/// state, in-flight and queued jobs, then the admitted and shed totals.
fn header(overload: &OverloadSnapshot) -> [(String, Json); 5] {
    [
        field("state", Json::Str(overload.state.to_string())),
        num("inflight", overload.inflight as f64),
        num("queued", overload.queued as f64),
        num("admitted_jobs", overload.admitted_total as f64),
        num("shed_jobs", overload.shed_total as f64),
    ]
}

/// A `stats` or `health` reply: `ok`, `active_jobs` and the daemon
/// header, then `rest`.
fn status(overload: &OverloadSnapshot, rest: impl IntoIterator<Item = (String, Json)>) -> Json {
    let mut fields = vec![
        field("ok", Json::Bool(true)),
        num("active_jobs", overload.inflight as f64),
    ];
    fields.extend(header(overload));
    fields.extend(rest);
    Json::Obj(fields)
}

/// The daemon's own `submit` fields: the tenant, then the job's options
/// from `workers`, `token_budget` and the deadlines.
fn submit_fields(body: &Json) -> Result<(&str, ExecutionOptions), String> {
    let deadline_ms = number_field(body, "deadline_ms")?;
    let options = ExecutionOptions {
        workers: whole_field(body, "workers")?.unwrap_or(1).max(1),
        token_budget: whole_field(body, "token_budget")?,
        deadline_secs: number_field(body, "deadline_secs")?.or(deadline_ms.map(|ms| ms / 1000.0)),
        ..ExecutionOptions::default()
    };
    Ok((string_field(body, "tenant")?.unwrap_or("default"), options))
}

/// Sends `json` as one NDJSON frame: the line and its newline in a single
/// write. Written in two pieces, the second would wait for the peer's
/// delayed ACK of the first (up to 40 ms) under Nagle's algorithm.
fn write_frame(stream: &mut impl Write, json: &Json) -> std::io::Result<()> {
    let mut frame = json.to_json();
    frame.push('\n');
    stream.write_all(frame.as_bytes())
}

/// A failed reply line.
fn error_reply(message: &str) -> Json {
    Json::Obj(vec![
        field("ok", Json::Bool(false)),
        field("error", Json::Str(message.to_string())),
    ])
}

/// Reads the optional integer field `key` of a request body: `Ok(None)`
/// when it is absent, its value when it is a non-negative whole number
/// below 2^53, the range JSON holds exactly. Any other value — a
/// fraction, a negative, a string, `null`, or a whole number at or past
/// 2^53, which may be a rounded neighbour of the one sent — is an error
/// naming the field, so a typo is refused rather than read as no value at
/// all.
pub fn whole_field(body: &Json, key: &str) -> Result<Option<usize>, String> {
    match body.get(key) {
        None => Ok(None),
        Some(value) if value.is_whole() => value.as_usize().map(Some).ok_or_else(|| {
            format!(
                "\"{key}\" must be below 2^53 (9007199254740992), not {}",
                value.to_json()
            )
        }),
        Some(value) => Err(format!(
            "\"{key}\" must be a non-negative whole number, not {}",
            value.to_json()
        )),
    }
}

/// Reads the optional string field `key` of a request body: `Ok(None)`
/// when it is absent, its text when it is a string. Any other value,
/// `null` included, is an error naming the field.
pub fn string_field<'a>(body: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match body.get(key) {
        None => Ok(None),
        Some(Json::Str(text)) => Ok(Some(text)),
        Some(value) => Err(format!(
            "\"{key}\" must be a string, not {}",
            value.to_json()
        )),
    }
}

/// Reads the optional number field `key` of a request body: `Ok(None)`
/// when it is absent, its value when it is a finite number. Any other
/// value — a string such as `"0.05"`, `null`, a boolean — is an error
/// naming the field, so it is refused rather than read as no value.
pub fn number_field(body: &Json, key: &str) -> Result<Option<f64>, String> {
    match body.get(key) {
        None => Ok(None),
        Some(Json::Num(n)) if n.is_finite() => Ok(Some(*n)),
        Some(value) => Err(format!(
            "\"{key}\" must be a finite number, not {}",
            value.to_json()
        )),
    }
}

/// Client-side helper: sends one request line on `stream` and parses the
/// single-line reply, waiting for it at most `deadline` from the send.
/// Used by `dprep top` and the serving tests; exported so external
/// clients don't re-implement the framing. The request goes out in one
/// write with `TCP_NODELAY` set. A reply that has not arrived by the
/// deadline is an error naming the deadline; the reader's own read
/// timeout is restored either way.
pub fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Json,
    deadline: Duration,
) -> Result<Json, String> {
    let _ = stream.set_nodelay(true);
    let until = Instant::now() + deadline;
    write_frame(stream, request).map_err(|e| format!("send failed: {e}"))?;
    let own_timeout = reader.get_ref().read_timeout().ok().flatten();
    let mut line = String::new();
    let received = loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break Err(format!("no reply within the {deadline:?} deadline"));
        }
        if let Err(e) = reader.get_ref().set_read_timeout(Some(left)) {
            break Err(format!("cannot bound the wait for a reply: {e}"));
        }
        match reader.read_line(&mut line) {
            Ok(0) => break Err("daemon closed the connection".to_string()),
            Ok(_) => break Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => break Err(format!("receive failed: {e}")),
        }
    };
    let _ = reader.get_ref().set_read_timeout(own_timeout);
    received?;
    Json::parse(line.trim()).map_err(|e| format!("malformed reply: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprep_obs::PAGE_FACTOR;

    /// A core with the default policy and an uncapped ledger, whose turns
    /// admit `limit` summed shares.
    fn turnstile(limit: usize) -> DaemonCore {
        DaemonCore::new(OverloadPolicy::default(), limit, TenantLedger::new())
    }

    /// Admits a job of `tenant` asking for `workers` and `token_budget`:
    /// its id and granted budget, or the refusal's message.
    fn admit(
        core: &mut DaemonCore,
        tenant: &str,
        workers: usize,
        token_budget: Option<usize>,
    ) -> Result<(u64, Option<usize>), String> {
        let options = ExecutionOptions {
            workers,
            token_budget,
            ..ExecutionOptions::default()
        };
        match core.submit(tenant, options) {
            (job, Admission::Admitted(options, _), _) => Ok((job, options.token_budget)),
            (_, Admission::Refused(rejection), _) => Err(rejection.message),
            (_, Admission::Queued, _) => panic!("no queue is configured"),
        }
    }

    /// The id of an admitted one-tenant job on `workers` threads.
    fn joined(core: &mut DaemonCore, workers: usize) -> u64 {
        admit(core, "t", workers, None).unwrap().0
    }

    /// Summed shares of the jobs holding turns.
    fn held(core: &DaemonCore) -> usize {
        core.holding.iter().map(|&job| core.share(job)).sum()
    }

    /// Jobs in the rotation, holding a turn or not.
    fn members(core: &DaemonCore) -> usize {
        core.holding.len() + core.rotation.len()
    }

    #[test]
    fn turnstile_rotates_strictly_and_drops_finished_jobs() {
        let mut core = turnstile(1);
        let a = joined(&mut core, 1);
        let b = joined(&mut core, 1);
        assert_eq!(members(&core), 2);

        // Both jobs ask for a turn at every step, `b` first, and give it up
        // at once: the rotation, not the order of asking, picks the turn.
        let mut order = Vec::new();
        let mut left = [(b, 'b', 3), (a, 'a', 3)];
        while order.len() < 6 {
            for (job, label, turns) in &mut left {
                if *turns > 0 && core.turn_requested(*job) {
                    order.push(*label);
                    core.turn_released(*job);
                    *turns -= 1;
                }
            }
        }
        // Strict alternation starting with the first registrant.
        assert_eq!(order, vec!['a', 'b', 'a', 'b', 'a', 'b']);

        core.settled(a, &JobOutcome::default());
        assert_eq!(members(&core), 1);
        // With `a` gone, `b` holds every turn and never waits.
        assert!(core.turn_requested(b));
        core.turn_released(b);
        core.settled(b, &JobOutcome::default());
        assert_eq!(members(&core), 0);
    }

    #[test]
    fn turnstile_grants_concurrent_turns_within_its_limit() {
        let mut core = turnstile(2);
        // Two one-worker jobs hold turns at the same moment.
        let a = joined(&mut core, 1);
        let b = joined(&mut core, 1);
        assert!(core.turn_requested(a) && core.turn_requested(b));
        assert_eq!(held(&core), 2);

        // A job ending mid-turn frees its share for a waiting job.
        let c = joined(&mut core, 1);
        assert!(!core.turn_requested(c));
        core.failed(a, "ended mid-turn");
        assert!(core.turn_requested(c));
        assert_eq!((held(&core), members(&core)), (2, 2));
        core.settled(b, &JobOutcome::default());
        core.settled(c, &JobOutcome::default());
        assert_eq!(held(&core), 0);
        assert_eq!(members(&core), 0);

        // A job wider than the limit takes every share, no more.
        let wide = joined(&mut core, 8);
        assert!(core.turn_requested(wide));
        assert_eq!(held(&core), 2);
        core.turn_released(wide);
        assert_eq!(held(&core), 0);
    }

    #[test]
    fn turnstile_gives_a_wide_job_its_turn_beside_narrow_ones() {
        /// A turn's start or end, as logged by the job holding it.
        #[derive(Debug, Clone, Copy)]
        enum Mark {
            Start(u64),
            End(u64),
        }
        const WIDE: u64 = 2;
        const WIDE_TURNS: usize = 4;
        let mut core = turnstile(2);
        // The wide job (more workers than the limit) is registered between
        // two one-worker jobs that keep asking for turns.
        let mut jobs = [
            (joined(&mut core, 1), 12, false),
            (joined(&mut core, 4), WIDE_TURNS, false),
            (joined(&mut core, 1), 12, false),
        ];
        assert_eq!(jobs[1].0, WIDE);
        // Each step, one job moves: it asks for a turn, or ends the one it
        // holds; a job with no turns left leaves the rotation. The mover is
        // drawn from a fixed generator, standing in for thread timing.
        let mut log = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (job, turns, holding) = &mut jobs[(state % 3) as usize];
            if *holding {
                log.push(Mark::End(*job));
                core.turn_released(*job);
                *holding = false;
                *turns -= 1;
                if *turns == 0 {
                    core.settled(*job, &JobOutcome::default());
                }
            } else if *turns > 0 && core.turn_requested(*job) {
                log.push(Mark::Start(*job));
                *holding = true;
            }
        }
        assert!(
            jobs.iter().all(|&(_, turns, _)| turns == 0),
            "every job gets all its turns: {jobs:?}"
        );

        // The log orders turns as the core granted them.
        let mut holding = Vec::new();
        let mut since_wide = Vec::new();
        let mut wide_turns = 0;
        for mark in log {
            match mark {
                Mark::Start(job) => {
                    assert!(
                        !holding.contains(&WIDE) && (job != WIDE || holding.is_empty()),
                        "the wide job runs alone: {job} started beside {holding:?}"
                    );
                    if job == WIDE {
                        wide_turns += 1;
                        since_wide.clear();
                    } else {
                        // Rotation order: after its turn, a narrow job
                        // queues behind the wide one until that is done.
                        assert!(
                            wide_turns == WIDE_TURNS || !since_wide.contains(&job),
                            "job {job} took a second turn ahead of the wide job"
                        );
                        since_wide.push(job);
                    }
                    holding.push(job);
                }
                Mark::End(job) => holding.retain(|&j| j != job),
            }
        }
        assert_eq!(wide_turns, WIDE_TURNS);
    }

    #[test]
    fn ledger_clamps_admission_and_rejects_exhausted_tenants() {
        let mut ledger = TenantLedger::new().with_default_budget(Some(50));
        ledger.set_budget("acme", Some(100));
        let mut core = DaemonCore::new(OverloadPolicy::default(), 1, ledger);

        // Own budget smaller than the allowance: the job keeps its own.
        let (first, budget) = admit(&mut core, "acme", 1, Some(30)).unwrap();
        assert_eq!(budget, Some(30));
        // No own budget: clamped to what remains.
        core.settled(first, &billed(80));
        let (second, budget) = admit(&mut core, "acme", 1, None).unwrap();
        assert_eq!(budget, Some(20));
        // Own budget above the remainder: clamped down.
        assert_eq!(
            admit(&mut core, "acme", 1, Some(1_000)).unwrap().1,
            Some(20)
        );
        // Exhausted: rejected with the billed/allowance numbers.
        let tripped = JobOutcome {
            budget_tripped: true,
            ..billed(20)
        };
        core.settled(second, &tripped);
        let err = admit(&mut core, "acme", 1, Some(5)).unwrap_err();
        assert!(err.contains("exhausted"), "{err}");
        assert!(err.contains("100 billed of 100"), "{err}");

        // Unconfigured tenants get the default allowance.
        assert_eq!(admit(&mut core, "fresh", 1, None).unwrap().1, Some(50));
        // An explicitly uncapped tenant passes its request through.
        core.ledger.set_budget("open", None);
        assert_eq!(admit(&mut core, "open", 1, None).unwrap().1, None);

        let acme = &core.ledger.rows()["acme"];
        assert_eq!(acme.tokens_billed, 100);
        assert_eq!(acme.jobs_completed, 2);
        assert_eq!(acme.jobs_rejected, 1);
        assert_eq!(acme.jobs_tripped, 1);
    }

    #[test]
    fn scheduler_settles_bills_and_emits_job_events() {
        let tracer = Arc::new(dprep_obs::CollectingTracer::new());
        let mut ledger = TenantLedger::new();
        ledger.set_budget("acme", Some(100));
        let scheduler =
            JobScheduler::new(ledger).with_tracer(Arc::clone(&tracer) as Arc<dyn Tracer>);

        let (job, outcome) = scheduler
            .run_job("acme", ExecutionOptions::default(), |grant| {
                assert_eq!(
                    grant.options.token_budget,
                    Some(100),
                    "clamped to allowance"
                );
                Ok(JobOutcome {
                    tokens_billed: 100,
                    cost_usd: 0.5,
                    ..JobOutcome::default()
                })
            })
            .unwrap();
        assert_eq!(job, 1);
        assert_eq!(outcome.tokens_billed, 100);

        // The allowance is spent: the next job is rejected at admission
        // and the failure is traced.
        let err = scheduler
            .run_job("acme", ExecutionOptions::default(), |_| {
                panic!("rejected jobs must not run")
            })
            .unwrap_err();
        assert!(err.message().contains("exhausted"), "{err}");

        let names: Vec<&'static str> = tracer
            .events()
            .iter()
            .map(TraceEvent::name)
            .filter(|n| *n != "queue_depth")
            .collect();
        assert_eq!(names, vec!["job_accepted", "job_completed", "job_rejected"]);
        assert_eq!(scheduler.overload_snapshot().inflight, 0);
    }

    #[test]
    fn whole_fields_refuse_what_is_not_a_whole_number() {
        let body = |value: Json| Json::Obj(vec![("n".to_string(), value)]);
        assert_eq!(whole_field(&Json::Obj(vec![]), "n"), Ok(None));
        assert_eq!(whole_field(&body(Json::Num(7.0)), "n"), Ok(Some(7)));
        for huge in [9_007_199_254_740_992.0, 1e16, 1e300] {
            let error = whole_field(&body(Json::Num(huge)), "n").unwrap_err();
            assert!(error.starts_with("\"n\" must be below 2^53"), "{error}");
        }
        assert_eq!(
            whole_field(&body(Json::Num(9_007_199_254_740_991.0)), "n"),
            Ok(Some(9_007_199_254_740_991))
        );
        for bad in [
            Json::Num(1.5),
            Json::Num(-5.0),
            Json::Str("500".into()),
            Json::Null,
            Json::Bool(true),
        ] {
            let error = whole_field(&body(bad), "n").unwrap_err();
            assert!(error.starts_with("\"n\" must be"), "{error}");
        }
    }

    /// A job asking for 2^40 workers is granted the turnstile's limit, the
    /// machine's available parallelism, like its share: the body only
    /// records the grant, so nothing is spawned.
    #[test]
    fn granted_workers_are_clamped_to_the_turnstile_share() {
        let scheduler = JobScheduler::new(TenantLedger::new());
        let limit = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (asked, granted) in [(1 << 40, limit), (0, 1), (1, 1)] {
            let mut seen = None;
            scheduler
                .run_job(
                    "t",
                    ExecutionOptions {
                        workers: asked,
                        ..ExecutionOptions::default()
                    },
                    |grant| {
                        seen = Some(grant.options.workers);
                        Ok(JobOutcome::default())
                    },
                )
                .unwrap();
            assert_eq!(seen, Some(granted), "asked for {asked}");
        }
    }

    /// An outcome that bills `tokens` at a flat 0.01 $/token.
    fn billed(tokens: usize) -> JobOutcome {
        JobOutcome {
            tokens_billed: tokens,
            cost_usd: tokens as f64 * 0.01,
            ..JobOutcome::default()
        }
    }

    #[test]
    fn overload_gate_sheds_beyond_inflight_cap_with_retry_hint() {
        let tracer = Arc::new(dprep_obs::CollectingTracer::new());
        let scheduler = JobScheduler::new(TenantLedger::new())
            .with_tracer(Arc::clone(&tracer) as Arc<dyn Tracer>)
            .with_policy(OverloadPolicy {
                max_inflight: Some(1),
                ..OverloadPolicy::default()
            });

        // While one job holds the only slot (no queue configured), a
        // second submit sheds immediately with a positive backoff hint.
        let (_, outcome) = scheduler
            .run_job("acme", ExecutionOptions::default(), |_| {
                let err = scheduler
                    .run_job("burst", ExecutionOptions::default(), |_| {
                        panic!("shed jobs must not run")
                    })
                    .unwrap_err();
                match &err {
                    JobError::Rejected(rejection) => {
                        assert_eq!(rejection.kind, "overloaded");
                        assert!(rejection.retry_after_secs.unwrap() > 0.0, "{rejection:?}");
                    }
                    other => panic!("expected overload rejection, got {other:?}"),
                }
                Ok(billed(10))
            })
            .unwrap();
        assert_eq!(outcome.tokens_billed, 10);

        // The shed billed nothing and is visible everywhere: the trace,
        // the tenant ledger, and the gate's lifetime counters.
        let sheds: Vec<_> = tracer
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobShed { .. }))
            .cloned()
            .collect();
        assert_eq!(sheds.len(), 1);
        let burst = scheduler.read(|core| core.ledger.rows()["burst"].clone());
        assert_eq!((burst.jobs_shed, burst.tokens_billed), (1, 0));
        let snap = scheduler.overload_snapshot();
        assert_eq!((snap.admitted_total, snap.shed_total), (1, 1));
        assert_eq!((snap.inflight, snap.queued), (0, 0));
        assert!(scheduler.read(DaemonCore::quiesced));
    }

    #[test]
    fn bounded_queue_admits_waiters_and_tenant_cap_sheds_without_queueing() {
        let scheduler = Arc::new(JobScheduler::new(TenantLedger::new()).with_policy(
            OverloadPolicy {
                max_inflight: Some(1),
                max_queued: Some(1),
                tenant_inflight: Some(1),
                ..OverloadPolicy::default()
            },
        ));

        // A queued job waits for the slot and then runs to completion.
        let (holding_tx, holding_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let holder = {
                let scheduler = Arc::clone(&scheduler);
                scope.spawn(move || {
                    scheduler.run_job("acme", ExecutionOptions::default(), |_| {
                        holding_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok(billed(5))
                    })
                })
            };
            holding_rx.recv().unwrap();

            // The tenant holding the slot is at its own cap: its second
            // job sheds instead of camping the shared queue.
            let err = scheduler
                .run_job("acme", ExecutionOptions::default(), |_| unreachable!())
                .unwrap_err();
            assert!(matches!(
                &err,
                JobError::Rejected(r) if r.kind == "overloaded"
                    && r.message.contains("concurrency cap")
            ));

            // Another tenant queues; once the holder releases, it runs.
            let waiter = {
                let scheduler = Arc::clone(&scheduler);
                scope.spawn(move || {
                    scheduler.run_job("beta", ExecutionOptions::default(), |_| Ok(billed(3)))
                })
            };
            while scheduler.overload_snapshot().queued == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // The queue is full (1 of 1): the next submit sheds.
            let err = scheduler
                .run_job("gamma", ExecutionOptions::default(), |_| unreachable!())
                .unwrap_err();
            assert!(matches!(
                &err,
                JobError::Rejected(r) if r.kind == "overloaded"
                    && r.message.contains("queue is full")
            ));

            release_tx.send(()).unwrap();
            holder.join().unwrap().unwrap();
            let (_, outcome) = waiter.join().unwrap().unwrap();
            assert_eq!(outcome.tokens_billed, 3);
        });
        let snap = scheduler.overload_snapshot();
        assert_eq!((snap.admitted_total, snap.shed_total), (2, 2));
        assert!(scheduler.read(DaemonCore::quiesced));
    }

    #[test]
    fn drain_sheds_new_jobs_fires_halts_and_walks_the_state_chain() {
        let tracer = Arc::new(dprep_obs::CollectingTracer::new());
        let scheduler = JobScheduler::new(TenantLedger::new())
            .with_tracer(Arc::clone(&tracer) as Arc<dyn Tracer>);
        assert_eq!(scheduler.overload_snapshot().state, "serving");

        // Drain mid-job: the in-flight job's halt fires so a journaled
        // handler checkpoints, and the job still settles its bill.
        let (_, outcome) = scheduler
            .run_job("acme", ExecutionOptions::default(), |grant| {
                assert!(!grant.halt.fired(), "halt is unarmed at grant");
                scheduler.drain();
                scheduler.drain(); // idempotent
                assert!(grant.halt.fired(), "drain fires in-flight halts");
                Ok(billed(7))
            })
            .unwrap();
        assert_eq!(outcome.tokens_billed, 7);
        assert_eq!(scheduler.overload_snapshot().state, "draining");

        // Draining admits nothing, with no retry hint (a retry cannot
        // outlive the drain).
        let err = scheduler
            .run_job("acme", ExecutionOptions::default(), |_| unreachable!())
            .unwrap_err();
        assert!(matches!(
            &err,
            JobError::Rejected(r) if r.kind == "draining" && r.retry_after_secs.is_none()
        ));

        // Quiesced: the chain completes serving → draining → closed.
        assert!(scheduler.read(DaemonCore::quiesced));
        scheduler.close();
        assert_eq!(scheduler.overload_snapshot().state, "closed");
        let transitions: Vec<(&str, &str)> = tracer
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::DrainTransition { from, to, .. } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            transitions,
            vec![("serving", "draining"), ("draining", "closed")]
        );
    }

    #[test]
    fn deadlines_default_from_policy_and_dead_on_arrival_jobs_shed() {
        let scheduler = JobScheduler::new(TenantLedger::new()).with_policy(OverloadPolicy {
            default_deadline_secs: Some(30.0),
            ..OverloadPolicy::default()
        });

        // No deadline requested: the policy default propagates into the
        // grant's execution options (the executor's budget machinery).
        scheduler
            .run_job("acme", ExecutionOptions::default(), |grant| {
                assert_eq!(grant.options.deadline_secs, Some(30.0));
                Ok(JobOutcome::default())
            })
            .unwrap();
        // An explicit deadline wins over the default.
        scheduler
            .run_job(
                "acme",
                ExecutionOptions {
                    deadline_secs: Some(2.5),
                    ..ExecutionOptions::default()
                },
                |grant| {
                    assert_eq!(grant.options.deadline_secs, Some(2.5));
                    Ok(JobOutcome::default())
                },
            )
            .unwrap();
        // A dead-on-arrival deadline sheds before any admission work.
        let err = scheduler
            .run_job(
                "acme",
                ExecutionOptions {
                    deadline_secs: Some(0.0),
                    ..ExecutionOptions::default()
                },
                |_| unreachable!(),
            )
            .unwrap_err();
        assert!(matches!(
            &err,
            JobError::Rejected(r) if r.kind == "deadline" && r.retry_after_secs.is_none()
        ));
        assert_eq!(scheduler.overload_snapshot().shed_total, 1);
    }

    /// A tenant whose first job is shed still gets the default allowance
    /// when a later job of it is admitted.
    #[test]
    fn a_tenant_first_seen_by_a_shed_keeps_the_default_allowance() {
        let scheduler = JobScheduler::new(TenantLedger::new().with_default_budget(Some(50)));
        let dead = ExecutionOptions {
            deadline_secs: Some(0.0),
            ..ExecutionOptions::default()
        };
        let err = scheduler
            .run_job("fresh", dead, |_| unreachable!())
            .unwrap_err();
        assert!(matches!(&err, JobError::Rejected(r) if r.kind == "deadline"));
        scheduler
            .run_job("fresh", ExecutionOptions::default(), |grant| {
                assert_eq!(grant.options.token_budget, Some(50));
                Ok(JobOutcome::default())
            })
            .unwrap();
    }

    fn completed(request: u64, latency_secs: f64, tokens: usize) -> TraceEvent {
        TraceEvent::Completed {
            request,
            worker: 0,
            cache_hit: false,
            retries: 0,
            fault: None,
            prompt_tokens: tokens,
            completion_tokens: 0,
            attempt_prompt_tokens: tokens,
            attempt_completion_tokens: 0,
            cost_usd: 0.1,
            latency_secs,
            vt_start_secs: 0.0,
            vt_end_secs: latency_secs,
        }
    }

    /// A traffic pattern that breaches a 1-second latency-p95 objective:
    /// every request is slow, so both burn windows saturate.
    fn slow_stream(plane: &Arc<OpsPlane>, tenant: &str) {
        let tracer = plane.tracer_for(tenant);
        for request in 1..=12u64 {
            tracer.record(&completed(request, 5.0, 100));
            tracer.record(&TraceEvent::Parsed {
                request,
                instance: request as usize - 1,
            });
        }
    }

    #[test]
    fn ops_plane_timelines_are_deterministic_and_page_on_breach() {
        let specs = SloSpec::parse_list("latency-p95=1.0").unwrap();
        let run = || {
            let plane = Arc::new(OpsPlane::new(specs.clone(), WindowConfig::default()));
            slow_stream(&plane, "acme");
            plane
        };
        let (a, b) = (run(), run());

        let timeline = &a.timelines()["acme"];
        assert!(
            timeline
                .iter()
                .any(|e| matches!(e, TraceEvent::SloTransition { to, .. } if *to == "paging")),
            "sustained breach must page: {timeline:?}"
        );
        // Bit-identical across runs: same transitions, same serialized
        // window snapshots.
        assert_eq!(a.timelines(), b.timelines());
        let json = |plane: &Arc<OpsPlane>| {
            plane
                .health()
                .iter()
                .map(|h| h.window.to_json().to_json())
                .collect::<Vec<_>>()
        };
        assert_eq!(json(&a), json(&b));

        let health = a.health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].tenant, "acme");
        assert_eq!(health[0].window.counts.requests, 12);
        let (slo, state, burn_long, burn_short) = health[0].slos[0];
        assert_eq!((slo, state), ("latency-p95", "paging"));
        assert!(burn_long >= PAGE_FACTOR && burn_short >= PAGE_FACTOR);
    }

    #[test]
    fn ops_plane_paging_dumps_a_postmortem() {
        let dir = std::env::temp_dir().join(format!(
            "dprep-serve-recorder-{}-{}",
            std::process::id(),
            dprep_obs::next_run_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let recorder = Arc::new(FlightRecorder::new(&dir, 64));
        let plane = Arc::new(
            OpsPlane::new(
                SloSpec::parse_list("latency-p95=1.0").unwrap(),
                WindowConfig::default(),
            )
            .with_recorder(Arc::clone(&recorder)),
        );
        slow_stream(&plane, "acme");
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(!dumps.is_empty(), "paging must dump a postmortem");
        let body = std::fs::read_to_string(&dumps[0]).unwrap();
        assert!(body.lines().any(|l| l.contains("slo_transition")), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn daemon_health_reports_windows_alerts_and_ledger() {
        let handler: Arc<JobHandler> = Arc::new(|_body: &Json, _grant: &JobGrant| {
            Ok(JobOutcome {
                tokens_billed: 60,
                cost_usd: 0.6,
                ..JobOutcome::default()
            })
        });
        let mut ledger = TenantLedger::new();
        ledger.set_budget("acme", Some(100));
        let plane = Arc::new(OpsPlane::new(
            SloSpec::parse_list("latency-p95=1.0,budget-headroom=0.5").unwrap(),
            WindowConfig::default(),
        ));
        let daemon = Daemon::bind("127.0.0.1:0", JobScheduler::new(ledger), handler)
            .unwrap()
            .with_ops(Arc::clone(&plane));
        slow_stream(&plane, "acme");
        let addr = daemon.local_addr();

        std::thread::scope(|scope| {
            let server = scope.spawn(|| daemon.run());
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());

            // Settle one job so the ledger has a row; headroom drops to
            // 0.4 < 0.5 and the headroom objective starts burning.
            let submit = roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![
                    ("op".to_string(), Json::Str("submit".to_string())),
                    ("tenant".to_string(), Json::Str("acme".to_string())),
                ]),
                REPLY_DEADLINE,
            )
            .unwrap();
            assert_eq!(submit.get("ok"), Some(&Json::Bool(true)));

            let health = roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![("op".to_string(), Json::Str("health".to_string()))]),
                REPLY_DEADLINE,
            )
            .unwrap();
            assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(health.get("has_ops"), Some(&Json::Bool(true)));
            let tenants = match health.get("tenants") {
                Some(Json::Arr(rows)) => rows,
                other => panic!("health has no tenants array: {other:?}"),
            };
            assert_eq!(tenants.len(), 1);
            let row = &tenants[0];
            assert_eq!(row.get("tenant").and_then(Json::as_str), Some("acme"));
            assert_eq!(row.get("tokens_billed").and_then(Json::as_usize), Some(60));
            assert_eq!(row.get("jobs_active").and_then(Json::as_usize), Some(0));
            assert_eq!(row.get("jobs_completed").and_then(Json::as_usize), Some(1));
            assert!((row.get("headroom").and_then(Json::as_f64).unwrap() - 0.4).abs() < 1e-9);
            assert!(row.get("window").is_some(), "windowed snapshot present");
            let slos = match row.get("slos") {
                Some(Json::Arr(slos)) => slos,
                other => panic!("health row has no slos array: {other:?}"),
            };
            assert_eq!(slos.len(), 2);
            let headroom = slos
                .iter()
                .find(|s| s.get("slo").and_then(Json::as_str) == Some("budget-headroom"))
                .expect("headroom objective reported");
            assert!(headroom.get("burn_long").and_then(Json::as_f64).unwrap() > 1.0);

            roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
                REPLY_DEADLINE,
            )
            .unwrap();
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn raw_metrics_scrape_returns_prometheus_text_then_eof() {
        let handler: Arc<JobHandler> = Arc::new(|_body: &Json, _grant: &JobGrant| {
            Ok(JobOutcome {
                tokens_billed: 5,
                ..JobOutcome::default()
            })
        });
        let daemon = Daemon::bind(
            "127.0.0.1:0",
            JobScheduler::new(TenantLedger::new()),
            handler,
        )
        .unwrap();
        let addr = daemon.local_addr();

        std::thread::scope(|scope| {
            let server = scope.spawn(|| daemon.run());
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![
                    ("op".to_string(), Json::Str("submit".to_string())),
                    ("tenant".to_string(), Json::Str("acme".to_string())),
                ]),
                REPLY_DEADLINE,
            )
            .unwrap();

            // A raw scrape is one-shot: the body arrives verbatim (no JSON
            // envelope) and the daemon closes the connection.
            let mut scrape = TcpStream::connect(addr).unwrap();
            writeln!(scrape, "{{\"op\":\"metrics\",\"format\":\"raw\"}}").unwrap();
            let mut body = String::new();
            let mut scrape_reader = BufReader::new(scrape);
            loop {
                match scrape_reader.read_line(&mut body) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(e) => panic!("scrape read failed: {e}"),
                }
            }
            assert!(body.contains("dprep_tenant_"), "{body}");
            assert!(
                Json::parse(body.trim()).is_err(),
                "raw body must not be JSON-wrapped: {body}"
            );

            // The JSON mode still wraps the same text.
            let wrapped = roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![("op".to_string(), Json::Str("metrics".to_string()))]),
                REPLY_DEADLINE,
            )
            .unwrap();
            assert_eq!(
                wrapped.get("prom").and_then(Json::as_str),
                Some(body.as_str())
            );

            roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
                REPLY_DEADLINE,
            )
            .unwrap();
            server.join().unwrap().unwrap();
        });
    }

    /// A daemon with a handler that bills nothing, bound to `addr`.
    fn idle_daemon(addr: &str) -> Arc<Daemon> {
        let handler: Arc<JobHandler> =
            Arc::new(|_body: &Json, _grant: &JobGrant| Ok(JobOutcome::default()));
        Arc::new(Daemon::bind(addr, JobScheduler::new(TenantLedger::new()), handler).unwrap())
    }

    /// Runs `daemon` on an unscoped thread; the receiver yields what `run`
    /// returned, so a test can bound the wait instead of hanging.
    fn serve_in_background(daemon: &Arc<Daemon>) -> std::sync::mpsc::Receiver<std::io::Result<()>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let daemon = Arc::clone(daemon);
        std::thread::spawn(move || {
            let _ = tx.send(daemon.run());
        });
        rx
    }

    /// A kept-alive client connection to `daemon`, reached through
    /// loopback whatever address it is bound to.
    fn connect(daemon: &Daemon) -> (TcpStream, BufReader<TcpStream>) {
        let port = daemon.local_addr().port();
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn op(name: &str) -> Json {
        Json::Obj(vec![("op".to_string(), Json::Str(name.to_string()))])
    }

    /// How long a test client waits for any one reply.
    const REPLY_DEADLINE: Duration = Duration::from_secs(60);

    #[test]
    fn a_closed_daemon_refuses_new_clients_and_a_silent_peer_times_out() {
        let daemon = idle_daemon("127.0.0.1:0");
        let addr = daemon.local_addr();
        let done = serve_in_background(&daemon);
        let (mut stream, mut reader) = connect(&daemon);
        roundtrip(&mut stream, &mut reader, &op("drain"), REPLY_DEADLINE).unwrap();
        drop((stream, reader));
        done.recv_timeout(Duration::from_secs(5))
            .expect("a quiet drain closes the daemon")
            .unwrap();

        // The daemon value lives on, its listener does not: a fresh client
        // is refused, or closed, within a second, never queued unanswered.
        let started = Instant::now();
        if let Ok(late) = TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            late.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
            let mut byte = [0u8; 1];
            let read = std::io::Read::read(&mut &late, &mut byte);
            assert!(matches!(read, Ok(0)), "a closed daemon left {read:?}");
        }
        assert!(started.elapsed() < Duration::from_secs(1));
        let again = daemon.run().expect_err("a daemon serves once");
        assert!(again.to_string().contains("already served"), "{again}");

        // A peer that accepts the connection and never replies.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(silent.local_addr().unwrap()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let started = Instant::now();
        let deadline = Duration::from_millis(200);
        let err = roundtrip(&mut stream, &mut reader, &op("ping"), deadline).unwrap_err();
        assert_eq!(err, "no reply within the 200ms deadline");
        let waited = started.elapsed();
        assert!(
            waited >= deadline && waited < Duration::from_secs(5),
            "{waited:?}"
        );
        assert_eq!(
            reader.get_ref().read_timeout().unwrap(),
            None,
            "timeout restored"
        );
    }

    #[test]
    fn request_shutdown_wakes_an_accept_loop_with_no_client() {
        // The wildcard bind must still wake: the wake connection goes to
        // loopback, not to the unspecified address.
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let daemon = idle_daemon(addr);
            let done = serve_in_background(&daemon);
            // One served ping puts the loop back into a blocking accept.
            let (mut stream, mut reader) = connect(&daemon);
            roundtrip(&mut stream, &mut reader, &op("ping"), REPLY_DEADLINE).unwrap();
            drop((stream, reader));

            daemon.request_shutdown();
            done.recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("run did not return after shutdown ({addr})"))
                .unwrap();
        }
    }

    #[test]
    fn drain_with_nothing_in_flight_closes_the_daemon() {
        let daemon = idle_daemon("127.0.0.1:0");
        let done = serve_in_background(&daemon);
        let (mut stream, mut reader) = connect(&daemon);
        let drained = roundtrip(&mut stream, &mut reader, &op("drain"), REPLY_DEADLINE).unwrap();
        assert_eq!(
            drained.get("state").and_then(Json::as_str),
            Some("draining")
        );
        drop((stream, reader));

        // No shutdown op: the quiet drain alone stops the accept loop.
        done.recv_timeout(Duration::from_secs(5))
            .expect("a quiet drain closes the daemon")
            .unwrap();
        assert_eq!(daemon.scheduler.overload_snapshot().state, "closed");
    }

    #[test]
    fn a_panicking_handler_fails_its_job_and_frees_its_slot() {
        let handler: Arc<JobHandler> = Arc::new(|body: &Json, _grant: &JobGrant| {
            if body.get("panic").is_some() {
                panic!("handler bug");
            }
            Ok(JobOutcome {
                tokens_billed: 3,
                ..JobOutcome::default()
            })
        });
        let scheduler = JobScheduler::new(TenantLedger::new()).with_policy(OverloadPolicy {
            tenant_inflight: Some(1),
            ..OverloadPolicy::default()
        });
        let daemon = Arc::new(Daemon::bind("127.0.0.1:0", scheduler, handler).unwrap());
        let done = serve_in_background(&daemon);
        let (mut stream, mut reader) = connect(&daemon);
        let mut submit = |panics: bool| {
            let mut fields = vec![
                ("op".to_string(), Json::Str("submit".to_string())),
                ("tenant".to_string(), Json::Str("acme".to_string())),
            ];
            if panics {
                fields.push(("panic".to_string(), Json::Bool(true)));
            }
            roundtrip(&mut stream, &mut reader, &Json::Obj(fields), REPLY_DEADLINE).unwrap()
        };

        let failed = submit(true);
        assert_eq!(failed.get("ok"), Some(&Json::Bool(false)));
        let error = failed.get("error").and_then(Json::as_str).unwrap();
        assert!(
            error.contains("job handler panicked: handler bug"),
            "{error}"
        );
        let overload = daemon.scheduler.overload_snapshot();
        assert_eq!((overload.inflight, overload.queued), (0, 0));
        let row = daemon
            .scheduler
            .read(|core| core.ledger.rows()["acme"].clone());
        assert_eq!((row.jobs_active, row.jobs_failed), (0, 1));

        // The tenant's one in-flight slot came back: its next job runs.
        let ok = submit(false);
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{}", ok.to_json());
        assert_eq!(ok.get("tokens_billed").and_then(Json::as_usize), Some(3));

        // Nothing leaked in flight, so a drain goes quiet and closes.
        roundtrip(&mut stream, &mut reader, &op("drain"), REPLY_DEADLINE).unwrap();
        drop((stream, reader));
        done.recv_timeout(Duration::from_secs(5))
            .expect("a quiet drain closes the daemon")
            .unwrap();
        assert_eq!(daemon.scheduler.overload_snapshot().state, "closed");
    }

    /// Timeouts no `Duration` holds, set in code past the flags' check,
    /// saturate: the daemon still answers a ping and a shutdown.
    #[test]
    fn wire_timeouts_past_any_duration_still_serve() {
        assert_eq!(wire_duration(1e300), Duration::MAX);
        assert_eq!(wire_duration(f64::INFINITY), Duration::MAX);
        assert_eq!(wire_duration(f64::NAN), Duration::ZERO);
        assert_eq!(wire_duration(-1.0), Duration::ZERO);
        assert_eq!(wire_duration(2.5), Duration::from_millis(2_500));
        let handler: Arc<JobHandler> =
            Arc::new(|_body: &Json, _grant: &JobGrant| Ok(JobOutcome::default()));
        let daemon = Daemon::bind(
            "127.0.0.1:0",
            JobScheduler::new(TenantLedger::new()),
            handler,
        )
        .unwrap()
        .with_wire_limits(WireLimits {
            frame_secs: 1e300,
            idle_secs: f64::INFINITY,
            write_secs: 1e300,
            ..WireLimits::default()
        });
        let daemon = Arc::new(daemon);
        let done = serve_in_background(&daemon);
        let (mut stream, mut reader) = connect(&daemon);
        let ping = roundtrip(&mut stream, &mut reader, &op("ping"), REPLY_DEADLINE).unwrap();
        assert_eq!(ping.get("pong"), Some(&Json::Bool(true)));
        roundtrip(&mut stream, &mut reader, &op("shutdown"), REPLY_DEADLINE).unwrap();
        drop((stream, reader));
        done.recv_timeout(Duration::from_secs(5))
            .expect("shutdown stops the daemon")
            .unwrap();
    }

    #[test]
    fn kept_alive_pings_do_not_wait_on_delayed_acks() {
        let daemon = idle_daemon("127.0.0.1:0");
        let done = serve_in_background(&daemon);
        let (mut stream, mut reader) = connect(&daemon);
        // Without TCP_NODELAY, a frame sent in two writes waits ~40 ms for
        // the peer's delayed ACK of the first; one-write frames on
        // TCP_NODELAY sockets take well under a millisecond.
        let mut millis: Vec<f64> = (0..20)
            .map(|_| {
                let started = Instant::now();
                roundtrip(&mut stream, &mut reader, &op("ping"), REPLY_DEADLINE).unwrap();
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        millis.sort_by(f64::total_cmp);
        assert!(
            millis[10] < 20.0,
            "median ping {:.1} ms: {millis:?}",
            millis[10]
        );

        roundtrip(&mut stream, &mut reader, &op("shutdown"), REPLY_DEADLINE).unwrap();
        drop((stream, reader));
        done.recv_timeout(Duration::from_secs(5))
            .expect("shutdown stops the daemon")
            .unwrap();
    }

    #[test]
    fn daemon_answers_ping_submit_stats_and_shuts_down() {
        let handler: Arc<JobHandler> = Arc::new(|body: &Json, grant: &JobGrant| {
            let cost = body.get("cost").and_then(Json::as_f64).unwrap_or(0.0);
            Ok(JobOutcome {
                reply: vec![("echo_job".to_string(), Json::Num(grant.job as f64))],
                tokens_billed: 7,
                cost_usd: cost,
                ..JobOutcome::default()
            })
        });
        let ledger = TenantLedger::new();
        let daemon = Daemon::bind("127.0.0.1:0", JobScheduler::new(ledger), handler).unwrap();
        let addr = daemon.local_addr();

        std::thread::scope(|scope| {
            let server = scope.spawn(|| daemon.run());

            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let ping = roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![("op".to_string(), Json::Str("ping".to_string()))]),
                REPLY_DEADLINE,
            )
            .unwrap();
            assert_eq!(ping.get("pong"), Some(&Json::Bool(true)));

            let submit = roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![
                    ("op".to_string(), Json::Str("submit".to_string())),
                    ("tenant".to_string(), Json::Str("acme".to_string())),
                    ("cost".to_string(), Json::Num(0.25)),
                ]),
                REPLY_DEADLINE,
            )
            .unwrap();
            assert_eq!(submit.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(
                submit.get("tokens_billed").and_then(Json::as_usize),
                Some(7)
            );
            assert_eq!(submit.get("echo_job").and_then(Json::as_usize), Some(1));

            let stats = roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![("op".to_string(), Json::Str("stats".to_string()))]),
                REPLY_DEADLINE,
            )
            .unwrap();
            let tenants = match stats.get("tenants") {
                Some(Json::Arr(rows)) => rows,
                other => panic!("stats has no tenants array: {other:?}"),
            };
            assert_eq!(tenants.len(), 1);
            assert_eq!(
                tenants[0].get("tokens_billed").and_then(Json::as_usize),
                Some(7)
            );

            let bad = roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![("op".to_string(), Json::Str("warp".to_string()))]),
                REPLY_DEADLINE,
            )
            .unwrap();
            assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));

            let down = roundtrip(
                &mut stream,
                &mut reader,
                &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
                REPLY_DEADLINE,
            )
            .unwrap();
            assert_eq!(down.get("shutting_down"), Some(&Json::Bool(true)));
            server.join().unwrap().unwrap();
        });
    }
}
