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
//! * [`Turnstile`] — the round-robin, work-conserving [`ShardGate`]:
//!   registered jobs are granted turns in rotation order, and several hold
//!   turns at once while their summed worker counts fit the machine's
//!   available parallelism (a job as wide as the machine runs alone); a
//!   finished job leaves the rotation when its handle drops.
//! * [`TenantLedger`] — per-tenant token allowances and billed totals.
//!   Admission clamps a job's own token budget to the tenant's remaining
//!   allowance, so the job runs under a private [`ExecutionOptions`]
//!   budget gauge and stays **bit-identical to a one-shot run at that
//!   clamped budget** — tenancy never perturbs a job's results, only which
//!   budget it gets.
//! * [`JobScheduler`] — admission + turnstile registration + settlement,
//!   emitting `job_accepted` / `job_completed` / `job_rejected` trace
//!   events. An optional [`OverloadPolicy`] bounds admission: in-flight
//!   slots and a bounded wait queue (global and per-tenant caps), with
//!   excess load *shed* as a structured [`Rejection`] carrying a
//!   `retry_after` hint — shed jobs bill exactly zero tokens (`job_shed`
//!   events, audit invariant 10). A policy default deadline propagates
//!   into each job's [`ExecutionOptions::deadline_secs`] budget gauge, so
//!   a job that cannot finish by its deadline is rejected at admission
//!   (non-positive deadline) or cancelled at the shard boundary with
//!   deterministic plan-order partials. The scheduler also owns the
//!   graceful-drain state machine (`serving → draining → closed`): a
//!   drain stops admitting, fires every in-flight job's checkpoint
//!   [`KillSwitch`] so journaled jobs stop at their next terminal, and
//!   closes once nothing is in flight — a restart then resumes every
//!   checkpointed job bit-identically with exactly-once billing.
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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

/// Shared state of a [`Turnstile`].
#[derive(Debug, Default)]
struct Rotation {
    /// Jobs not holding a turn, in rotation order, with their shares.
    queue: VecDeque<(u64, usize)>,
    /// Jobs holding a turn.
    holding: Vec<u64>,
    /// Summed shares of the jobs holding a turn.
    held: usize,
}

/// A round-robin, work-conserving [`ShardGate`]: jobs registered with
/// [`register`](Turnstile::register) take turns in rotation order, each
/// turn covering one plan shard. Jobs hold turns at the same time while
/// their summed shares fit the turnstile's limit, the machine's available
/// parallelism, so a job does not wait for a turn while a core idles. A
/// job's share is its worker count capped at the limit: a job with at
/// least as many workers as the limit runs alone, and at limit 1 every
/// job does (strict alternation).
///
/// Rotation order holds by reservation: a waiting job starts a turn only
/// in the capacity left by the jobs holding turns and by every job ahead
/// of it in the rotation, asking yet or not. So a job never waits on one
/// behind it, and a wide job is not starved by a stream of narrow ones.
/// Dropping a job's [`TurnstileHandle`] removes it from the rotation and
/// frees its share, even mid-turn, so finished (or crashed) jobs never
/// block the others.
#[derive(Debug)]
pub struct Turnstile {
    rotation: Mutex<Rotation>,
    turned: Condvar,
    /// Summed shares that may hold turns at once.
    limit: usize,
}

impl Turnstile {
    /// An empty turnstile whose limit is the machine's available
    /// parallelism.
    pub fn new() -> Arc<Turnstile> {
        Turnstile::with_limit(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// An empty turnstile admitting `limit` summed shares at once.
    fn with_limit(limit: usize) -> Arc<Turnstile> {
        Arc::new(Turnstile {
            rotation: Mutex::new(Rotation::default()),
            turned: Condvar::new(),
            limit: limit.max(1),
        })
    }

    /// Adds `job`, running on `workers` threads, to the back of the
    /// rotation and returns its gate handle.
    pub fn register(self: &Arc<Self>, job: u64, workers: usize) -> TurnstileHandle {
        let share = workers.clamp(1, self.limit);
        self.rotation
            .lock()
            .expect("rotation lock")
            .queue
            .push_back((job, share));
        TurnstileHandle {
            turnstile: Arc::clone(self),
            job,
            share,
        }
    }

    /// Jobs currently in the rotation, holding a turn or not.
    pub fn len(&self) -> usize {
        let rotation = self.rotation.lock().expect("rotation lock");
        rotation.queue.len() + rotation.holding.len()
    }

    /// Whether the rotation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One job's membership in a [`Turnstile`]. Implements [`ShardGate`];
/// dropping it leaves the rotation.
#[derive(Debug)]
pub struct TurnstileHandle {
    turnstile: Arc<Turnstile>,
    job: u64,
    share: usize,
}

impl ShardGate for TurnstileHandle {
    fn acquire(&self) {
        let turnstile = &self.turnstile;
        let mut rotation = turnstile.rotation.lock().expect("rotation lock");
        loop {
            // The capacity claimed once this job starts: every holder's
            // share plus every share up to and including its own.
            let mut claimed = rotation.held;
            let position = rotation.queue.iter().position(|&(job, share)| {
                claimed += share;
                job == self.job
            });
            if let Some(i) = position.filter(|_| claimed <= turnstile.limit) {
                rotation.queue.remove(i);
                rotation.holding.push(self.job);
                rotation.held += self.share;
                return;
            }
            rotation = turnstile.turned.wait(rotation).expect("rotation lock");
        }
    }

    fn release(&self) {
        let mut rotation = self.turnstile.rotation.lock().expect("rotation lock");
        if let Some(i) = rotation.holding.iter().position(|&j| j == self.job) {
            rotation.holding.swap_remove(i);
            rotation.held -= self.share;
            rotation.queue.push_back((self.job, self.share));
        }
        drop(rotation);
        self.turnstile.turned.notify_all();
    }
}

impl Drop for TurnstileHandle {
    fn drop(&mut self) {
        // No rotation update can panic midway, so a poisoned lock still
        // guards consistent state; `Drop` must not panic.
        let mut rotation = self
            .turnstile
            .rotation
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(i) = rotation.holding.iter().position(|&j| j == self.job) {
            rotation.holding.swap_remove(i);
            rotation.held -= self.share;
        }
        rotation.queue.retain(|&(j, _)| j != self.job);
        drop(rotation);
        self.turnstile.turned.notify_all();
    }
}

/// One tenant's ledger row.
#[derive(Debug, Clone, Default)]
struct TenantState {
    budget: Option<usize>,
    tokens_billed: usize,
    cost_usd: f64,
    jobs_active: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    jobs_rejected: u64,
    jobs_tripped: u64,
    jobs_shed: u64,
}

/// A tenant's billing snapshot (see [`TenantLedger::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantUsage {
    /// Tenant name.
    pub tenant: String,
    /// The tenant's token allowance, if capped.
    pub budget: Option<usize>,
    /// Tokens billed across the tenant's completed jobs.
    pub tokens_billed: usize,
    /// Dollars billed across the tenant's completed jobs.
    pub cost_usd: f64,
    /// Jobs admitted and still running.
    pub jobs_active: u64,
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
}

/// Per-tenant token allowances and billed totals.
///
/// Admission is charge-aware, not reservation-based: a job is admitted
/// with `min(its own budget, tenant remaining)` as its effective token
/// budget and bills what it actually spent at settlement. Two concurrent
/// jobs of one tenant can therefore jointly overshoot the allowance by at
/// most one job's effective budget — the same charge-then-check semantics
/// the per-run [`ExecutionOptions::token_budget`] gauge uses.
#[derive(Debug, Default)]
pub struct TenantLedger {
    tenants: Mutex<BTreeMap<String, TenantState>>,
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
    pub fn set_budget(&self, tenant: &str, tokens: Option<usize>) {
        let mut tenants = self.tenants.lock().expect("ledger lock");
        tenants.entry(tenant.to_string()).or_default().budget = tokens;
    }

    /// Admission check: the effective token budget a new job of `tenant`
    /// may run under, or why it cannot run at all.
    fn admit(&self, tenant: &str, requested: Option<usize>) -> Result<Option<usize>, String> {
        let mut tenants = self.tenants.lock().expect("ledger lock");
        let state = tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                budget: self.default_budget,
                ..TenantState::default()
            });
        let Some(budget) = state.budget else {
            state.jobs_active += 1;
            return Ok(requested);
        };
        let remaining = budget.saturating_sub(state.tokens_billed);
        if remaining == 0 {
            state.jobs_rejected += 1;
            return Err(format!(
                "tenant {tenant:?} token allowance exhausted ({} billed of {budget})",
                state.tokens_billed
            ));
        }
        state.jobs_active += 1;
        Ok(Some(requested.map_or(remaining, |r| r.min(remaining))))
    }

    /// Settles a finished job's bill.
    fn settle(&self, tenant: &str, tokens: usize, cost_usd: f64, tripped: bool) {
        let mut tenants = self.tenants.lock().expect("ledger lock");
        let state = tenants.entry(tenant.to_string()).or_default();
        state.tokens_billed += tokens;
        state.cost_usd += cost_usd;
        // Saturating: direct settle calls (tests, replays) may not have
        // passed admission.
        state.jobs_active = state.jobs_active.saturating_sub(1);
        state.jobs_completed += 1;
        state.jobs_tripped += u64::from(tripped);
    }

    /// Records a job that errored after admission.
    fn fail(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().expect("ledger lock");
        let state = tenants.entry(tenant.to_string()).or_default();
        state.jobs_active = state.jobs_active.saturating_sub(1);
        state.jobs_failed += 1;
    }

    /// Records a job the overload policy shed before any work was done.
    /// Shed jobs never held an active slot and bill nothing.
    fn shed(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().expect("ledger lock");
        tenants.entry(tenant.to_string()).or_default().jobs_shed += 1;
    }

    /// Every tenant's row, in name order.
    pub fn snapshot(&self) -> Vec<TenantUsage> {
        let tenants = self.tenants.lock().expect("ledger lock");
        tenants
            .iter()
            .map(|(tenant, s)| TenantUsage {
                tenant: tenant.clone(),
                budget: s.budget,
                tokens_billed: s.tokens_billed,
                cost_usd: s.cost_usd,
                jobs_active: s.jobs_active,
                jobs_completed: s.jobs_completed,
                jobs_failed: s.jobs_failed,
                jobs_rejected: s.jobs_rejected,
                jobs_tripped: s.jobs_tripped,
                jobs_shed: s.jobs_shed,
            })
            .collect()
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

/// What the scheduler grants an admitted job: its id, its turnstile gate
/// (wire it into the executor with `with_shard_gate`), its effective
/// execution options — the requested options with `token_budget` clamped
/// to the tenant's remaining allowance and `workers` to the job's
/// turnstile share — and its drain halt.
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

/// The overload gate's mutable state: slot occupancy under one lock so
/// every admit/shed decision sees a consistent picture.
#[derive(Debug, Default)]
struct AdmissionState {
    inflight: usize,
    queued: usize,
    per_tenant: BTreeMap<String, usize>,
}

/// Drain states, packed into an atomic for lock-free reads.
const DRAIN_SERVING: u8 = 0;
const DRAIN_DRAINING: u8 = 1;
const DRAIN_CLOSED: u8 = 2;

/// Admission, fair-share registration, and settlement for concurrent jobs.
pub struct JobScheduler {
    ledger: TenantLedger,
    turnstile: Arc<Turnstile>,
    tracer: Arc<dyn Tracer>,
    next_job: AtomicU64,
    active: AtomicU64,
    policy: OverloadPolicy,
    admission: Mutex<AdmissionState>,
    /// Signalled whenever an in-flight slot frees or a drain begins, so
    /// queued jobs re-evaluate.
    slot_freed: Condvar,
    drain_state: AtomicU8,
    /// Checkpoint halts of in-flight jobs, fired all at once by a drain.
    halts: Mutex<HashMap<u64, KillSwitch>>,
    admitted_total: AtomicU64,
    shed_total: AtomicU64,
}

impl JobScheduler {
    /// A scheduler billing against `ledger`.
    pub fn new(ledger: TenantLedger) -> JobScheduler {
        JobScheduler {
            ledger,
            turnstile: Turnstile::new(),
            tracer: Arc::new(NullTracer),
            next_job: AtomicU64::new(1),
            active: AtomicU64::new(0),
            policy: OverloadPolicy::default(),
            admission: Mutex::new(AdmissionState::default()),
            slot_freed: Condvar::new(),
            drain_state: AtomicU8::new(DRAIN_SERVING),
            halts: Mutex::new(HashMap::new()),
            admitted_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
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
    pub fn with_policy(mut self, policy: OverloadPolicy) -> JobScheduler {
        self.policy = policy;
        self
    }

    /// The billing ledger.
    pub fn ledger(&self) -> &TenantLedger {
        &self.ledger
    }

    /// The admission policy.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// Jobs currently running.
    pub fn active_jobs(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Whether a drain has started (or finished).
    pub fn draining(&self) -> bool {
        self.drain_state.load(Ordering::Relaxed) != DRAIN_SERVING
    }

    /// The drain state's label: `serving` / `draining` / `closed`.
    pub fn drain_label(&self) -> &'static str {
        match self.drain_state.load(Ordering::Relaxed) {
            DRAIN_SERVING => "serving",
            DRAIN_DRAINING => "draining",
            _ => "closed",
        }
    }

    /// The overload gate's current occupancy and lifetime totals.
    pub fn overload_snapshot(&self) -> OverloadSnapshot {
        let st = self.admission.lock().expect("admission lock");
        OverloadSnapshot {
            state: self.drain_label(),
            inflight: st.inflight,
            queued: st.queued,
            admitted_total: self.admitted_total.load(Ordering::Relaxed),
            shed_total: self.shed_total.load(Ordering::Relaxed),
        }
    }

    /// Whether the gate is idle: no in-flight slots held and nothing
    /// queued. A draining daemon closes at this point.
    pub fn quiesced(&self) -> bool {
        let st = self.admission.lock().expect("admission lock");
        st.inflight == 0 && st.queued == 0
    }

    /// Starts a drain: stop admitting (new and queued jobs shed with kind
    /// `draining`), fire every in-flight job's checkpoint halt so
    /// journaled jobs stop at their next journaled terminal, and emit the
    /// `serving → draining` transition. Idempotent.
    pub fn drain(&self) {
        if self
            .drain_state
            .compare_exchange(
                DRAIN_SERVING,
                DRAIN_DRAINING,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return;
        }
        let inflight = self.admission.lock().expect("admission lock").inflight;
        self.tracer.record(&TraceEvent::DrainTransition {
            from: "serving",
            to: "draining",
            inflight,
        });
        for halt in self.halts.lock().expect("halts lock").values() {
            halt.trigger();
        }
        // Wake queued jobs so they shed as draining instead of waiting on
        // slots that will never be granted to them.
        self.slot_freed.notify_all();
    }

    /// Completes the drain chain once nothing is in flight: emits the
    /// `draining → closed` transition. Idempotent; no-op unless draining.
    pub fn mark_closed(&self) {
        if self
            .drain_state
            .compare_exchange(
                DRAIN_DRAINING,
                DRAIN_CLOSED,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            self.tracer.record(&TraceEvent::DrainTransition {
                from: "draining",
                to: "closed",
                inflight: 0,
            });
        }
    }

    /// Books a shed: the zero-billing rejection trace plus per-tenant and
    /// lifetime counters. `queued`/`inflight` are the gate occupancy the
    /// decision was made against.
    fn book_shed(
        &self,
        job: u64,
        tenant: &str,
        rejection: &Rejection,
        queued: usize,
        inflight: usize,
    ) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        self.ledger.shed(tenant);
        self.tracer.record(&TraceEvent::JobShed {
            job,
            tenant: tenant.to_string(),
            reason: rejection.kind.to_string(),
            retry_after_secs: rejection.retry_after_secs.unwrap_or(0.0),
            queued,
            inflight,
        });
    }

    /// The backoff hint for an overload shed: longer the deeper the
    /// backlog, so colliding clients spread their retries.
    fn retry_after(queued: usize, inflight: usize) -> f64 {
        0.5 * (queued + inflight + 1) as f64
    }

    /// Takes an in-flight slot for `job`, waiting in the bounded queue
    /// when the policy allows, or sheds. On `Ok` the slot is held and must
    /// be released with [`release_slot`](Self::release_slot).
    fn acquire_slot(&self, tenant: &str, job: u64) -> Result<(), Rejection> {
        let mut st = self.admission.lock().expect("admission lock");
        let mut queued_here = false;
        loop {
            if self.draining() {
                if queued_here {
                    st.queued -= 1;
                }
                let rejection = Rejection {
                    kind: "draining",
                    message: "daemon is draining and admits no new jobs".to_string(),
                    retry_after_secs: None,
                };
                self.book_shed(job, tenant, &rejection, st.queued, st.inflight);
                return Err(rejection);
            }
            let tenant_held = st.per_tenant.get(tenant).copied().unwrap_or(0);
            let tenant_capped = self
                .policy
                .tenant_inflight
                .is_some_and(|cap| tenant_held >= cap);
            let capped = self
                .policy
                .max_inflight
                .is_some_and(|cap| st.inflight >= cap);
            if !capped && !tenant_capped {
                st.inflight += 1;
                *st.per_tenant.entry(tenant.to_string()).or_default() += 1;
                if queued_here {
                    st.queued -= 1;
                }
                self.tracer.record(&TraceEvent::QueueDepth {
                    queued: st.queued,
                    inflight: st.inflight,
                });
                return Ok(());
            }
            // A tenant at its own cap sheds instead of queueing, so one
            // tenant cannot occupy the shared queue; likewise a full
            // queue sheds instead of blocking the wire thread forever.
            let queue_full = st.queued >= self.policy.max_queued.unwrap_or(0);
            if !queued_here && (tenant_capped || queue_full) {
                let rejection = Rejection {
                    kind: "overloaded",
                    message: if tenant_capped {
                        format!(
                            "tenant {tenant:?} is at its concurrency cap \
                             ({tenant_held} in flight)"
                        )
                    } else {
                        format!(
                            "admission queue is full ({} queued, {} in flight)",
                            st.queued, st.inflight
                        )
                    },
                    retry_after_secs: Some(Self::retry_after(st.queued, st.inflight)),
                };
                self.book_shed(job, tenant, &rejection, st.queued, st.inflight);
                return Err(rejection);
            }
            if !queued_here {
                st.queued += 1;
                queued_here = true;
                self.tracer.record(&TraceEvent::QueueDepth {
                    queued: st.queued,
                    inflight: st.inflight,
                });
            }
            st = self.slot_freed.wait(st).expect("admission lock");
        }
    }

    /// Releases `tenant`'s in-flight slot and wakes one queued waiter.
    fn release_slot(&self, tenant: &str) {
        let mut st = self.admission.lock().expect("admission lock");
        st.inflight = st.inflight.saturating_sub(1);
        if let Some(held) = st.per_tenant.get_mut(tenant) {
            *held = held.saturating_sub(1);
            if *held == 0 {
                st.per_tenant.remove(tenant);
            }
        }
        drop(st);
        self.slot_freed.notify_all();
    }

    /// Admits, runs, and settles one job on the calling thread.
    ///
    /// `body` receives the [`JobGrant`] and must run the workload under
    /// `grant.options` with `grant.gate` wired into the executor
    /// (`with_shard_gate`), returning the outcome to bill. The grant's
    /// turnstile slot is freed when `body` returns, whatever the result.
    ///
    /// Admission proceeds in deterministic stages: a non-positive
    /// deadline sheds (`deadline`), then the overload gate sheds or
    /// queues (`overloaded` / `draining`), then the tenant ledger rejects
    /// an exhausted allowance (`budget-exhausted`). Every refusal is a
    /// [`JobError::Rejected`] that billed zero tokens; a failure from
    /// `body` is [`JobError::Failed`], and so is a panic in `body`: it is
    /// caught here, so the job's slot, halt, and ledger row are settled
    /// like any other failure's instead of leaking.
    pub fn run_job(
        &self,
        tenant: &str,
        requested: ExecutionOptions,
        body: impl FnOnce(&JobGrant) -> Result<JobOutcome, String>,
    ) -> Result<(u64, JobOutcome), JobError> {
        let mut requested = requested;
        if requested.deadline_secs.is_none() {
            requested.deadline_secs = self.policy.default_deadline_secs;
        }
        let job = self.next_job.fetch_add(1, Ordering::Relaxed);
        if let Some(deadline) = requested.deadline_secs {
            if deadline <= 0.0 {
                let rejection = Rejection {
                    kind: "deadline",
                    message: format!(
                        "job cannot finish by its deadline ({deadline}s at admission)"
                    ),
                    retry_after_secs: None,
                };
                let (queued, inflight) = {
                    let st = self.admission.lock().expect("admission lock");
                    (st.queued, st.inflight)
                };
                self.book_shed(job, tenant, &rejection, queued, inflight);
                return Err(JobError::Rejected(rejection));
            }
        }
        self.acquire_slot(tenant, job).map_err(JobError::Rejected)?;
        let effective_budget = match self.ledger.admit(tenant, requested.token_budget) {
            Ok(budget) => budget,
            Err(reason) => {
                self.release_slot(tenant);
                self.tracer.record(&TraceEvent::JobRejected {
                    tenant: tenant.to_string(),
                    reason: reason.clone(),
                });
                return Err(JobError::Rejected(Rejection {
                    kind: "budget-exhausted",
                    message: reason,
                    retry_after_secs: None,
                }));
            }
        };
        let halt = KillSwitch::unarmed();
        self.halts
            .lock()
            .expect("halts lock")
            .insert(job, halt.clone());
        // Close the race with a drain that fired between slot acquisition
        // and halt registration: its trigger sweep may have missed us.
        if self.draining() {
            halt.trigger();
        }
        // A job runs on no more threads than its turnstile share: the
        // survey spans the whole plan, not one shard, so an unclamped
        // count would spawn a thread per batch.
        let gate = self.turnstile.register(job, requested.workers);
        let grant = JobGrant {
            job,
            options: ExecutionOptions {
                workers: gate.share,
                token_budget: effective_budget,
                ..requested
            },
            gate: Arc::new(gate),
            halt,
        };
        self.tracer.record(&TraceEvent::JobAccepted {
            job,
            tenant: tenant.to_string(),
        });
        self.admitted_total.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
        let result =
            std::panic::catch_unwind(AssertUnwindSafe(|| body(&grant))).unwrap_or_else(|panic| {
                let message = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string payload");
                Err(format!("job handler panicked: {message}"))
            });
        drop(grant);
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.halts.lock().expect("halts lock").remove(&job);
        match &result {
            Ok(outcome) => {
                self.ledger.settle(
                    tenant,
                    outcome.tokens_billed,
                    outcome.cost_usd,
                    outcome.budget_tripped,
                );
                self.tracer.record(&TraceEvent::JobCompleted {
                    job,
                    tenant: tenant.to_string(),
                    tokens: outcome.tokens_billed,
                    cost_usd: outcome.cost_usd,
                    budget_tripped: outcome.budget_tripped,
                });
            }
            Err(reason) => {
                self.ledger.fail(tenant);
                self.tracer.record(&TraceEvent::JobRejected {
                    tenant: tenant.to_string(),
                    reason: reason.clone(),
                });
            }
        }
        self.release_slot(tenant);
        result
            .map(|outcome| (job, outcome))
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

    /// The recorder, if one is attached.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
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
        let mut tenants = self.tenants.lock().expect("ops plane lock");
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
        let mut tenants = self.tenants.lock().expect("ops plane lock");
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
        let tenants = self.tenants.lock().expect("ops plane lock");
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
        let tenants = self.tenants.lock().expect("ops plane lock");
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
    tenants: Mutex<BTreeMap<String, MetricsSnapshot>>,
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
            tenants: Mutex::new(BTreeMap::new()),
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

    /// The attached ops plane, if any.
    pub fn ops(&self) -> Option<&Arc<OpsPlane>> {
        self.ops.as_ref()
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job scheduler (ledger access for tests and reports).
    pub fn scheduler(&self) -> &JobScheduler {
        &self.scheduler
    }

    /// A copy of the per-tenant metrics registry.
    pub fn tenant_metrics(&self) -> BTreeMap<String, MetricsSnapshot> {
        self.tenants.lock().expect("tenant metrics lock").clone()
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
    /// serving and after every request: a drain started over the wire
    /// goes quiet on a request (the drain op, or the last in-flight
    /// submit), while one started through [`scheduler`](Self::scheduler)
    /// with nothing in flight closes the daemon at its next request.
    fn close_if_drained(&self) {
        if self.scheduler.draining() && self.scheduler.quiesced() {
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
        self.scheduler.mark_closed();
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
        let _ = stream.set_write_timeout(Some(Duration::from_secs_f64(self.wire.write_secs)));
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
        let idle_limit = Duration::from_secs_f64(self.wire.idle_secs);
        let frame_limit = Duration::from_secs_f64(self.wire.frame_secs);
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
        Reply::Line(match body.get("op").and_then(Json::as_str) {
            Some("ping") => Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("pong".to_string(), Json::Bool(true)),
                (
                    "active_jobs".to_string(),
                    Json::Num(self.scheduler.active_jobs() as f64),
                ),
            ]),
            Some("submit") => self.submit(&body),
            Some("stats") => self.stats(),
            Some("metrics") => {
                if body.get("format").and_then(Json::as_str) == Some("raw") {
                    return Reply::Raw(self.prom_body());
                }
                Json::Obj(vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("prom".to_string(), Json::Str(self.prom_body())),
                ])
            }
            Some("health") => self.health(),
            Some("drain") => {
                self.scheduler.drain();
                let overload = self.scheduler.overload_snapshot();
                Json::Obj(vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("draining".to_string(), Json::Bool(true)),
                    ("state".to_string(), Json::Str(overload.state.to_string())),
                    ("inflight".to_string(), Json::Num(overload.inflight as f64)),
                    ("queued".to_string(), Json::Num(overload.queued as f64)),
                ])
            }
            Some("shutdown") => {
                // Shutdown is a drain plus an immediate stop-accepting:
                // in-flight jobs finish or checkpoint to their journals
                // before the process exits, so billed work survives.
                self.scheduler.drain();
                self.request_shutdown();
                Json::Obj(vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("shutting_down".to_string(), Json::Bool(true)),
                ])
            }
            Some(other) => error_reply(&format!("unknown op {other:?}")),
            None => error_reply("request has no \"op\" field"),
        })
    }

    /// The `health` reply: per-tenant windowed rates, SLO alert states,
    /// and ledger headroom — everything `dprep top` renders. Tenants are
    /// the union of the ops plane's and the ledger's, in name order.
    fn health(&self) -> Json {
        let ledger: BTreeMap<String, TenantUsage> = self
            .scheduler
            .ledger()
            .snapshot()
            .into_iter()
            .map(|row| (row.tenant.clone(), row))
            .collect();
        let plane: BTreeMap<String, TenantHealth> = self
            .ops
            .as_ref()
            .map(|ops| {
                ops.health()
                    .into_iter()
                    .map(|h| (h.tenant.clone(), h))
                    .collect()
            })
            .unwrap_or_default();
        let names: std::collections::BTreeSet<String> =
            ledger.keys().chain(plane.keys()).cloned().collect();
        let tenants: Vec<Json> = names
            .into_iter()
            .map(|name| {
                let mut fields = vec![("tenant".to_string(), Json::Str(name.clone()))];
                if let Some(row) = ledger.get(&name) {
                    fields.push((
                        "budget".to_string(),
                        row.budget.map_or(Json::Null, |b| Json::Num(b as f64)),
                    ));
                    fields.push((
                        "tokens_billed".to_string(),
                        Json::Num(row.tokens_billed as f64),
                    ));
                    fields.push((
                        "headroom".to_string(),
                        row.budget.map_or(Json::Null, |budget| {
                            Json::Num(if budget == 0 {
                                0.0
                            } else {
                                budget.saturating_sub(row.tokens_billed) as f64 / budget as f64
                            })
                        }),
                    ));
                    fields.push(("jobs_active".to_string(), Json::Num(row.jobs_active as f64)));
                    fields.push((
                        "jobs_completed".to_string(),
                        Json::Num(row.jobs_completed as f64),
                    ));
                    fields.push(("jobs_shed".to_string(), Json::Num(row.jobs_shed as f64)));
                }
                if let Some(health) = plane.get(&name) {
                    fields.push(("window".to_string(), health.window.to_json()));
                    let slos: Vec<Json> = health
                        .slos
                        .iter()
                        .map(|(slo, state, burn_long, burn_short)| {
                            Json::Obj(vec![
                                ("slo".to_string(), Json::Str((*slo).to_string())),
                                ("state".to_string(), Json::Str((*state).to_string())),
                                ("burn_long".to_string(), Json::Num(*burn_long)),
                                ("burn_short".to_string(), Json::Num(*burn_short)),
                            ])
                        })
                        .collect();
                    fields.push(("slos".to_string(), Json::Arr(slos)));
                    fields.push((
                        "transitions".to_string(),
                        Json::Num(health.transitions as f64),
                    ));
                }
                Json::Obj(fields)
            })
            .collect();
        let overload = self.scheduler.overload_snapshot();
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            (
                "active_jobs".to_string(),
                Json::Num(self.scheduler.active_jobs() as f64),
            ),
            ("state".to_string(), Json::Str(overload.state.to_string())),
            ("inflight".to_string(), Json::Num(overload.inflight as f64)),
            ("queued".to_string(), Json::Num(overload.queued as f64)),
            (
                "admitted_jobs".to_string(),
                Json::Num(overload.admitted_total as f64),
            ),
            (
                "shed_jobs".to_string(),
                Json::Num(overload.shed_total as f64),
            ),
            ("has_ops".to_string(), Json::Bool(self.ops.is_some())),
            ("tenants".to_string(), Json::Arr(tenants)),
        ])
    }

    /// Reports `tenant`'s post-settlement budget headroom to the ops
    /// plane's headroom objective. Uncapped tenants report nothing —
    /// headroom is undefined without an allowance.
    fn note_headroom(&self, tenant: &str) {
        let Some(ops) = &self.ops else { return };
        let row = self
            .scheduler
            .ledger()
            .snapshot()
            .into_iter()
            .find(|row| row.tenant == tenant);
        if let Some(row) = row {
            if let Some(budget) = row.budget {
                let fraction = if budget == 0 {
                    0.0
                } else {
                    budget.saturating_sub(row.tokens_billed) as f64 / budget as f64
                };
                ops.note_headroom(tenant, fraction);
            }
        }
    }

    /// Runs one `submit` request through the scheduler and handler. The
    /// job's deadline comes from `deadline_secs` (virtual seconds) or the
    /// wire-friendly `deadline_ms` alias; an explicit `deadline_secs`
    /// wins when both are present, and the scheduler's policy default
    /// applies when neither is.
    fn submit(&self, body: &Json) -> Json {
        let (workers, token_budget) = match (
            whole_field(body, "workers"),
            whole_field(body, "token_budget"),
        ) {
            (Ok(workers), Ok(token_budget)) => (workers, token_budget),
            (Err(e), _) | (_, Err(e)) => return error_reply(&e),
        };
        let tenant = body
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("default")
            .to_string();
        let deadline_secs = body
            .get("deadline_secs")
            .and_then(Json::as_f64)
            .or_else(|| {
                body.get("deadline_ms")
                    .and_then(Json::as_f64)
                    .map(|ms| ms / 1000.0)
            });
        let requested = ExecutionOptions {
            workers: workers.unwrap_or(1).max(1),
            token_budget,
            deadline_secs,
            ..ExecutionOptions::default()
        };
        match self
            .scheduler
            .run_job(&tenant, requested, |grant| (self.handler)(body, grant))
        {
            Ok((job, outcome)) => {
                self.tenants
                    .lock()
                    .expect("tenant metrics lock")
                    .entry(tenant.clone())
                    .or_default()
                    .merge(&outcome.metrics);
                self.note_headroom(&tenant);
                let mut fields = vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("job".to_string(), Json::Num(job as f64)),
                    ("tenant".to_string(), Json::Str(tenant)),
                    (
                        "tokens_billed".to_string(),
                        Json::Num(outcome.tokens_billed as f64),
                    ),
                    ("cost_usd".to_string(), Json::Num(outcome.cost_usd)),
                    (
                        "budget_tripped".to_string(),
                        Json::Bool(outcome.budget_tripped),
                    ),
                ];
                fields.extend(outcome.reply);
                Json::Obj(fields)
            }
            // A structured rejection tells the client what to do next:
            // back off (`retry_after`), stop (drain), or fix the request.
            Err(JobError::Rejected(rejection)) => {
                let mut fields = vec![
                    ("ok".to_string(), Json::Bool(false)),
                    (
                        "rejected".to_string(),
                        Json::Str(rejection.kind.to_string()),
                    ),
                    ("error".to_string(), Json::Str(rejection.message)),
                ];
                if let Some(after) = rejection.retry_after_secs {
                    fields.push(("retry_after".to_string(), Json::Num(after)));
                }
                Json::Obj(fields)
            }
            Err(JobError::Failed(e)) => error_reply(&e),
        }
    }

    /// The Prometheus scrape body: tenant-labeled series plus the
    /// daemon-level overload gauges.
    fn prom_body(&self) -> String {
        let mut body = render_prom_tenants(&self.tenant_metrics());
        let overload = self.scheduler.overload_snapshot();
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
                if overload.state == "serving" {
                    0.0
                } else {
                    1.0
                },
            ),
        ]));
        body
    }

    /// The `stats` reply: active jobs plus every tenant's ledger row.
    fn stats(&self) -> Json {
        let tenants = self
            .scheduler
            .ledger()
            .snapshot()
            .into_iter()
            .map(|row| {
                Json::Obj(vec![
                    ("tenant".to_string(), Json::Str(row.tenant)),
                    (
                        "budget".to_string(),
                        row.budget.map_or(Json::Null, |b| Json::Num(b as f64)),
                    ),
                    (
                        "tokens_billed".to_string(),
                        Json::Num(row.tokens_billed as f64),
                    ),
                    ("cost_usd".to_string(), Json::Num(row.cost_usd)),
                    ("jobs_active".to_string(), Json::Num(row.jobs_active as f64)),
                    (
                        "jobs_completed".to_string(),
                        Json::Num(row.jobs_completed as f64),
                    ),
                    ("jobs_failed".to_string(), Json::Num(row.jobs_failed as f64)),
                    (
                        "jobs_rejected".to_string(),
                        Json::Num(row.jobs_rejected as f64),
                    ),
                    (
                        "jobs_tripped".to_string(),
                        Json::Num(row.jobs_tripped as f64),
                    ),
                    ("jobs_shed".to_string(), Json::Num(row.jobs_shed as f64)),
                ])
            })
            .collect();
        let overload = self.scheduler.overload_snapshot();
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            (
                "active_jobs".to_string(),
                Json::Num(self.scheduler.active_jobs() as f64),
            ),
            ("state".to_string(), Json::Str(overload.state.to_string())),
            ("inflight".to_string(), Json::Num(overload.inflight as f64)),
            ("queued".to_string(), Json::Num(overload.queued as f64)),
            (
                "admitted_jobs".to_string(),
                Json::Num(overload.admitted_total as f64),
            ),
            (
                "shed_jobs".to_string(),
                Json::Num(overload.shed_total as f64),
            ),
            ("tenants".to_string(), Json::Arr(tenants)),
        ])
    }
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
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.to_string())),
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

    #[test]
    fn turnstile_rotates_strictly_and_drops_finished_jobs() {
        let turnstile = Turnstile::with_limit(1);
        let a = turnstile.register(1, 1);
        let b = turnstile.register(2, 1);
        assert_eq!(turnstile.len(), 2);

        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for (handle, label) in [(&a, 'a'), (&b, 'b')] {
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    for _ in 0..3 {
                        handle.acquire();
                        order.lock().unwrap().push(label);
                        handle.release();
                    }
                });
            }
        });
        // Strict alternation starting with the first registrant: the
        // rotation is deterministic even though thread scheduling is not.
        assert_eq!(*order.lock().unwrap(), vec!['a', 'b', 'a', 'b', 'a', 'b']);

        drop(a);
        assert_eq!(turnstile.len(), 1);
        // With `a` gone, `b` holds every turn and never blocks.
        b.acquire();
        b.release();
        drop(b);
        assert!(turnstile.is_empty());
    }

    /// Acquires `handle`'s turn on another thread and hands the handle
    /// back, failing the test (instead of hanging it) if no turn comes.
    fn granted(handle: TurnstileHandle) -> TurnstileHandle {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            handle.acquire();
            let _ = tx.send(handle);
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("turn granted")
    }

    #[test]
    fn turnstile_grants_concurrent_turns_within_its_limit() {
        let turnstile = Turnstile::with_limit(2);
        let held = || turnstile.rotation.lock().unwrap().held;
        // Two one-worker jobs hold turns at the same moment.
        let a = granted(turnstile.register(1, 1));
        let b = granted(turnstile.register(2, 1));
        assert_eq!(held(), 2);

        // Dropping a handle mid-turn frees its share for a waiting job.
        let c = turnstile.register(3, 1);
        drop(a);
        let c = granted(c);
        assert_eq!((held(), turnstile.len()), (2, 2));
        drop((b, c));
        assert_eq!(held(), 0);
        assert!(turnstile.is_empty());

        // A job wider than the limit takes every share, no more.
        let wide = granted(turnstile.register(4, 8));
        assert_eq!(held(), 2);
        wide.release();
        assert_eq!(held(), 0);
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
        let turnstile = Turnstile::with_limit(2);
        // The wide job (more workers than the limit) is registered between
        // two one-worker jobs that keep asking for turns.
        let jobs = [
            (turnstile.register(1, 1), 12),
            (turnstile.register(WIDE, 4), WIDE_TURNS),
            (turnstile.register(3, 1), 12),
        ];
        let log = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        // Unscoped threads, so a starved job fails the timeout below
        // instead of hanging the test.
        for (handle, turns) in jobs {
            let (log, tx) = (Arc::clone(&log), tx.clone());
            std::thread::spawn(move || {
                for _ in 0..turns {
                    handle.acquire();
                    log.lock().unwrap().push(Mark::Start(handle.job));
                    std::thread::yield_now();
                    log.lock().unwrap().push(Mark::End(handle.job));
                    handle.release();
                }
                // A finished job leaves the rotation.
                drop(handle);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..3 {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("every job gets all its turns");
        }

        // Start marks are logged inside a turn and end marks before its
        // release, so the log orders turns as the turnstile granted them.
        let mut holding = Vec::new();
        let mut since_wide = Vec::new();
        let mut wide_turns = 0;
        let log = std::mem::take(&mut *log.lock().unwrap());
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
        let ledger = TenantLedger::new().with_default_budget(Some(50));
        ledger.set_budget("acme", Some(100));

        // Own budget smaller than the allowance: the job keeps its own.
        assert_eq!(ledger.admit("acme", Some(30)).unwrap(), Some(30));
        // No own budget: clamped to what remains.
        ledger.settle("acme", 80, 0.8, false);
        assert_eq!(ledger.admit("acme", None).unwrap(), Some(20));
        // Own budget above the remainder: clamped down.
        assert_eq!(ledger.admit("acme", Some(1_000)).unwrap(), Some(20));
        // Exhausted: rejected with the billed/allowance numbers.
        ledger.settle("acme", 20, 0.2, true);
        let err = ledger.admit("acme", Some(5)).unwrap_err();
        assert!(err.contains("exhausted"), "{err}");
        assert!(err.contains("100 billed of 100"), "{err}");

        // Unconfigured tenants get the default allowance.
        assert_eq!(ledger.admit("fresh", None).unwrap(), Some(50));
        // An explicitly uncapped tenant passes its request through.
        ledger.set_budget("open", None);
        assert_eq!(ledger.admit("open", None).unwrap(), None);

        let rows = ledger.snapshot();
        let acme = rows.iter().find(|r| r.tenant == "acme").unwrap();
        assert_eq!(acme.tokens_billed, 100);
        assert_eq!(acme.jobs_completed, 2);
        assert_eq!(acme.jobs_rejected, 1);
        assert_eq!(acme.jobs_tripped, 1);
    }

    #[test]
    fn scheduler_settles_bills_and_emits_job_events() {
        let tracer = Arc::new(dprep_obs::CollectingTracer::new());
        let ledger = TenantLedger::new();
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
        assert_eq!(scheduler.active_jobs(), 0);
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
        let rows = scheduler.ledger().snapshot();
        let burst = rows.iter().find(|r| r.tenant == "burst").unwrap();
        assert_eq!((burst.jobs_shed, burst.tokens_billed), (1, 0));
        let snap = scheduler.overload_snapshot();
        assert_eq!((snap.admitted_total, snap.shed_total), (1, 1));
        assert_eq!((snap.inflight, snap.queued), (0, 0));
        assert!(scheduler.quiesced());
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
        assert!(scheduler.quiesced());
    }

    #[test]
    fn drain_sheds_new_jobs_fires_halts_and_walks_the_state_chain() {
        let tracer = Arc::new(dprep_obs::CollectingTracer::new());
        let scheduler = JobScheduler::new(TenantLedger::new())
            .with_tracer(Arc::clone(&tracer) as Arc<dyn Tracer>);
        assert_eq!(scheduler.drain_label(), "serving");

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
        assert_eq!(scheduler.drain_label(), "draining");

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
        assert!(scheduler.quiesced());
        scheduler.mark_closed();
        assert_eq!(scheduler.drain_label(), "closed");
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
        let ledger = TenantLedger::new();
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
        assert_eq!(daemon.scheduler().drain_label(), "closed");
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
        let overload = daemon.scheduler().overload_snapshot();
        assert_eq!((overload.inflight, overload.queued), (0, 0));
        assert_eq!(daemon.scheduler().active_jobs(), 0);
        let row = &daemon.scheduler().ledger().snapshot()[0];
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
        assert_eq!(daemon.scheduler().drain_label(), "closed");
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
