//! End-to-end serving tests over the shipped job handler
//! (`cli::commands::serve::dataset_handler`): a live multi-tenant daemon
//! over TCP, with concurrent tenants (one under injected faults) proven
//! bit-identical to their one-shot runs and billing exactly their one-shot
//! tokens, a budget-tripped tenant isolated from the others, ledger rows
//! and per-tenant Prometheus series matching the replies, kill + resume
//! with exactly-once billing through per-job journals (one per tenant and
//! key), overload protection (a storm shed at no cost, deadlines, a drain
//! into journals that resume bit-identically), and rejected submits
//! (absurd sizes and retry budgets, malformed cascades, journals of
//! another workload) answered with an error while the daemon keeps
//! serving; every daemon shuts down cleanly.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use llm_data_preprocessors::cli::commands::serve::{dataset_handler, HandlerDefaults};
use llm_data_preprocessors::core::serve::{roundtrip, Daemon, JobGrant, JobScheduler, ShardGate};
use llm_data_preprocessors::core::{
    ExecutionOptions, JobHandler, JobOutcome, KillSwitch, OverloadPolicy, TenantLedger,
};
use llm_data_preprocessors::obs::{AuditTracer, DurableJournal, Json, TerminalKind, Tracer};

const SEED: u64 = 11;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dprep-serve-e2e-{}-{tag}", std::process::id()));
    p
}

/// The daemon's dataset handler at this suite's seed, in shards of two
/// batches, journaling keyed jobs under `dir`.
fn handler(dir: Option<PathBuf>) -> Arc<JobHandler> {
    dataset_handler(
        HandlerDefaults {
            seed: SEED,
            plan_shard_size: 2,
            journal_dir: dir,
            ..HandlerDefaults::default()
        },
        None,
    )
}

fn submit_body(tenant: &str, dataset: &str, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("op".to_string(), Json::Str("submit".to_string())),
        ("tenant".to_string(), Json::Str(tenant.to_string())),
        ("dataset".to_string(), Json::Str(dataset.to_string())),
        ("workers".to_string(), Json::Num(2.0)),
    ];
    fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(fields)
}

fn op(name: &str) -> Json {
    Json::Obj(vec![("op".to_string(), Json::Str(name.to_string()))])
}

/// One-shot run of `body` through the same handler under an idle
/// scheduler, with the deadline a submit's `deadline_ms` would set.
fn one_shot(handler: &Arc<JobHandler>, body: &Json, deadline_secs: Option<f64>) -> JobOutcome {
    let scheduler = JobScheduler::new(TenantLedger::new());
    let options = ExecutionOptions {
        workers: 2,
        deadline_secs,
        ..ExecutionOptions::default()
    };
    let tenant = str_field(body, "tenant");
    let (_, outcome) = scheduler
        .run_job(&tenant, options, |grant| handler(body, grant))
        .expect("reference run");
    outcome
}

/// The fingerprint and billed tokens of `outcome`'s reply.
fn billed(outcome: &JobOutcome) -> (String, usize) {
    let reply = Json::Obj(outcome.reply.to_vec());
    (str_field(&reply, "fingerprint"), outcome.tokens_billed)
}

/// One-shot reference through the same handler under an idle scheduler.
fn reference(
    handler: &Arc<JobHandler>,
    tenant: &str,
    dataset: &str,
    extra: Vec<(&str, Json)>,
) -> (String, usize) {
    billed(&one_shot(
        handler,
        &submit_body(tenant, dataset, extra),
        None,
    ))
}

fn submit(addr: std::net::SocketAddr, request: &Json) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    roundtrip(&mut stream, &mut reader, request).expect("roundtrip")
}

fn str_field(reply: &Json, key: &str) -> String {
    reply
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("reply has no {key:?}: {}", reply.to_json()))
        .to_string()
}

fn num_field(reply: &Json, key: &str) -> usize {
    reply
        .get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("reply has no {key:?}: {}", reply.to_json()))
}

/// The tenants' rows of a `stats` reply.
fn ledger_rows(stats: &Json) -> &[Json] {
    match stats.get("tenants") {
        Some(Json::Arr(rows)) => rows,
        _ => panic!("stats has no tenants: {}", stats.to_json()),
    }
}

/// The ledger row of `tenant` in a `stats` reply.
fn ledger_row(stats: &Json, tenant: &str) -> Json {
    ledger_rows(stats)
        .iter()
        .find(|r| r.get("tenant").and_then(Json::as_str) == Some(tenant))
        .unwrap_or_else(|| panic!("no ledger row for {tenant}"))
        .clone()
}

/// Asserts `reply` is an error whose text contains `needle`.
fn assert_rejected(reply: &Json, needle: &str) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(false)),
        "{}",
        reply.to_json()
    );
    assert!(
        str_field(reply, "error").contains(needle),
        "expected {needle:?}: {}",
        reply.to_json()
    );
}

/// Runs a daemon over `handler` and `scheduler` and hands its address to
/// `body`, which must close the daemon (a shutdown or a drain); the
/// daemon must then exit cleanly. When `body` panics the daemon is shut
/// down anyway, or the scope would wait on the serving thread forever
/// instead of failing.
fn with_daemon_over(
    handler: Arc<JobHandler>,
    scheduler: JobScheduler,
    body: impl FnOnce(std::net::SocketAddr),
) {
    let daemon = Daemon::bind("127.0.0.1:0", scheduler, handler).expect("bind");
    let addr = daemon.local_addr();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
        if let Err(panic) = checked {
            // No wait for the reply: a daemon that closed itself after a
            // drain still holds its socket but answers nothing.
            if let Ok(mut stream) = TcpStream::connect(addr) {
                stream.write_all(b"{\"op\":\"shutdown\"}\n").ok();
            }
            server.join().ok();
            std::panic::resume_unwind(panic);
        }
        server.join().unwrap().expect("daemon exits cleanly");
    });
}

/// Runs a daemon over `handler` and `ledger`, hands its address to
/// `body`, then proves the daemon still serves (a ping pongs and a normal
/// submit runs) and shuts it down cleanly.
fn with_daemon(
    handler: Arc<JobHandler>,
    ledger: TenantLedger,
    body: impl FnOnce(std::net::SocketAddr),
) {
    with_daemon_over(handler, JobScheduler::new(ledger), |addr| {
        body(addr);
        let pong = submit(addr, &op("ping"));
        assert_eq!(
            pong.get("pong"),
            Some(&Json::Bool(true)),
            "{}",
            pong.to_json()
        );
        let normal = submit(addr, &submit_body("t", "Restaurant", vec![]));
        assert_eq!(
            normal.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            normal.to_json()
        );
        submit(addr, &op("shutdown"));
    });
}

/// Three tenants in flight at once — one under `partial-batch` faults, one
/// budget-tripped — and the untripped tenants' results are byte-identical
/// to their one-shot runs, billing exactly their one-shot tokens; the
/// ledger and the Prometheus exposition agree with every reply.
#[test]
fn concurrent_tenants_stay_bit_identical_and_trips_stay_isolated() {
    let handler = handler(None);
    let faulted = || vec![("scenario", Json::Str("partial-batch".to_string()))];
    let (fast_fp, fast_tokens) = reference(&handler, "fast", "Restaurant", faulted());
    let (slow_fp, slow_tokens) = reference(&handler, "slow", "Adult", vec![]);

    let ledger = TenantLedger::new();
    // Enough budget to start, not enough to finish.
    ledger.set_budget("capped", Some(slow_tokens / 2));
    with_daemon(handler, ledger, |addr| {
        let (fast, slow, capped) = std::thread::scope(|jobs| {
            let a = jobs.spawn(|| submit(addr, &submit_body("fast", "Restaurant", faulted())));
            let b = jobs.spawn(|| submit(addr, &submit_body("slow", "Adult", vec![])));
            let c = jobs.spawn(|| submit(addr, &submit_body("capped", "Adult", vec![])));
            (a.join().unwrap(), b.join().unwrap(), c.join().unwrap())
        });
        assert_eq!(
            str_field(&fast, "fingerprint"),
            fast_fp,
            "tenant fast diverged from its one-shot run"
        );
        assert_eq!(
            str_field(&slow, "fingerprint"),
            slow_fp,
            "tenant slow diverged from its one-shot run"
        );
        assert_eq!(num_field(&fast, "tokens_billed"), fast_tokens);
        assert_eq!(num_field(&slow, "tokens_billed"), slow_tokens);
        assert_eq!(
            capped.get("budget_tripped"),
            Some(&Json::Bool(true)),
            "tenant capped should trip its budget: {}",
            capped.to_json()
        );

        // The ledger saw all three jobs, recorded the trip, and bills each
        // tenant exactly what its reply billed.
        let stats = submit(addr, &op("stats"));
        assert_eq!(num_field(&ledger_row(&stats, "capped"), "jobs_tripped"), 1);
        assert_eq!(num_field(&ledger_row(&stats, "fast"), "jobs_completed"), 1);
        for (tenant, reply) in [("fast", &fast), ("slow", &slow), ("capped", &capped)] {
            assert_eq!(
                num_field(&ledger_row(&stats, tenant), "tokens_billed"),
                num_field(reply, "tokens_billed"),
                "ledger row of {tenant} differs from its reply"
            );
        }

        // Per-tenant prometheus series exist for every tenant that ran.
        let prom = str_field(&submit(addr, &op("metrics")), "prom");
        for tenant in ["fast", "slow", "capped"] {
            for series in [
                "dprep_tenant_prompt_tokens_total",
                "dprep_tenant_requests_total",
            ] {
                let needle = format!("{series}{{tenant=\"{tenant}\"}}");
                assert!(prom.contains(&needle), "prom exposition misses {needle}");
            }
        }
    });
}

/// A journaled job killed mid-run resumes through a resubmit with the same
/// journal key: bit-identical result, journal replayed, and the resumed
/// reply bills the uninterrupted total exactly once.
#[test]
fn killed_job_resumes_with_exactly_once_billing() {
    let dir = temp_dir("kill");
    std::fs::create_dir_all(&dir).expect("journal dir");
    let handler = handler(Some(dir.clone()));
    let (fp, tokens) = reference(&handler, "t", "Adult", vec![]);
    // The first job's halt fires after its second journaled terminal, where
    // a crash there would have stopped it.
    let first = AtomicBool::new(true);
    let killing: Arc<JobHandler> = Arc::new(move |body: &Json, grant: &JobGrant| {
        if !first.swap(false, Ordering::Relaxed) {
            return handler(body, grant);
        }
        let grant = JobGrant {
            halt: KillSwitch::after(2),
            gate: Arc::clone(&grant.gate),
            ..*grant
        };
        handler(body, &grant)
    });
    with_daemon(killing, TenantLedger::new(), |addr| {
        let killed = submit(
            addr,
            &submit_body(
                "t",
                "Adult",
                vec![("journal_key", Json::Str("job1".to_string()))],
            ),
        );
        assert_eq!(
            killed.get("killed"),
            Some(&Json::Bool(true)),
            "kill switch never fired: {}",
            killed.to_json()
        );
        assert_eq!(str_field(&killed, "journal"), "fresh");

        let resumed = submit(
            addr,
            &submit_body(
                "t",
                "Adult",
                vec![("journal_key", Json::Str("job1".to_string()))],
            ),
        );
        assert_eq!(str_field(&resumed, "journal"), "resumed");
        assert!(num_field(&resumed, "replayed") > 0, "nothing replayed");
        assert_eq!(
            str_field(&resumed, "fingerprint"),
            fp,
            "resumed job diverged from the uninterrupted run"
        );
        assert_eq!(
            num_field(&resumed, "tokens_billed"),
            tokens,
            "resumed job must bill the uninterrupted total exactly once"
        );

        // The ledger holds both submissions: the partial billing before the
        // kill plus the exactly-once resumed total — nothing more.
        let t = ledger_row(&submit(addr, &op("stats")), "t");
        assert_eq!(
            num_field(&t, "tokens_billed"),
            num_field(&killed, "tokens_billed") + tokens
        );
        assert_eq!(num_field(&t, "jobs_completed"), 2);
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// A job's shard gate that parks the job at its second turn, before
/// taking it, until `go` closes, and first tells `parked` it got there.
struct ParkAtSecondTurn {
    inner: Arc<dyn ShardGate>,
    turns: AtomicUsize,
    parked: mpsc::Sender<()>,
    go: Arc<Mutex<mpsc::Receiver<()>>>,
}

impl ShardGate for ParkAtSecondTurn {
    fn acquire(&self) {
        if self.turns.fetch_add(1, Ordering::Relaxed) == 1 {
            self.parked.send(()).ok();
            self.go.lock().expect("go lock").recv().ok();
        }
        self.inner.acquire();
    }

    fn release(&self) {
        self.inner.release();
    }
}

/// Overload protection through the shipped handler, with an
/// `AuditTracer` on every scheduler:
/// 1. a 16-submit storm at 4× the capacity of `max_inflight 2, max_queued
///    2, tenant_inflight 1`: admitted jobs match their one-shot run, the
///    rest shed as `overloaded` with a `retry_after` hint;
/// 2. shed jobs bill zero: the ledger bills what the admitted replies
///    bill, and its `jobs_shed` counts every shed;
/// 3. a 1 s deadline trips into the one-shot run's partials under that
///    deadline, and a 0 ms one sheds as `deadline`;
/// 4. a drain while two journaled jobs hold their slots, each after its
///    first shard, checkpoints both mid-run, sheds a late submit as
///    `draining`, and the daemon closes by itself;
/// 5. the journals resume at workers 1, 2 and 4 on a fresh daemon,
///    bit-identical to the uninterrupted run, billed once, and with no
///    fingerprint journaled twice.
#[test]
fn overload_sheds_at_no_cost_and_drains_into_resumable_journals() {
    let dir = temp_dir("overload");
    std::fs::create_dir_all(&dir).expect("journal dir");
    let handler = handler(Some(dir.clone()));
    let (storm_fp, storm_tokens) = reference(&handler, "storm", "Restaurant", vec![]);
    let tight = one_shot(
        &handler,
        &submit_body("tight", "Restaurant", vec![]),
        Some(1.0),
    );
    assert!(tight.budget_tripped, "the 1 s deadline never tripped");
    let adult = || vec![("scale", Json::Num(0.2))];
    let resumable = reference(&handler, "resume", "Adult", adult());
    let audited = |policy: OverloadPolicy| {
        let audit = Arc::new(AuditTracer::new());
        let scheduler = JobScheduler::new(TenantLedger::new())
            .with_policy(policy)
            .with_tracer(Arc::clone(&audit) as Arc<dyn Tracer>);
        (scheduler, audit)
    };

    let (scheduler, audit) = audited(OverloadPolicy {
        max_inflight: Some(2),
        max_queued: Some(2),
        tenant_inflight: Some(1),
        default_deadline_secs: None,
    });
    with_daemon_over(Arc::clone(&handler), scheduler, |addr| {
        let timed: Vec<(Json, Duration)> = std::thread::scope(|clients| {
            let storm: Vec<_> = (0..16)
                .map(|i| {
                    let body = submit_body(&format!("storm-{}", i % 4), "Restaurant", vec![]);
                    clients.spawn(move || {
                        let started = Instant::now();
                        (submit(addr, &body), started.elapsed())
                    })
                })
                .collect();
            storm.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let (admitted, shed): (Vec<_>, Vec<_>) = timed
            .iter()
            .partition(|(r, _)| r.get("ok") == Some(&Json::Bool(true)));
        assert!(admitted.len() >= 2 && !shed.is_empty(), "{timed:?}");
        // Shedding at admission keeps the excess out of the admitted jobs'
        // way, so their p95 wall time stays bounded under the storm.
        let mut walls: Vec<Duration> = admitted.iter().map(|(_, wall)| *wall).collect();
        walls.sort_unstable();
        let p95 = walls[(walls.len() * 95).div_ceil(100) - 1];
        assert!(p95 <= Duration::from_secs(120), "admitted p95 {p95:?}");
        for (reply, _) in &admitted {
            assert_eq!(str_field(reply, "fingerprint"), storm_fp);
            assert_eq!(num_field(reply, "tokens_billed"), storm_tokens);
        }
        for (reply, _) in &shed {
            assert_eq!(str_field(reply, "rejected"), "overloaded");
            let retry_after = reply.get("retry_after").and_then(Json::as_f64);
            assert!(retry_after > Some(0.0), "{}", reply.to_json());
        }

        let stats = submit(addr, &op("stats"));
        let total = |key: &str| -> usize {
            ledger_rows(&stats)
                .iter()
                .map(|row| num_field(row, key))
                .sum()
        };
        assert_eq!(total("tokens_billed"), admitted.len() * storm_tokens);
        assert_eq!(total("jobs_shed"), shed.len());

        let deadline =
            |ms: f64| submit_body("tight", "Restaurant", vec![("deadline_ms", Json::Num(ms))]);
        let tripped = submit(addr, &deadline(1000.0));
        assert_eq!(tripped.get("budget_tripped"), Some(&Json::Bool(true)));
        assert_eq!(
            (
                str_field(&tripped, "fingerprint"),
                num_field(&tripped, "tokens_billed")
            ),
            billed(&tight)
        );
        assert_eq!(
            str_field(&submit(addr, &deadline(0.0)), "rejected"),
            "deadline"
        );
        submit(addr, &op("shutdown"));
    });
    audit.assert_clean();

    let journaled = [("ja", "drain-a"), ("jb", "drain-b")];
    let keyed = |tenant: &str, key: &str| {
        let key = ("journal_key", Json::Str(key.to_string()));
        submit_body(tenant, "Adult", [adult(), vec![key]].concat())
    };
    // The journaled jobs park at their second shard turn, holding their
    // slots with a shard journaled, until `go` drops: after the drain has
    // fired their halts, or when an assertion fails first, so a failure
    // never leaves them waiting.
    let (go, go_rx) = mpsc::channel::<()>();
    let go_rx = Arc::new(Mutex::new(go_rx));
    let (parked_tx, parked) = mpsc::channel::<()>();
    let gated: Arc<JobHandler> = {
        let handler = Arc::clone(&handler);
        Arc::new(move |body: &Json, grant: &JobGrant| {
            let gate = Arc::new(ParkAtSecondTurn {
                inner: Arc::clone(&grant.gate),
                turns: AtomicUsize::new(0),
                parked: parked_tx.clone(),
                go: Arc::clone(&go_rx),
            });
            let halt = grant.halt.clone();
            handler(
                body,
                &JobGrant {
                    gate,
                    halt,
                    ..*grant
                },
            )
        })
    };
    let journal_of = |tenant: &str, key: &str| dir.join(format!("{tenant}-{key}.jsonl"));
    let (scheduler, audit) = audited(OverloadPolicy::default());
    with_daemon_over(gated, scheduler, |addr| {
        std::thread::scope(|clients| {
            let jobs: Vec<_> = journaled
                .iter()
                .map(|&(tenant, key)| clients.spawn(move || submit(addr, &keyed(tenant, key))))
                .collect();
            for _ in &journaled {
                let wait = parked.recv_timeout(Duration::from_secs(30));
                assert!(wait.is_ok(), "a job never reached its second shard");
            }
            assert_eq!(str_field(&submit(addr, &op("drain")), "state"), "draining");
            let late = submit(addr, &submit_body("late", "Restaurant", vec![]));
            assert_eq!(str_field(&late, "rejected"), "draining");
            drop(go);
            for job in jobs {
                let reply = job.join().unwrap();
                assert_eq!(
                    reply.get("ok"),
                    Some(&Json::Bool(true)),
                    "{}",
                    reply.to_json()
                );
                assert_eq!(
                    reply.get("killed"),
                    Some(&Json::Bool(true)),
                    "not checkpointed"
                );
            }
        });
    });
    audit.assert_clean();
    // The drain landed mid-run: each checkpoint holds a whole shard and more.
    for (tenant, key) in journaled {
        let journal = DurableJournal::resume(journal_of(tenant, key)).expect("a journal");
        let entries = journal.entries.len();
        assert!(entries > 2, "{tenant}: checkpointed {entries} entries");
    }

    let (scheduler, audit) = audited(OverloadPolicy::default());
    with_daemon_over(Arc::clone(&handler), scheduler, |addr| {
        for (tenant, key) in journaled {
            for workers in [1.0, 2.0, 4.0] {
                let body = with_field(keyed(tenant, key), "workers", Json::Num(workers));
                let resumed = submit(addr, &body);
                let label = format!("{tenant} at workers {workers}");
                assert_eq!(str_field(&resumed, "journal"), "resumed", "{label}");
                let reply = (
                    str_field(&resumed, "fingerprint"),
                    num_field(&resumed, "tokens_billed"),
                );
                assert_eq!(reply, resumable, "{label}");
            }
            let journal = DurableJournal::resume(journal_of(tenant, key));
            let mut fingerprints: Vec<u64> = journal
                .expect("a journal")
                .entries
                .iter()
                .filter(|e| e.kind == TerminalKind::Completed)
                .map(|e| e.fingerprint)
                .collect();
            fingerprints.sort_unstable();
            assert!(fingerprints.windows(2).all(|w| w[0] != w[1]), "{tenant}");
        }
        submit(addr, &op("shutdown"));
    });
    audit.assert_clean();
    std::fs::remove_dir_all(&dir).ok();
}

/// A resubmitted journal key whose workload differs from the journal's —
/// another dataset or seed (caught by the plan fingerprint), or the same
/// cascade under another escalation policy (caught by the header's
/// config) — is refused before anything runs, and the journal is left
/// byte-identical, still resumable by its own workload.
#[test]
fn mismatched_resubmits_are_refused_and_leave_the_journal_intact() {
    let dir = temp_dir("mismatch");
    std::fs::create_dir_all(&dir).expect("journal dir");
    let text = |key: &'static str, value: &str| (key, Json::Str(value.to_string()));
    let workload = || {
        vec![
            text("journal_key", "job"),
            text("route", "sim-gpt-3.5,sim-gpt-4"),
            ("scale", Json::Num(0.2)),
        ]
    };
    let journal = dir.join("t-job.jsonl");
    let read = |path: &Path| std::fs::read(path).expect("journal exists");
    with_daemon(handler(Some(dir.clone())), TenantLedger::new(), |addr| {
        let first = submit(addr, &submit_body("t", "Adult", workload()));
        assert_eq!(str_field(&first, "journal"), "fresh", "{}", first.to_json());
        let recorded = read(&journal);
        for (dataset, extra) in [
            ("Hospital", vec![]),
            ("Adult", vec![("seed", Json::Num(12.0))]),
            ("Adult", vec![text("escalate_on", "garbled")]),
        ] {
            let mut fields = workload();
            fields.extend(extra);
            let reply = submit(addr, &submit_body("t", dataset, fields));
            assert_rejected(&reply, "refusing to resume");
            assert_eq!(read(&journal), recorded, "{dataset}: journal changed");
        }
        let again = submit(addr, &submit_body("t", "Adult", workload()));
        assert_eq!(str_field(&again, "journal"), "resumed");
        assert_eq!(
            str_field(&again, "fingerprint"),
            str_field(&first, "fingerprint")
        );
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Pairs that a lossy file name would send to one journal — tenant `a`
/// with key `b-c` beside tenant `a-b` with key `c` (the separator inside
/// a name), and tenants `x/y` and `x_y` with key `k` (an unsafe byte
/// beside its replacement) — each journal apart: every first submit
/// starts fresh and leaves a file of its own.
#[test]
fn colliding_tenant_and_key_pairs_get_journals_of_their_own() {
    let dir = temp_dir("collide");
    std::fs::create_dir_all(&dir).expect("journal dir");
    with_daemon(handler(Some(dir.clone())), TenantLedger::new(), |addr| {
        for (tenant, key) in [("a", "b-c"), ("a-b", "c"), ("x/y", "k"), ("x_y", "k")] {
            let extra = vec![
                ("journal_key", Json::Str(key.to_string())),
                ("scale", Json::Num(0.1)),
            ];
            let reply = submit(addr, &submit_body(tenant, "Adult", extra));
            assert_eq!(
                str_field(&reply, "journal"),
                "fresh",
                "tenant {tenant:?}, key {key:?}: {}",
                reply.to_json()
            );
        }
    });
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("journal dir")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "a%2Db-c.jsonl",
            "a-b-c.jsonl",
            "x%2Fy-k.jsonl",
            "x_y-k.jsonl"
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `body` with its field `key` set to `value`, replaced in place when the
/// body has one.
fn with_field(body: Json, key: &str, value: Json) -> Json {
    let Json::Obj(mut fields) = body else {
        return body;
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some(field) => field.1 = value,
        None => fields.push((key.to_string(), value)),
    }
    Json::Obj(fields)
}

/// A client's `workers` is a ceiling on threads, not an allocation: a
/// submit asking for 10^12 workers runs on the threads its plan can use
/// and replies exactly what a one-worker submit does.
#[test]
fn absurd_worker_counts_reply_like_one_worker() {
    let with_workers = |workers: f64| {
        with_field(
            submit_body("t", "Restaurant", vec![]),
            "workers",
            Json::Num(workers),
        )
    };
    with_daemon(handler(None), TenantLedger::new(), |addr| {
        let one = submit(addr, &with_workers(1.0));
        let huge = submit(addr, &with_workers(1e12));
        assert_eq!(
            huge.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            huge.to_json()
        );
        assert_eq!(
            str_field(&huge, "fingerprint"),
            str_field(&one, "fingerprint")
        );
        assert_eq!(
            num_field(&huge, "tokens_billed"),
            num_field(&one, "tokens_billed")
        );
    });
}

/// A present integer field that is not a non-negative whole number — a
/// fraction, a negative, a string, `null` — is refused with an error
/// naming the field, before any model call: the tenant is billed nothing.
/// (Such a `token_budget` once read as no budget, and a Restaurant job
/// billed its unbudgeted tokens.)
#[test]
fn malformed_integer_fields_are_refused_and_bill_nothing() {
    let text = |s: &str| Json::Str(s.to_string());
    let cases = [
        ("token_budget", Json::Num(1.5)),
        ("token_budget", Json::Num(-5.0)),
        ("token_budget", text("500")),
        ("token_budget", Json::Null),
        ("workers", Json::Num(0.5)),
        ("seed", Json::Num(-1.0)),
        ("plan_shard_size", text("4")),
    ];
    with_daemon(handler(None), TenantLedger::new(), |addr| {
        for (key, value) in cases {
            let request = with_field(submit_body("typo", "Restaurant", vec![]), key, value);
            assert_rejected(&submit(addr, &request), &format!("\"{key}\" must be"));
        }
        let stats = submit(addr, &op("stats"));
        let billed: usize = match stats.get("tenants") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .filter(|row| row.get("tenant").and_then(Json::as_str) == Some("typo"))
                .map(|row| num_field(row, "tokens_billed"))
                .sum(),
            _ => 0,
        };
        assert_eq!(billed, 0, "{}", stats.to_json());
    });
}

/// A whole number at or past 2^53, where JSON no longer holds every
/// integer exactly, is refused naming the field and the bound — not read
/// as absent, which ran a `"seed": 1e16` under the default seed — and the
/// daemon keeps serving: a ping still pongs and a normal submit still runs.
#[test]
fn integers_past_2_53_are_refused_and_the_daemon_keeps_serving() {
    with_daemon(handler(None), TenantLedger::new(), |addr| {
        for key in ["seed", "token_budget"] {
            let request = with_field(
                submit_body("huge", "Restaurant", vec![]),
                key,
                Json::Num(1e16),
            );
            let reply = submit(addr, &request);
            assert_rejected(&reply, &format!("\"{key}\" must be below 2^53"));
        }
        let pong = submit(addr, &op("ping"));
        assert_eq!(
            pong.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            pong.to_json()
        );
        let normal = submit(addr, &submit_body("huge", "Restaurant", vec![]));
        assert_eq!(
            normal.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            normal.to_json()
        );
        assert!(num_field(&normal, "tokens_billed") > 0);
    });
}

/// A submit whose `scale` would ask the allocator for an exabyte (or is not
/// a usable scale at all) gets an error naming the bound, and the daemon
/// keeps serving: a ping still pongs and a normal submit still runs.
#[test]
fn absurd_scales_are_rejected_and_the_daemon_keeps_serving() {
    with_daemon(handler(None), TenantLedger::new(), |addr| {
        for scale in [1e12, 1e300, 0.0, -1.0] {
            let reply = submit(
                addr,
                &submit_body("t", "Adult", vec![("scale", Json::Num(scale))]),
            );
            assert_rejected(&reply, "(0, 10]");
        }
    });
}

/// A retry budget past the bound — including one that wraps to 0 as a
/// `u32`, and one past the range JSON holds exactly — is rejected instead
/// of pinning a worker or falling back to the default, and `route` and
/// `escalate_on` go through the same parse as `--route` and
/// `--escalate-on`: a cascade naming a model twice or an unknown model,
/// or an escalation policy with no cascade, is rejected too.
#[test]
fn absurd_retries_and_malformed_cascades_are_rejected_and_the_daemon_keeps_serving() {
    let text = |key: &'static str, value: &str| (key, Json::Str(value.to_string()));
    let outage = text("scenario", "route-outage");
    with_daemon(handler(None), TenantLedger::new(), |addr| {
        for (extra, needle) in [
            (
                vec![("retries", Json::Num(11.0)), outage.clone()],
                "at most 10",
            ),
            (
                vec![("retries", Json::Num(4_294_967_296.0)), outage.clone()],
                "at most 10",
            ),
            (vec![("retries", Json::Num(1e30)), outage], "at most 10"),
            (vec![text("route", "sim-gpt-4,sim-gpt-4")], "appears twice"),
            (
                vec![text("route", "sim-gpt-3.5,gpt-9")],
                "unknown route model",
            ),
            (vec![text("escalate_on", "fault")], "needs --route"),
        ] {
            let reply = submit(addr, &submit_body("t", "Restaurant", extra));
            assert_rejected(&reply, needle);
        }
    });
}
