//! End-to-end serving tests over the shipped job handler
//! (`cli::commands::serve::dataset_handler`): a live multi-tenant daemon
//! over TCP, with concurrent tenants proven bit-identical to their
//! one-shot runs, a budget-tripped tenant isolated from the others, kill +
//! resume with exactly-once billing through per-job journals (one per
//! tenant and key), and rejected submits (absurd sizes and retry budgets,
//! malformed cascades, journals of another workload) answered with an
//! error while the daemon keeps serving.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use llm_data_preprocessors::cli::commands::serve::{dataset_handler, HandlerDefaults};
use llm_data_preprocessors::core::serve::{roundtrip, Daemon, JobScheduler};
use llm_data_preprocessors::core::{ExecutionOptions, JobHandler, TenantLedger};
use llm_data_preprocessors::obs::Json;

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

/// One-shot reference through the same handler under an idle scheduler.
fn reference(handler: &Arc<JobHandler>, tenant: &str, dataset: &str) -> (String, usize) {
    let scheduler = JobScheduler::new(TenantLedger::new());
    let body = submit_body(tenant, dataset, vec![]);
    let (_, outcome) = scheduler
        .run_job(
            tenant,
            ExecutionOptions {
                workers: 2,
                ..ExecutionOptions::default()
            },
            |grant| handler(&body, grant),
        )
        .expect("reference run");
    let fp = outcome
        .reply
        .iter()
        .find(|(k, _)| k == "fingerprint")
        .and_then(|(_, v)| v.as_str().map(str::to_string))
        .expect("reference fingerprint");
    (fp, outcome.tokens_billed)
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

/// The ledger row of `tenant` in a `stats` reply.
fn ledger_row(stats: &Json, tenant: &str) -> Json {
    match stats.get("tenants") {
        Some(Json::Arr(rows)) => rows
            .iter()
            .find(|r| r.get("tenant").and_then(Json::as_str) == Some(tenant))
            .unwrap_or_else(|| panic!("no ledger row for {tenant}"))
            .clone(),
        _ => panic!("stats has no tenants: {}", stats.to_json()),
    }
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

/// Runs a daemon over `handler` and `ledger`, hands its address to
/// `body`, then proves the daemon still serves (a ping pongs and a normal
/// submit runs) and shuts it down cleanly.
fn with_daemon(
    handler: Arc<JobHandler>,
    ledger: TenantLedger,
    body: impl FnOnce(std::net::SocketAddr),
) {
    let daemon = Daemon::bind("127.0.0.1:0", JobScheduler::new(ledger), handler).expect("bind");
    let addr = daemon.local_addr();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        // Shut the daemon down even when an assertion fails, or the scope
        // would wait on the serving thread forever instead of failing.
        let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
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
        }));
        submit(addr, &op("shutdown"));
        server.join().unwrap().expect("daemon exits cleanly");
        if let Err(panic) = checked {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Three tenants in flight at once — one of them budget-tripped — and the
/// untripped tenants' results are byte-identical to their one-shot runs,
/// billing exactly their one-shot tokens; the ledger and the Prometheus
/// exposition agree with every reply.
#[test]
fn concurrent_tenants_stay_bit_identical_and_trips_stay_isolated() {
    let handler = handler(None);
    let (fast_fp, fast_tokens) = reference(&handler, "fast", "Restaurant");
    let (slow_fp, slow_tokens) = reference(&handler, "slow", "Adult");

    let ledger = TenantLedger::new();
    // Enough budget to start, not enough to finish.
    ledger.set_budget("capped", Some(slow_tokens / 2));
    with_daemon(handler, ledger, |addr| {
        let (fast, slow, capped) = std::thread::scope(|jobs| {
            let a = jobs.spawn(|| submit(addr, &submit_body("fast", "Restaurant", vec![])));
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
    let (fp, tokens) = reference(&handler, "t", "Adult");
    with_daemon(handler, TenantLedger::new(), |addr| {
        let killed = submit(
            addr,
            &submit_body(
                "t",
                "Adult",
                vec![
                    ("journal_key", Json::Str("job1".to_string())),
                    ("kill_after", Json::Num(2.0)),
                ],
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
        ("kill_after", Json::Null),
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
