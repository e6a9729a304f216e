//! End-to-end serving tests: a live multi-tenant daemon over TCP, with
//! concurrent tenants proven bit-identical to their one-shot runs, a
//! budget-tripped tenant isolated from the others, and kill + resume with
//! exactly-once billing through per-job journals.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use llm_data_preprocessors::core::serve::{roundtrip, Daemon, JobScheduler};
use llm_data_preprocessors::core::{
    result_fingerprint, Durability, ExecutionOptions, JobGrant, JobHandler, JobOutcome, KillSwitch,
    PipelineConfig, Preprocessor, TenantLedger,
};
use llm_data_preprocessors::datasets::dataset_by_name;
use llm_data_preprocessors::llm::{
    warm_cache_store, CacheLayer, ModelProfile, RetryLayer, SimulatedLlm,
};
use llm_data_preprocessors::obs::{DurableJournal, Json};

const SEED: u64 = 11;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dprep-serve-e2e-{}-{tag}", std::process::id()));
    p
}

/// A dataset-workload handler equivalent to the CLI's: clean simulator
/// stack, streaming plan shards, the grant's gate and options wired in,
/// and optional per-job journaling under `dir`.
fn handler(dir: Option<PathBuf>) -> Arc<JobHandler> {
    Arc::new(move |body: &Json, grant: &JobGrant| {
        let name = body
            .get("dataset")
            .and_then(Json::as_str)
            .ok_or("no dataset")?;
        let scale = body.get("scale").and_then(Json::as_f64).unwrap_or(0.5);
        let ds = dataset_by_name(name, scale, SEED).ok_or("unknown dataset")?;
        let mut config = PipelineConfig::best(ds.task);
        config.plan_shard_size = Some(2);

        let mut durability = Durability::new();
        let mut warm = Vec::new();
        let mut journal_state = "off";
        if let (Some(dir), Some(key)) = (&dir, body.get("journal_key").and_then(Json::as_str)) {
            let path = dir.join(format!("{key}.jsonl"));
            if std::fs::metadata(&path)
                .map(|m| m.len() > 0)
                .unwrap_or(false)
            {
                let recovered = DurableJournal::resume(&path).map_err(|e| e.to_string())?;
                let header = recovered.header.clone().ok_or("headerless journal")?;
                warm = recovered.entries.clone();
                durability = durability
                    .with_replay(&recovered.entries, header.plan)
                    .with_journal(Arc::new(recovered.journal));
                journal_state = "resumed";
            } else {
                let journal = DurableJournal::fresh(&path, "sim-gpt-4", &config.descriptor(), SEED)
                    .map_err(|e| e.to_string())?;
                durability = durability.with_journal(Arc::new(journal));
                journal_state = "fresh";
            }
        }

        let sim = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(ds.kb.clone())).with_seed(SEED);
        let mut model = CacheLayer::new(RetryLayer::new(sim, 2));
        if !warm.is_empty() {
            model = model.with_store(warm_cache_store(&warm));
        }

        let kill = body
            .get("kill_after")
            .and_then(Json::as_usize)
            .map(KillSwitch::after);
        let mut preprocessor = Preprocessor::new(&model, config)
            .with_exec_options(grant.options)
            .with_durability(durability)
            .with_shard_gate(Arc::clone(&grant.gate));
        if let Some(kill) = &kill {
            preprocessor = preprocessor.with_kill_switch(kill.clone());
        }
        let result = preprocessor.try_run(&ds.instances, &ds.few_shot)?;
        Ok(JobOutcome {
            reply: vec![
                (
                    "fingerprint".to_string(),
                    Json::Str(format!("{:016x}", result_fingerprint(&result))),
                ),
                (
                    "killed".to_string(),
                    Json::Bool(kill.is_some_and(|k| k.fired())),
                ),
                ("journal".to_string(), Json::Str(journal_state.to_string())),
                (
                    "replayed".to_string(),
                    Json::Num(result.metrics.journal_replayed as f64),
                ),
            ],
            tokens_billed: result.usage.total_tokens(),
            cost_usd: result.usage.cost_usd,
            budget_tripped: result.metrics.cancelled > 0,
            metrics: result.metrics,
        })
    })
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

/// Three tenants in flight at once — one of them budget-tripped — and the
/// untripped tenants' results are byte-identical to their one-shot runs.
#[test]
fn concurrent_tenants_stay_bit_identical_and_trips_stay_isolated() {
    let handler = handler(None);
    let (fast_fp, _) = reference(&handler, "fast", "Restaurant");
    let (slow_fp, slow_tokens) = reference(&handler, "slow", "Adult");

    let ledger = TenantLedger::new();
    // Enough budget to start, not enough to finish.
    ledger.set_budget("capped", Some(slow_tokens / 2));
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(ledger),
        Arc::clone(&handler),
    )
    .expect("bind");
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
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
        assert_eq!(
            capped.get("budget_tripped"),
            Some(&Json::Bool(true)),
            "tenant capped should trip its budget: {}",
            capped.to_json()
        );

        // The ledger saw all three jobs and recorded the trip.
        let stats = submit(addr, &op("stats"));
        let rows = match stats.get("tenants") {
            Some(Json::Arr(rows)) => rows.clone(),
            _ => panic!("stats has no tenants: {}", stats.to_json()),
        };
        let row = |tenant: &str| {
            rows.iter()
                .find(|r| r.get("tenant").and_then(Json::as_str) == Some(tenant))
                .unwrap_or_else(|| panic!("no ledger row for {tenant}"))
                .clone()
        };
        assert_eq!(num_field(&row("capped"), "jobs_tripped"), 1);
        assert_eq!(num_field(&row("fast"), "jobs_completed"), 1);
        assert_eq!(
            num_field(&row("slow"), "tokens_billed"),
            num_field(&slow, "tokens_billed")
        );

        // Per-tenant prometheus series exist for every tenant that ran.
        let prom = str_field(&submit(addr, &op("metrics")), "prom");
        for tenant in ["fast", "slow", "capped"] {
            assert!(
                prom.contains(&format!("{{tenant=\"{tenant}\"}}")),
                "prom exposition missing tenant {tenant}"
            );
        }

        submit(addr, &op("shutdown"));
        server.join().unwrap().expect("daemon exits cleanly");
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

    let daemon = Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new()),
        Arc::clone(&handler),
    )
    .expect("bind");
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
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
        let stats = submit(addr, &op("stats"));
        let rows = match stats.get("tenants") {
            Some(Json::Arr(rows)) => rows.clone(),
            _ => panic!("stats has no tenants: {}", stats.to_json()),
        };
        let t = rows
            .iter()
            .find(|r| r.get("tenant").and_then(Json::as_str) == Some("t"))
            .expect("ledger row for t");
        assert_eq!(
            num_field(t, "tokens_billed"),
            num_field(&killed, "tokens_billed") + tokens
        );
        assert_eq!(num_field(t, "jobs_completed"), 2);

        submit(addr, &op("shutdown"));
        server.join().unwrap().expect("daemon exits cleanly");
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// A client's `workers` is a ceiling on threads, not an allocation: a
/// submit asking for 10^12 workers runs on the threads its plan can use
/// and replies exactly what a one-worker submit does.
#[test]
fn absurd_worker_counts_reply_like_one_worker() {
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new()),
        handler(None),
    )
    .expect("bind");
    let addr = daemon.local_addr();
    let with_workers = |workers: f64| match submit_body("t", "Restaurant", vec![]) {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| match k.as_str() {
                    "workers" => (k, Json::Num(workers)),
                    _ => (k, v),
                })
                .collect(),
        ),
        other => other,
    };

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
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
        submit(addr, &op("shutdown"));
        server.join().unwrap().expect("daemon exits cleanly");
    });
}
