//! Live ops plane tests over the shipped job handler
//! (`cli::commands::serve::dataset_handler`): windowed metrics and SLO
//! alert timelines under a breach-inducing workload (latency spikes
//! against a tight latency-p95 objective) must reach paging and be
//! bit-identical across worker counts and repeat runs, the daemon's
//! `health` op must report them over TCP, a paging alert must leave a
//! parseable flight-recorder postmortem behind, and SLO transitions must
//! round-trip through JSONL.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use llm_data_preprocessors::cli::commands::serve::{dataset_handler, HandlerDefaults};
use llm_data_preprocessors::core::serve::{roundtrip, Daemon, JobScheduler};
use llm_data_preprocessors::core::{ExecutionOptions, OpsPlane, TenantLedger};
use llm_data_preprocessors::obs::export::event_to_json;
use llm_data_preprocessors::obs::{FlightRecorder, Json, SloSpec, TraceEvent, WindowConfig};

const SEED: u64 = 23;

/// A breach-inducing plane: objectives tight enough that the
/// latency-spike workload below always pages.
fn breach_plane() -> Arc<OpsPlane> {
    Arc::new(OpsPlane::new(
        SloSpec::parse_list("latency-p95=0.5,failure-rate=0.05").unwrap(),
        WindowConfig::default(),
    ))
}

/// Runs the breach workload through the shipped job handler with the
/// plane wired in, at the given worker count: one Restaurant ED job at
/// scale 0.5 and seed 0 under the latency-spike scenario, in shards of
/// two batches, submitted through the daemon's scheduler.
fn run_breach_job(plane: &Arc<OpsPlane>, tenant: &str, workers: usize) {
    let handler = dataset_handler(
        HandlerDefaults {
            seed: 0,
            ..HandlerDefaults::default()
        },
        Some(Arc::clone(plane)),
    );
    let text = |key: &str, value: &str| (key.to_string(), Json::Str(value.to_string()));
    let body = Json::Obj(vec![
        text("op", "submit"),
        text("tenant", tenant),
        text("dataset", "Restaurant"),
        ("scale".to_string(), Json::Num(0.5)),
        text("scenario", "latency-spikes"),
        ("plan_shard_size".to_string(), Json::Num(2.0)),
    ]);
    let options = ExecutionOptions {
        workers,
        ..ExecutionOptions::default()
    };
    let (_, outcome) = JobScheduler::new(TenantLedger::new())
        .run_job(tenant, options, |grant| handler(&body, grant))
        .expect("breach job runs");
    assert!(outcome.tokens_billed > 0);
}

/// Serializes a plane's alert timelines and window snapshots for
/// byte-for-byte comparison.
fn fingerprint(plane: &Arc<OpsPlane>) -> (String, String) {
    let timeline: String = plane
        .timelines()
        .values()
        .flat_map(|events| events.iter().map(event_to_json))
        .map(|line| line + "\n")
        .collect();
    let windows: String = plane
        .health()
        .iter()
        .map(|h| h.window.to_json().to_json() + "\n")
        .collect();
    (timeline, windows)
}

#[test]
fn alert_timelines_and_windows_are_identical_across_workers_and_repeats() {
    let reference = {
        let plane = breach_plane();
        run_breach_job(&plane, "acme", 1);
        fingerprint(&plane)
    };
    assert!(
        reference.0.contains("\"to\":\"paging\""),
        "the breach workload must page, or this test is vacuous:\n{}",
        reference.0
    );
    // Same seed, more workers — and a straight repeat — must reproduce the
    // timelines and the windowed snapshots byte for byte.
    for workers in [1usize, 2, 4] {
        let plane = breach_plane();
        run_breach_job(&plane, "acme", workers);
        assert_eq!(
            fingerprint(&plane),
            reference,
            "ops plane diverged at {workers} worker(s)"
        );
    }
}

#[test]
fn paging_alert_dumps_a_parseable_postmortem() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "dprep-ops-postmortem-{}-{SEED}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let recorder = Arc::new(FlightRecorder::new(&dir, 128));
    let plane = Arc::new(
        OpsPlane::new(
            SloSpec::parse_list("latency-p95=0.5").unwrap(),
            WindowConfig::default(),
        )
        .with_recorder(Arc::clone(&recorder)),
    );
    run_breach_job(&plane, "acme", 2);

    let mut dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    dumps.sort();
    assert!(
        !dumps.is_empty(),
        "paging must leave a postmortem in {dir:?}"
    );
    let body = std::fs::read_to_string(&dumps[0]).unwrap();
    let mut saw_transition = false;
    for line in body.lines() {
        let parsed = Json::parse(line).expect("every postmortem line is JSON");
        let event = parsed.get("event").and_then(Json::as_str).unwrap();
        saw_transition |= event == "slo_transition";
    }
    assert!(
        saw_transition,
        "the postmortem must include the paging transition:\n{body}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_health_op_reports_live_tenants_over_tcp() {
    let plane = breach_plane();
    let handler = dataset_handler(
        HandlerDefaults {
            seed: SEED,
            plan_shard_size: 2,
            ..HandlerDefaults::default()
        },
        Some(Arc::clone(&plane)),
    );
    let ledger = TenantLedger::new();
    ledger.set_budget("acme", Some(1_000_000));
    let daemon = Daemon::bind("127.0.0.1:0", JobScheduler::new(ledger), handler)
        .unwrap()
        .with_ops(Arc::clone(&plane));
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let submit = roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![
                ("op".to_string(), Json::Str("submit".to_string())),
                ("tenant".to_string(), Json::Str("acme".to_string())),
                ("dataset".to_string(), Json::Str("Restaurant".to_string())),
                ("workers".to_string(), Json::Num(2.0)),
            ]),
        )
        .unwrap();
        assert_eq!(submit.get("ok"), Some(&Json::Bool(true)), "{submit:?}");

        let health = roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("health".to_string()))]),
        )
        .unwrap();
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(health.get("has_ops"), Some(&Json::Bool(true)));
        let rows = match health.get("tenants") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("no tenants array: {other:?}"),
        };
        let row = rows
            .iter()
            .find(|r| r.get("tenant").and_then(Json::as_str) == Some("acme"))
            .expect("acme row");
        // The ledger half: billing and headroom.
        let billed = row.get("tokens_billed").and_then(Json::as_usize).unwrap();
        assert!(billed > 0);
        let headroom = row.get("headroom").and_then(Json::as_f64).unwrap();
        assert!(headroom > 0.0 && headroom < 1.0, "{headroom}");
        // The ops-plane half: the windowed view saw the job's requests.
        let window = row.get("window").expect("window snapshot");
        assert!(
            window.get("requests").and_then(Json::as_usize).unwrap() > 0,
            "{window:?}"
        );
        assert_eq!(
            match row.get("slos") {
                Some(Json::Arr(slos)) => slos.len(),
                other => panic!("no slos array: {other:?}"),
            },
            2
        );

        // The submitted job's plane-side view must match a direct run of
        // the same workload (the daemon path adds nothing and loses
        // nothing) — and the tenant's clock must agree with the window.
        let healths = plane.health();
        assert_eq!(healths.len(), 1);
        assert_eq!(
            window.get("vt_secs").and_then(Json::as_f64).unwrap(),
            healths[0].window.vt_secs
        );

        roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
        )
        .unwrap();
        server.join().unwrap().unwrap();
    });
}

/// The SLO transition events on the wire round-trip through the JSONL
/// serializer, so `dprep report` can rebuild alert timelines from traces.
#[test]
fn slo_transitions_round_trip_through_jsonl() {
    let plane = breach_plane();
    run_breach_job(&plane, "acme", 1);
    let timelines = plane.timelines();
    let events = &timelines["acme"];
    assert!(!events.is_empty());
    for event in events {
        let line = event_to_json(event);
        let parsed = llm_data_preprocessors::obs::export::event_from_json(
            &Json::parse(&line).expect("serialized event parses"),
        )
        .expect("event deserializes");
        match (&parsed, event) {
            (
                TraceEvent::SloTransition {
                    tenant, slo, to, ..
                },
                TraceEvent::SloTransition {
                    tenant: t2,
                    slo: s2,
                    to: to2,
                    ..
                },
            ) => {
                assert_eq!((tenant, slo, to), (t2, s2, to2));
            }
            other => panic!("timeline holds non-transition events: {other:?}"),
        }
    }
}
