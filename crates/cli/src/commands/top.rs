//! `dprep top` — a live per-tenant view of a running `dprep serve` daemon.
//!
//! Polls the daemon's `health` op and renders one table row per tenant:
//! windowed request/token rates, windowed error rate and p95 latency (all
//! over the sequential-account virtual clock), budget headroom, active
//! jobs, shed counts, and the current SLO alert states; the header shows
//! the daemon's drain state and overload-gate occupancy. `--once` prints a
//! single snapshot and exits (scripts and CI use this); without it the
//! table refreshes every `--interval` seconds until interrupted. A failed
//! poll (daemon restarting, drain window, transient network) retries with
//! capped exponential backoff up to `--retry` consecutive failures instead
//! of exiting on the first one. `--format json` emits the raw health reply
//! instead of the table.

use std::io::{BufReader, Write};
use std::net::TcpStream;

use dprep_core::serve::roundtrip;
use dprep_obs::Json;

use crate::args::Flags;
use crate::commands::write_stdout;

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), String> {
    // Without this, a caller still passing the retired flag would retry
    // against a daemon that is not there instead of running a drill.
    if flags.get("check").is_some() {
        return Err(
            "top --check is retired: the ops-plane drill is the ops_plane test \
                    alert_timelines_and_windows_are_identical_across_workers_and_repeats \
                    (cargo test --test ops_plane)"
                .into(),
        );
    }
    let host = flags.get("host").unwrap_or("127.0.0.1");
    let port = flags.port_or(7077)?;
    let once = flags.bool_or("once", false)?;
    let interval = flags.usize_or("interval", 2)?.max(1);
    let format = flags.get("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("--format must be text or json, got {format:?}"));
    }
    let retries = flags.usize_or("retry", 5)?;
    let mut failures = 0usize;
    loop {
        let health = match poll(host, port) {
            Ok(health) => {
                failures = 0;
                health
            }
            Err(e) => {
                failures += 1;
                if failures > retries {
                    return Err(format!("{e} ({failures} consecutive failures, giving up)"));
                }
                let delay = backoff_delay(failures);
                eprintln!(
                    "dprep top: {e}; retrying in {:.1}s ({failures}/{retries})",
                    delay.as_secs_f64()
                );
                std::thread::sleep(delay);
                continue;
            }
        };
        write_stdout(|out| {
            if format == "json" {
                writeln!(out, "{}", health.to_json())
            } else {
                out.write_all(render(&health).as_bytes())
            }
        })?;
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(interval as u64));
    }
}

/// Reconnect backoff for the `attempt`th consecutive poll failure
/// (1-based): 500ms doubling per attempt, capped at 8s so a long outage
/// polls steadily instead of backing off forever.
fn backoff_delay(attempt: usize) -> std::time::Duration {
    let millis = 500u64.saturating_mul(1u64 << attempt.saturating_sub(1).min(4));
    std::time::Duration::from_millis(millis.min(8_000))
}

/// How long one `health` poll waits for its reply: a daemon that accepts
/// the connection but never answers fails the poll instead of hanging it.
const HEALTH_DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);

/// One `health` round trip against the daemon.
fn poll(host: &str, port: u16) -> Result<Json, String> {
    let mut stream = TcpStream::connect((host, port))
        .map_err(|e| format!("cannot connect to {host}:{port}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone failed: {e}"))?,
    );
    let reply = roundtrip(
        &mut stream,
        &mut reader,
        &Json::Obj(vec![("op".to_string(), Json::Str("health".to_string()))]),
        HEALTH_DEADLINE,
    )?;
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("health op failed: {}", reply.to_json()));
    }
    Ok(reply)
}

/// Renders one health reply as the per-tenant table.
fn render(health: &Json) -> String {
    let mut out = String::new();
    let active = health
        .get("active_jobs")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    let tenants = match health.get("tenants") {
        Some(Json::Arr(rows)) => rows.as_slice(),
        _ => &[],
    };
    let state = health
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("serving");
    let queued = health.get("queued").and_then(Json::as_usize).unwrap_or(0);
    let shed = health
        .get("shed_jobs")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    out.push_str(&format!(
        "dprep top [{state}] — {} tenant(s), {} active job(s), {queued} queued, {shed} shed\n",
        tenants.len(),
        active
    ));
    if tenants.is_empty() {
        out.push_str("(no tenants yet — submit a job first)\n");
        return out;
    }
    out.push_str(&format!(
        "{:<14} {:>8} {:>9} {:>6} {:>8} {:>9} {:>7} {:>6}  {}\n",
        "TENANT", "REQ/S", "TOK/S", "ERR%", "P95(S)", "HEADROOM", "ACTIVE", "SHED", "ALERTS"
    ));
    for row in tenants {
        let tenant = row.get("tenant").and_then(Json::as_str).unwrap_or("?");
        let num = |outer: &Json, key: &str| outer.get(key).and_then(Json::as_f64);
        let window = row.get("window");
        let wnum = |key: &str| window.and_then(|w| num(w, key));
        let headroom = match num(row, "headroom") {
            Some(f) => format!("{:.0}%", f * 100.0),
            None => "-".to_string(),
        };
        let alerts = match row.get("slos") {
            Some(Json::Arr(slos)) if !slos.is_empty() => slos
                .iter()
                .map(|s| {
                    format!(
                        "{}:{}",
                        s.get("slo").and_then(Json::as_str).unwrap_or("?"),
                        s.get("state").and_then(Json::as_str).unwrap_or("?")
                    )
                })
                .collect::<Vec<_>>()
                .join(" "),
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<14} {:>8.2} {:>9.1} {:>6.1} {:>8.2} {:>9} {:>7} {:>6}  {}\n",
            tenant,
            wnum("requests_per_sec").unwrap_or(0.0),
            wnum("tokens_per_sec").unwrap_or(0.0),
            wnum("error_rate").unwrap_or(0.0) * 100.0,
            wnum("latency_p95_secs").unwrap_or(0.0),
            headroom,
            row.get("jobs_active").and_then(Json::as_usize).unwrap_or(0),
            row.get("jobs_shed").and_then(Json::as_usize).unwrap_or(0),
            alerts
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_formats_tenants_and_handles_missing_fields() {
        let health = Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("active_jobs".to_string(), Json::Num(1.0)),
            (
                "tenants".to_string(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("tenant".to_string(), Json::Str("acme".to_string())),
                        ("headroom".to_string(), Json::Num(0.4)),
                        ("jobs_active".to_string(), Json::Num(1.0)),
                        (
                            "window".to_string(),
                            Json::Obj(vec![
                                ("requests_per_sec".to_string(), Json::Num(0.5)),
                                ("tokens_per_sec".to_string(), Json::Num(42.0)),
                                ("error_rate".to_string(), Json::Num(0.25)),
                                ("latency_p95_secs".to_string(), Json::Num(3.0)),
                            ]),
                        ),
                        (
                            "slos".to_string(),
                            Json::Arr(vec![Json::Obj(vec![
                                ("slo".to_string(), Json::Str("latency-p95".to_string())),
                                ("state".to_string(), Json::Str("paging".to_string())),
                            ])]),
                        ),
                    ]),
                    // A ledger-only tenant: no window, no slos, no budget.
                    Json::Obj(vec![(
                        "tenant".to_string(),
                        Json::Str("ledger-only".to_string()),
                    )]),
                ]),
            ),
        ]);
        let table = render(&health);
        assert!(table.contains("2 tenant(s), 1 active job(s)"), "{table}");
        assert!(table.contains("latency-p95:paging"), "{table}");
        assert!(table.contains("40%"), "{table}");
        let ledger_line = table
            .lines()
            .find(|l| l.starts_with("ledger-only"))
            .expect("ledger-only row");
        assert!(ledger_line.contains('-'), "{ledger_line}");
    }

    #[test]
    fn the_retired_check_flag_errors_instead_of_polling() {
        let mut flags = Flags::default();
        flags.set("check", "on");
        let err = run(&flags).unwrap_err();
        assert!(
            err.contains("alert_timelines_and_windows_are_identical"),
            "{err}"
        );
    }

    #[test]
    fn backoff_doubles_and_caps_at_eight_seconds() {
        assert_eq!(backoff_delay(1).as_millis(), 500);
        assert_eq!(backoff_delay(2).as_millis(), 1000);
        assert_eq!(backoff_delay(3).as_millis(), 2000);
        assert_eq!(backoff_delay(5).as_millis(), 8000);
        assert_eq!(backoff_delay(50).as_millis(), 8000, "capped, no overflow");
    }

    #[test]
    fn render_shows_drain_state_and_shed_counts() {
        let health = Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("active_jobs".to_string(), Json::Num(1.0)),
            ("state".to_string(), Json::Str("draining".to_string())),
            ("queued".to_string(), Json::Num(3.0)),
            ("shed_jobs".to_string(), Json::Num(7.0)),
            (
                "tenants".to_string(),
                Json::Arr(vec![Json::Obj(vec![
                    ("tenant".to_string(), Json::Str("acme".to_string())),
                    ("jobs_shed".to_string(), Json::Num(7.0)),
                ])]),
            ),
        ]);
        let table = render(&health);
        assert!(table.contains("[draining]"), "{table}");
        assert!(table.contains("3 queued, 7 shed"), "{table}");
        assert!(table.contains("SHED"), "{table}");
        let row = table.lines().find(|l| l.starts_with("acme")).unwrap();
        assert!(row.contains('7'), "{row}");
    }

    #[test]
    fn render_explains_an_empty_daemon() {
        let health = Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("active_jobs".to_string(), Json::Num(0.0)),
            ("tenants".to_string(), Json::Arr(vec![])),
        ]);
        assert!(render(&health).contains("no tenants yet"));
    }
}
