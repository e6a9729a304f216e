//! `dprep help` documents the flags and ops the commands read, on/off
//! flags read `off` as off, `chaos` is not a command, and `dprep serve`
//! refuses wire timeouts past its limit before it binds.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use dprep_core::serve::roundtrip;
use dprep_obs::Json;

fn dprep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dprep"))
        .args(args)
        .output()
        .expect("dprep runs")
}

#[test]
fn help_lists_every_flag_and_detect_all_off_prints_only_flagged_cells() {
    let help = String::from_utf8(dprep(&["help"]).stdout).expect("utf-8 help");
    for needle in [
        "--max-inflight N",
        "--max-queued N",
        "--tenant-inflight N",
        "--default-deadline SECS",
        "--max-frame-bytes N",
        "--frame-timeout SECS",
        "--idle-timeout SECS",
        "--write-timeout SECS",
        "--retry N",
        "--all on|off",
        "| drain |",
    ] {
        assert!(help.contains(needle), "dprep help misses {needle:?}");
    }
    assert!(!help.contains("chaos"), "{help}");
    let chaos = dprep(&["chaos"]);
    assert_eq!(chaos.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&chaos.stderr);
    assert!(
        stderr.starts_with("error: unknown command \"chaos\""),
        "{stderr}"
    );

    // Two clean rows: only the header unless every cell is asked for.
    let path = std::env::temp_dir().join(format!("dprep-usage-{}.csv", std::process::id()));
    std::fs::write(&path, "name,age\nalice,30\nbob,41\n").expect("write the table");
    for (all, lines) in [("off", 1), ("on", 5)] {
        let out = dprep(&["detect", "--input", path.to_str().unwrap(), "--all", all]);
        assert!(out.status.success(), "--all {all}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().count(), lines, "--all {all}: {stdout}");
    }
    std::fs::remove_file(&path).ok();
}

/// A daemon process, killed if the test ends before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn wire_timeouts_past_a_year_are_refused_before_binding_and_a_year_serves() {
    for flag in ["--frame-timeout", "--idle-timeout", "--write-timeout"] {
        let out = dprep(&["serve", "--port", "0", flag, "1e300"]);
        assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("listening"),
            "{flag} bound first: {stdout}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: {flag} must be at most 31536000 seconds")),
            "{stderr}"
        );
    }

    let year = "31536000";
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_dprep"))
            .args(["serve", "--port", "0", "--frame-timeout", year])
            .args(["--idle-timeout", year, "--write-timeout", year])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("dprep serve starts"),
    );
    // The daemon prints another line after this one, so its stdout stays
    // open until it exits: a closed pipe would fail that print.
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut listening = String::new();
    stdout.read_line(&mut listening).expect("a listening line");
    let addr = listening
        .trim()
        .strip_prefix("dprep serve listening on ")
        .unwrap_or_else(|| panic!("{listening:?}"));
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let op = |name: &str| Json::Obj(vec![("op".to_string(), Json::Str(name.to_string()))]);
    let deadline = Duration::from_secs(60);
    let ping = roundtrip(&mut stream, &mut reader, &op("ping"), deadline).expect("ping");
    assert_eq!(
        ping.get("pong"),
        Some(&Json::Bool(true)),
        "{}",
        ping.to_json()
    );
    let bye = roundtrip(&mut stream, &mut reader, &op("shutdown"), deadline).expect("shutdown");
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)), "{}", bye.to_json());
    drop((stream, reader));
    let until = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("wait") {
            break status;
        }
        assert!(Instant::now() < until, "the daemon outlived its shutdown");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "{status:?}");
}
