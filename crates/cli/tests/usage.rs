//! `dprep help` documents the flags and ops the commands read, on/off
//! flags read `off` as off, `chaos` is not a command, `dprep serve`
//! refuses wire timeouts past its limit before it binds, and a daemon
//! whose stdout reader has gone keeps serving.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
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
        "A field of the wrong type, null included, is refused",
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
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut listening = String::new();
    stdout.read_line(&mut listening).expect("a listening line");
    let addr = listening
        .trim()
        .strip_prefix("dprep serve listening on ")
        .unwrap_or_else(|| panic!("{listening:?}"));
    ping_and_shut_down(addr.parse().expect("an address"));
    exits_cleanly(&mut daemon);
}

/// Pings `addr`, then shuts the daemon down; both must answer.
fn ping_and_shut_down(addr: SocketAddr) {
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
}

/// Waits for `daemon` to exit, at most 30 seconds, and asserts it exited 0.
fn exits_cleanly(daemon: &mut Daemon) {
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

/// A reader that takes the listening line and closes the daemon's stdout
/// does not take the daemon down: a ping and a shutdown both answer, and
/// it exits 0. The line is read a byte at a time and the pipe closed at
/// once, so a banner printed in two writes would meet a broken pipe with
/// its second; timing decides whether it does, so several daemons are
/// tried.
#[test]
fn a_daemon_whose_stdout_reader_has_gone_keeps_serving() {
    for _ in 0..5 {
        let mut daemon = Daemon(
            Command::new(env!("CARGO_BIN_EXE_dprep"))
                .args(["serve", "--port", "0"])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("dprep serve starts"),
        );
        let mut stdout = daemon.0.stdout.take().expect("piped stdout");
        let mut listening = Vec::new();
        let mut byte = [0u8; 1];
        while listening.last() != Some(&b'\n') {
            assert_eq!(
                stdout.read(&mut byte).expect("read stdout"),
                1,
                "{listening:?}"
            );
            listening.push(byte[0]);
        }
        drop(stdout);
        let listening = String::from_utf8(listening).expect("utf-8");
        let addr = listening
            .trim()
            .strip_prefix("dprep serve listening on ")
            .unwrap_or_else(|| panic!("{listening:?}"));
        ping_and_shut_down(addr.parse().expect("an address"));
        exits_cleanly(&mut daemon);
    }

    // A pipe closed before the daemon prints: it warns once on stderr and
    // serves on the port it was given.
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|probe| probe.local_addr())
        .expect("a free port")
        .port();
    let (closed, writer) = std::io::pipe().expect("a pipe");
    drop(closed);
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_dprep"))
            .args(["serve", "--port", &port.to_string()])
            .stdout(writer)
            .stderr(Stdio::piped())
            .spawn()
            .expect("dprep serve starts"),
    );
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let until = Instant::now() + Duration::from_secs(30);
    while TcpStream::connect(addr).is_err() {
        assert!(Instant::now() < until, "the daemon never listened");
        std::thread::sleep(Duration::from_millis(20));
    }
    ping_and_shut_down(addr);
    exits_cleanly(&mut daemon);
    let mut stderr = String::new();
    let mut pipe = daemon.0.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("warning: cannot print the listening line"),
        "{stderr}"
    );
}
