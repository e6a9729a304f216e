//! Running the `dprep` binary from outside: measured child runs, the
//! daemon's lifetime, its TCP wire, and what the CLI prints on stderr.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use dprep_obs::Json;

/// A finished child process, measured.
#[derive(Debug)]
pub struct Exit {
    pub wall_s: f64,
    /// User plus system CPU of the child and its threads.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Exited with code 0.
    pub ok: bool,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

mod sys {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: c_long,
        pub usec: c_long,
    }

    /// `struct rusage` of Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        /// Peak resident set, in KiB.
        pub maxrss: c_long,
        pub rest: [c_long; 13],
    }

    extern "C" {
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
    }
}

/// Runs `cmd` to completion with stdout and stderr captured in files under
/// `scratch`, timing it from spawn to reaping. The child is reaped with
/// `wait4`, which reports its own CPU time and peak resident set.
pub fn run_measured(mut cmd: Command, scratch: &Path) -> Result<Exit, String> {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let create = |p: &Path| {
        std::fs::File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()))
    };
    cmd.stdin(Stdio::null())
        .stdout(create(&out_path)?)
        .stderr(create(&err_path)?);
    let started = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0;
    let mut usage = sys::Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable values with the
        // layout of C's `int` and Linux's `struct rusage`, which is all
        // wait4 writes through its pointers. `pid` is this process's own
        // child, spawned above and reaped nowhere else.
        let reaped = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 on {pid} failed: {err}"));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // The child is reaped; `Child` must not wait on the pid again.
    drop(child);
    let seconds = |t: &sys::Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Exit {
        wall_s,
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        ok: status == 0,
        stdout: std::fs::read(&out_path).map_err(|e| format!("cannot read child stdout: {e}"))?,
        stderr: std::fs::read_to_string(&err_path)
            .map_err(|e| format!("cannot read child stderr: {e}"))?,
    })
}

/// The billing footer the CLI prints on stderr:
/// `[N request(s), T tokens, $C virtual cost, Ls virtual latency]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footer {
    pub requests: usize,
    pub tokens: usize,
    pub usd: f64,
    pub virtual_s: f64,
}

/// The footer and the `F of N cells flagged` count in CLI stderr.
pub fn parse_footer(stderr: &str) -> Option<(Footer, usize)> {
    let mut footer = None;
    let mut cells = None;
    for line in stderr.lines() {
        if let Some(body) = line
            .strip_prefix('[')
            .and_then(|l| l.strip_suffix("s virtual latency]"))
        {
            let parts: Vec<&str> = body.split(", ").collect();
            if let [requests, tokens, usd, latency] = parts.as_slice() {
                footer = Some(Footer {
                    requests: requests.strip_suffix(" request(s)")?.parse().ok()?,
                    tokens: tokens.strip_suffix(" tokens")?.parse().ok()?,
                    usd: usd
                        .strip_prefix('$')?
                        .strip_suffix(" virtual cost")?
                        .parse()
                        .ok()?,
                    virtual_s: latency.parse().ok()?,
                });
            }
        } else if let Some(rest) = line.strip_suffix(" cells flagged") {
            cells = rest.split(" of ").nth(1).and_then(|n| n.parse().ok());
        }
    }
    Some((footer?, cells?))
}

/// Linux's fixed user-visible clock tick (`USER_HZ`) of `/proc` CPU times.
const USER_HZ: f64 = 100.0;

/// A `dprep serve` child.
pub struct Daemon {
    child: Child,
    /// Held open until the daemon exits: it must never write to a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    running: bool,
}

impl Daemon {
    /// Starts `dprep serve --port 0 ARGS` and waits for its `listening`
    /// line.
    pub fn spawn(dprep: &Path, args: &[&str], stderr: &Path) -> Result<Daemon, String> {
        let err = std::fs::File::create(stderr)
            .map_err(|e| format!("cannot create {}: {e}", stderr.display()))?;
        let mut child = Command::new(dprep)
            .args(["serve", "--port", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dprep.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
            running: true,
        };
        read.map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("dprep serve listening on ")
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds the daemon has used so far, all threads.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name, starting at field 3.
        let fields: Vec<&str> = stat
            .rsplit_once(") ")
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) / USER_HZ),
            _ => Err(format!("{path}: no utime/stime")),
        }
    }

    /// The daemon's peak resident set so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Asks the daemon to shut down over the wire and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Conn::open(&self.addr)?.call(r#"{"op":"shutdown"}"#)?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("shutdown refused: {}", reply.to_json()));
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        self.running = false;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.running {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// How long a client waits for one reply before calling the daemon stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection speaking the daemon's NDJSON wire.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Conn { stream, reader })
    }

    /// Sends one request line (in a single write) and reads the reply line.
    pub fn call(&mut self, request: &str) -> Result<Json, String> {
        let mut frame = String::with_capacity(request.len() + 1);
        frame.push_str(request);
        frame.push('\n');
        self.stream
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Json::parse(line.trim()).map_err(|e| format!("malformed reply: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_usage_footer() {
        let stderr = "3600 of 80000 cells flagged\n\
                      [5334 request(s), 9630007 tokens, $404.7977 virtual cost, 125186.0s virtual latency]\n\
                      [0 deduped, 199 retried, 0 cache hit(s), 0 faulted]\n";
        let (footer, cells) = parse_footer(stderr).expect("footer");
        assert_eq!(cells, 80000);
        assert_eq!(
            footer,
            Footer {
                requests: 5334,
                tokens: 9_630_007,
                usd: 404.7977,
                virtual_s: 125_186.0,
            }
        );
    }

    #[test]
    fn a_missing_or_torn_footer_is_none() {
        assert_eq!(parse_footer("error: cannot read \"x.csv\"\n"), None);
        assert_eq!(
            parse_footer("4 of 4 cells flagged\n[1 request(s), 644 tokens]\n"),
            None
        );
        assert_eq!(
            parse_footer("[1 request(s), x tokens, $0.1 virtual cost, 7.2s virtual latency]\n"),
            None
        );
    }
}
