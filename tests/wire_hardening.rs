//! Hostile-wire tests: a daemon with tight [`WireLimits`] survives
//! oversized frames, binary garbage, torn frames, byte-at-a-time slow
//! loris writers, and silent clients — each violation costs the offending
//! connection only, and the daemon keeps serving everyone else.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use llm_data_preprocessors::core::serve::{roundtrip, Daemon, JobScheduler};
use llm_data_preprocessors::core::{JobOutcome, TenantLedger, WireLimits};
use llm_data_preprocessors::obs::Json;

/// A trivial handler — the hostile clients below never get far enough to
/// invoke it, and the sanity pings don't submit.
fn noop_daemon() -> Daemon {
    Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new()),
        Arc::new(|_body: &Json, _grant| Ok(JobOutcome::default())),
    )
    .expect("bind")
    .with_wire_limits(WireLimits {
        max_frame_bytes: 1024,
        frame_secs: 1.0,
        idle_secs: 1.5,
        write_secs: 5.0,
    })
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// The daemon is alive and answering: a fresh connection's ping succeeds.
fn assert_serving(addr: SocketAddr) {
    let (mut stream, mut reader) = connect(addr);
    let reply = roundtrip(
        &mut stream,
        &mut reader,
        &Json::Obj(vec![("op".to_string(), Json::Str("ping".to_string()))]),
    )
    .expect("ping roundtrip");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        reply.to_json()
    );
}

/// Reads one reply line, tolerating the client-side poll timeout.
fn read_line(reader: &mut BufReader<TcpStream>, deadline_secs: f64) -> String {
    let deadline = Instant::now() + Duration::from_secs_f64(deadline_secs);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => panic!("connection closed before a reply arrived"),
            Ok(_) => return line,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(
                    Instant::now() < deadline,
                    "no reply within {deadline_secs}s"
                );
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

/// Reads until EOF, asserting the peer closes within `deadline_secs`.
fn assert_closed(reader: &mut BufReader<TcpStream>, deadline_secs: f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(deadline_secs);
    let mut buf = [0u8; 256];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(
                    Instant::now() < deadline,
                    "connection not closed within {deadline_secs}s"
                );
            }
            Err(_) => return, // reset counts as closed
        }
    }
}

#[test]
fn hostile_clients_cost_their_own_connection_only() {
    let daemon = noop_daemon();
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        assert_serving(addr);

        // 1. An oversized NDJSON line: answered with an error naming the
        // limit, then the connection closes.
        let (mut stream, mut reader) = connect(addr);
        let mut oversized = vec![b'a'; 4096];
        oversized.push(b'\n');
        stream.write_all(&oversized).expect("write oversized");
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("frame limit"), "{reply}");
        assert_closed(&mut reader, 5.0);
        assert_serving(addr);

        // 2. Binary garbage (invalid UTF-8): named error, then close.
        let (mut stream, mut reader) = connect(addr);
        stream
            .write_all(b"{\"op\"\xff\xfe\xfd\n")
            .expect("write garbage");
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("not valid UTF-8"), "{reply}");
        assert_closed(&mut reader, 5.0);
        assert_serving(addr);

        // 3. A half-written frame followed by a disconnect: no reply owed,
        // the connection thread just ends.
        let (mut stream, reader) = connect(addr);
        stream.write_all(b"{\"op\":\"pi").expect("write torn");
        drop(reader);
        drop(stream);
        assert_serving(addr);

        // 4. A slow loris: one byte every 250ms never completes a frame
        // within the 1s frame clock — which starts at the first byte and
        // never resets on progress.
        let (mut stream, mut reader) = connect(addr);
        for byte in b"{\"op\":\"ping\"}" {
            if stream.write_all(&[*byte]).is_err() {
                break; // the daemon already gave up on us, as it should
            }
            std::thread::sleep(Duration::from_millis(250));
        }
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("not completed within"), "{reply}");
        assert_closed(&mut reader, 5.0);
        assert_serving(addr);

        // 5. A silent client: connects, writes nothing. The idle clock
        // closes it without a reply.
        let (stream, mut reader) = connect(addr);
        assert_closed(&mut reader, 5.0);
        drop(stream);
        assert_serving(addr);

        // 6. Malformed JSON and empty lines are answered on the same
        // connection, which stays open for a well-formed follow-up.
        let (mut stream, mut reader) = connect(addr);
        stream.write_all(b"not json at all\n").expect("write junk");
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("malformed request"), "{reply}");
        let reply = roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("ping".to_string()))]),
        )
        .expect("recovered roundtrip");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));

        // Clean shutdown still works after all of the above.
        let reply = roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
        )
        .expect("shutdown roundtrip");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        server.join().unwrap().expect("daemon exits cleanly");
    });
}

/// A request that stays within the limits is unaffected by them: the
/// boundary case of a frame exactly at `max_frame_bytes` still parses.
#[test]
fn frames_at_the_limit_still_serve() {
    let daemon = noop_daemon();
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());

        // Pad a ping up to exactly 1024 bytes (the limit, newline excluded).
        let base = "{\"op\":\"ping\",\"pad\":\"";
        let close = "\"}";
        let pad = 1024 - base.len() - close.len();
        let request = format!("{base}{}{close}", "x".repeat(pad));
        assert_eq!(request.len(), 1024);

        let (mut stream, mut reader) = connect(addr);
        stream.write_all(request.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("\"pong\""), "{reply}");

        // One byte more sheds.
        let (mut stream2, mut reader2) = connect(addr);
        let too_big = format!("{base}{}{close}", "x".repeat(pad + 1));
        stream2.write_all(too_big.as_bytes()).expect("write");
        stream2.write_all(b"\n").expect("newline");
        let reply = read_line(&mut reader2, 5.0);
        assert!(reply.contains("frame limit"), "{reply}");

        let (mut stream3, mut reader3) = connect(addr);
        roundtrip(
            &mut stream3,
            &mut reader3,
            &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
        )
        .expect("shutdown");
        server.join().unwrap().expect("daemon exits cleanly");
    });
}

/// A deeply nested frame well inside the default size limit is just a
/// malformed request: the parser's nesting cap answers it with an error
/// instead of recursing off the end of the connection thread's stack,
/// which used to abort the daemon for every tenant.
#[test]
fn deeply_nested_frames_get_an_error_not_a_crash() {
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new()),
        Arc::new(|_body: &Json, _grant| Ok(JobOutcome::default())),
    )
    .expect("bind")
    .with_wire_limits(WireLimits::default());
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());

        let mut frame = vec![b'['; 100_000];
        assert!(frame.len() < WireLimits::default().max_frame_bytes);
        frame.push(b'\n');
        let (mut stream, mut reader) = connect(addr);
        stream.write_all(&frame).expect("write nested frame");
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("malformed request"), "{reply}");
        assert!(reply.contains("nesting"), "{reply}");
        assert_serving(addr);

        let (mut stream, mut reader) = connect(addr);
        roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
        )
        .expect("shutdown");
        server.join().unwrap().expect("daemon exits cleanly");
    });
}
