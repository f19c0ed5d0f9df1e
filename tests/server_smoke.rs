//! End-to-end smoke test of `ezrt serve`: spawn the real binary on an
//! ephemeral port, talk to it with a std-only client, shut it down
//! through the API and assert the process exits cleanly (no hung
//! threads) — the same sequence the CI smoke step runs under
//! `RUST_TEST_THREADS=1`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn request(addr: &str, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ezrt serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn wait_with_timeout(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => return Some(status),
            None if Instant::now() >= deadline => return None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn serve_answers_and_shuts_down_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ezrt"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ezrt serve spawns");

    // The first stdout line announces the OS-assigned port.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .expect("address in banner")
        .to_owned();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "unexpected banner {banner:?}"
    );

    let (status, body) = request(&addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    let spec = ezrealtime::dsl::to_xml(&ezrealtime::spec::corpus::small_control());
    let (status, body) = request(&addr, "POST", "/v1/schedule", &spec);
    assert_eq!(status, 200);
    assert!(body.contains("\"feasible\": true"), "{body}");
    assert!(body.contains("\"spec_digest\": \""), "{body}");
    assert!(body.contains("\"cache\": \"miss\""), "{body}");

    let (status, body) = request(&addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"), "{body}");

    // Clean shutdown: every server thread joins and the process exits 0
    // without being killed.
    let exit = wait_with_timeout(&mut child, Duration::from_secs(30)).unwrap_or_else(|| {
        let _ = child.kill();
        panic!("ezrt serve did not exit after /v1/shutdown (hung threads?)");
    });
    assert!(exit.success(), "serve exited with {exit:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.contains("shut down cleanly"), "stdout tail: {rest:?}");
}

/// A server whose stdout cannot be written (here: `/dev/full`, where
/// every write fails) still serves: the banner is a log, and losing its
/// reader must not take the listening server down. The port is picked
/// up front because the banner cannot carry it.
#[test]
fn serve_survives_an_unwritable_stdout() {
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a free port");
        probe.local_addr().expect("local addr").to_string()
    };
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ezrt"))
        .args(["serve", "--addr", &addr, "--workers", "2"])
        .stdout(Stdio::from(full))
        .stderr(Stdio::inherit())
        .spawn()
        .expect("ezrt serve spawns");

    // Wait for the listener; a server that died on its banner never
    // comes up.
    let deadline = Instant::now() + Duration::from_secs(30);
    while TcpStream::connect(&addr).is_err() {
        if let Some(exit) = child.try_wait().expect("try_wait") {
            panic!("ezrt serve exited with {exit:?} before listening");
        }
        assert!(
            Instant::now() < deadline,
            "ezrt serve never listened on {addr}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let (status, body) = request(&addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    assert!(
        child.try_wait().expect("try_wait").is_none(),
        "ezrt serve exited after answering"
    );

    let (status, _) = request(&addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    let exit = wait_with_timeout(&mut child, Duration::from_secs(30)).unwrap_or_else(|| {
        let _ = child.kill();
        panic!("ezrt serve did not exit after /v1/shutdown");
    });
    assert!(exit.success(), "serve exited with {exit:?}");
}
