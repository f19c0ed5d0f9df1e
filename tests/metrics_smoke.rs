//! End-to-end observability smoke: boot the real `ezrt serve` binary
//! with an access log and a disk tier, so the checker sees the
//! `ezrt_disk_*` families too, drive three requests (miss, hit, healthz),
//! scrape `GET /v1/metrics`, validate the exposition with the checked-in
//! `scripts/check-prometheus.sh`, and validate the NDJSON access log —
//! the same sequence the CI smoke step runs under `RUST_TEST_THREADS=1`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn request(addr: &str, method: &str, target: &str, body: &str) -> (u16, String, String) {
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
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (status, head.to_owned(), body.to_owned())
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
fn metrics_scrape_and_access_log_survive_the_checker() {
    let dir = std::env::temp_dir().join(format!("ezrt_metrics_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("smoke dir");
    let log_path = dir.join("access.ndjson");
    let cache_dir = dir.join("cache");

    let mut child = Command::new(env!("CARGO_BIN_EXE_ezrt"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--log-file",
            log_path.to_str().expect("utf-8 path"),
            "--cache-dir",
            cache_dir.to_str().expect("utf-8 path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ezrt serve spawns");

    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .expect("address in banner")
        .to_owned();

    // Three requests: a synthesis miss, the same spec again (hit), and
    // a healthz probe.
    let spec = ezrealtime::dsl::to_xml(&ezrealtime::spec::corpus::small_control());
    let (status, head, _) = request(&addr, "POST", "/v1/schedule", &spec);
    assert_eq!(status, 200);
    assert!(head.contains("X-Ezrt-Cache: miss"), "{head}");
    assert!(head.contains("X-Ezrt-Elapsed-Micros: "), "{head}");
    let (status, head, _) = request(&addr, "POST", "/v1/schedule", &spec);
    assert_eq!(status, 200);
    assert!(head.contains("X-Ezrt-Cache: hit"), "{head}");
    let (status, _, _) = request(&addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);

    // Scrape and hand the exposition to the checked-in validator.
    let (status, head, exposition) = request(&addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "{head}"
    );
    for family in [
        "ezrt_cache_hits_total 1",
        "ezrt_cache_misses_total 1",
        "ezrt_http_schedule_requests_total 2",
        "ezrt_search_runs_total",
        "ezrt_phase_search_micros_count 1",
        "ezrt_disk_writes_total 1",
        "ezrt_disk_load_misses_total 1",
    ] {
        assert!(exposition.contains(family), "missing {family} in scrape");
    }
    let exposition_path = dir.join("metrics.txt");
    std::fs::write(&exposition_path, &exposition).expect("write exposition");
    let checker =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/check-prometheus.sh");
    let check = Command::new("bash")
        .arg(&checker)
        .arg(&exposition_path)
        .output()
        .expect("checker runs");
    assert!(
        check.status.success(),
        "check-prometheus.sh failed:\n{}",
        String::from_utf8_lossy(&check.stderr)
    );

    let (status, _, body) = request(&addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"), "{body}");
    let exit = wait_with_timeout(&mut child, Duration::from_secs(30)).unwrap_or_else(|| {
        let _ = child.kill();
        panic!("ezrt serve did not exit after /v1/shutdown");
    });
    assert!(exit.success(), "serve exited with {exit:?}");

    // The access log holds one valid NDJSON line per routed request
    // (shutdown included), flushed by the clean exit.
    let log = std::fs::read_to_string(&log_path).expect("read access log");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(
        lines.len(),
        5,
        "miss, hit, healthz, metrics, shutdown: {log}"
    );
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in [
            "\"t_micros\":",
            "\"method\":",
            "\"path\":",
            "\"status\":200",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(lines[1].contains("\"cache\":\"hit\""), "{}", lines[1]);
    assert!(
        lines[3].contains("\"path\":\"/v1/metrics\""),
        "{}",
        lines[3]
    );

    let _ = std::fs::remove_dir_all(&dir);
}
