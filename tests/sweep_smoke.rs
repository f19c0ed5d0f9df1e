//! End-to-end smoke test of the sweep surfaces against the real `ezrt`
//! binary: the CLI frontier is byte-identical across repeat runs and
//! fan-out widths, and `POST /v1/sweep` on a spawned `ezrt serve`
//! returns the very same rows — one determinism contract, two
//! transports — at the default reduction level and at `?por=off`. The
//! CI sweep smoke step runs this file under `RUST_TEST_THREADS=1`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const GRID: &str = "periods:100,150;deadlines:75,100;jitter:0,2";

fn spec_path(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("small_control.xml");
    let xml = ezrealtime::dsl::to_xml(&ezrealtime::spec::corpus::small_control());
    std::fs::write(&path, xml).expect("write spec fixture");
    path
}

/// `ezrt <global...> sweep <spec> --grid GRID` stdout.
fn run_cli(spec: &std::path::Path, global: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_ezrt"))
        .args(global)
        .arg("sweep")
        .arg(spec)
        .args(["--grid", GRID])
        .output()
        .expect("ezrt sweep runs");
    assert!(
        output.status.success(),
        "ezrt sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 rows")
}

#[test]
fn cli_frontier_is_identical_across_runs_and_jobs() {
    let dir = std::env::temp_dir().join(format!("ezrt-sweep-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = spec_path(&dir);

    let first = run_cli(&spec, &["--jobs", "1"]);
    assert_eq!(first.lines().count(), 8, "{first}");
    assert!(first.contains("\"verdict\": "), "{first}");

    let second = run_cli(&spec, &["--jobs", "1"]);
    assert_eq!(first, second, "two sequential runs diverged");
    let wide = run_cli(&spec, &["--jobs", "4"]);
    assert_eq!(first, wide, "--jobs changed the frontier rows");

    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `ezrt serve` on an ephemeral port; returns the child, the
/// address its banner announces, and the stdout reader — which the
/// caller keeps alive until the server is gone, so the server never
/// writes into a closed pipe. The server's stderr goes to the test's, so
/// a server-side panic shows in the log.
fn serve() -> (Child, String, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ezrt"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
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
    (child, addr, stdout)
}

/// The body of `POST <target>` with the spec at `spec` as its body.
fn post_sweep(addr: &str, target: &str, spec: &std::path::Path) -> String {
    let xml = std::fs::read_to_string(spec).expect("spec fixture reads");
    let mut stream = TcpStream::connect(addr).expect("connect to ezrt serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let head = format!(
        "POST {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        xml.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(xml.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    raw.split_once("\r\n\r\n")
        .expect("head/body split")
        .1
        .to_owned()
}

#[test]
fn http_sweep_matches_the_cli_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("ezrt-sweep-http-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = spec_path(&dir);
    let cli_rows = run_cli(&spec, &["--jobs", "2"]);

    let (mut child, addr, _stdout) = serve();
    let body = post_sweep(&addr, &format!("/v1/sweep?grid={GRID}"), &spec);
    assert_eq!(
        body, cli_rows,
        "HTTP rows diverge from the CLI frontier for the same spec and grid"
    );

    let (_, _) = (child.kill(), child.wait());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn http_sweep_honours_the_por_query() {
    let dir = std::env::temp_dir().join(format!("ezrt-sweep-por-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = spec_path(&dir);
    let cli_rows = run_cli(&spec, &["--por", "off"]);
    // The reduction level keys the digests, so the rows must differ
    // from the default level's for this check to mean anything.
    assert_ne!(cli_rows, run_cli(&spec, &[]));

    let (mut child, addr, _stdout) = serve();
    let body = post_sweep(&addr, &format!("/v1/sweep?grid={GRID}&por=off"), &spec);
    assert_eq!(
        body, cli_rows,
        "?por=off rows diverge from `ezrt --por off sweep`"
    );

    let (_, _) = (child.kill(), child.wait());
    std::fs::remove_dir_all(&dir).ok();
}
