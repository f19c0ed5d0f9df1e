//! The artifact-pipeline acceptance tests: `ezrt table`, `ezrt
//! codegen`, `ezrt gantt` and `ezrt pnml` stdout must be byte-identical
//! to the corresponding HTTP artifact bodies for the same spec digest —
//! both when each surface synthesizes independently (the renderers are
//! pure functions of a deterministic outcome) and when they share one
//! `--cache-dir` store (then even the timing-bearing report JSON is
//! byte-identical, because it is one persisted outcome).

use ezrealtime::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

fn ezrt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ezrt"))
}

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(name: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("ezrt_artifacts_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir");
        TempDir { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One request over a fresh connection; returns `(status, body)`. The
/// body is read exactly by `Content-Length`, so artifact bytes come
/// back verbatim.
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8(raw).expect("UTF-8 response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let head_end = raw.find("\r\n\r\n").expect("header terminator") + 4;
    let content_length: usize = raw[..head_end]
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|value| value.trim().parse().ok())
        .expect("Content-Length");
    let body = raw[head_end..head_end + content_length].to_owned();
    (status, body)
}

fn cli_stdout(args: &[&str]) -> String {
    let output = ezrt().args(args).output().expect("ezrt runs");
    assert!(
        output.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 stdout")
}

#[test]
fn cli_artifacts_match_http_bodies_byte_for_byte() {
    let spec = ezrealtime::spec::corpus::small_control();
    let xml = ezrealtime::dsl::to_xml(&spec);
    let dir = TempDir::new("identity");
    let spec_path = dir.path.join("spec.xml");
    std::fs::write(&spec_path, &xml).expect("spec file");
    let spec_path = spec_path.to_str().unwrap();

    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("server");
    let addr = server.addr();

    // Each surface synthesizes on its own; the artifact bytes must
    // still agree because rendering is a pure function of the
    // deterministic sequential outcome.
    for (cli_args, method, target) in [
        (&["table", spec_path][..], "POST", "/v1/table".to_owned()),
        (
            &["codegen", spec_path, "i8051"][..],
            "POST",
            "/v1/codegen?target=i8051".to_owned(),
        ),
        (
            &["codegen", spec_path][..],
            "POST",
            "/v1/codegen".to_owned(),
        ),
        (&["gantt", spec_path][..], "POST", "/v1/gantt".to_owned()),
    ] {
        let cli = cli_stdout(cli_args);
        let (status, http) = request(addr, method, &target, &xml);
        assert_eq!(status, 200, "{target}");
        assert_eq!(cli, http, "CLI {cli_args:?} vs HTTP {target}");
        assert!(!cli.is_empty(), "{cli_args:?}");
    }

    // The GET artifact route serves the same bytes for the now-cached
    // digest — including pnml, which has no POST endpoint.
    let project = ezrealtime::core::Project::from_dsl(&xml).expect("spec parses");
    let digest = ezrealtime::artifacts::project_digest(&project).to_hex();
    for (cli_args, kind) in [
        (&["table", spec_path][..], "table"),
        (&["codegen", spec_path, "i8051"][..], "codegen:i8051"),
        (&["gantt", spec_path][..], "gantt"),
        (&["pnml", spec_path][..], "pnml"),
    ] {
        let cli = cli_stdout(cli_args);
        let (status, http) = request(addr, "GET", &format!("/v1/artifact/{digest}/{kind}"), "");
        assert_eq!(status, 200, "{kind}");
        assert_eq!(cli, http, "CLI {cli_args:?} vs GET artifact {kind}");
    }

    server.stop();
}

#[test]
fn a_shared_cache_dir_joins_cli_and_server_outcomes() {
    let spec = ezrealtime::spec::corpus::small_control();
    let xml = ezrealtime::dsl::to_xml(&spec);
    let dir = TempDir::new("shared_store");
    let cache_dir = dir.path.join("store");
    let spec_path = dir.path.join("spec.xml");
    std::fs::write(&spec_path, &xml).expect("spec file");

    // The CLI synthesizes once and persists the outcome.
    let report = cli_stdout(&[
        "--cache-dir",
        cache_dir.to_str().unwrap(),
        "schedule",
        spec_path.to_str().unwrap(),
        "--json",
    ]);

    // A server over the same store serves the *same outcome*: even the
    // timing-bearing fields are byte-identical, because no second
    // synthesis ever ran.
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let project = ezrealtime::core::Project::from_dsl(&xml).expect("spec parses");
    let digest = ezrealtime::artifacts::project_digest(&project).to_hex();
    let (status, body) = request(
        server.addr(),
        "GET",
        &format!("/v1/artifact/{digest}/report-json"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(report, body, "one persisted outcome, two surfaces");

    // And the reverse join: a second CLI run revives the store entry
    // instead of re-searching, reproducing the identical report.
    let again = cli_stdout(&[
        "--cache-dir",
        cache_dir.to_str().unwrap(),
        "schedule",
        spec_path.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(report, again);

    // Schedule-derived artifacts flow from the same store entry.
    let table_cli = cli_stdout(&[
        "--cache-dir",
        cache_dir.to_str().unwrap(),
        "table",
        spec_path.to_str().unwrap(),
    ]);
    let (status, table_http) = request(server.addr(), "POST", "/v1/table", &xml);
    assert_eq!(status, 200);
    assert_eq!(table_cli, table_http);

    server.stop();
}

#[test]
fn cache_dir_is_rejected_outside_the_artifact_commands() {
    let dir = TempDir::new("misuse");
    let spec_path = dir.path.join("spec.xml");
    std::fs::write(
        &spec_path,
        ezrealtime::dsl::to_xml(&ezrealtime::spec::corpus::small_control()),
    )
    .expect("spec file");
    let output = ezrt()
        .args([
            "--cache-dir",
            dir.path.to_str().unwrap(),
            "check",
            spec_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(!output.status.success());
    assert!(String::from_utf8(output.stderr)
        .unwrap()
        .contains("--cache-dir is only supported"));
}

#[test]
fn windowed_gantt_still_works_and_matches_the_default_window() {
    let dir = TempDir::new("gantt_window");
    let spec_path = dir.path.join("spec.xml");
    std::fs::write(
        &spec_path,
        ezrealtime::dsl::to_xml(&ezrealtime::spec::corpus::small_control()),
    )
    .expect("spec file");
    let spec_path = spec_path.to_str().unwrap();
    let default = cli_stdout(&["gantt", spec_path]);
    // small_control's hyperperiod is 20 < 120, so the default window is
    // [0, 20) — the explicit form must render the same bytes.
    let explicit = cli_stdout(&["gantt", spec_path, "0", "20"]);
    assert_eq!(default, explicit);
}

/// FNV-1a 64, the hash `perfbench/expected.txt` records artifact
/// digests with.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Golden bytes of the mine pump's PNML artifact: the digest recorded as
/// `fnv64.mine-pump.pnml` in `perfbench/expected.txt`, taken the way the
/// benchmark takes it (print the spec, parse it back, render), so a
/// plain `cargo test` catches byte drift in the PNML writer.
#[test]
fn mine_pump_pnml_artifact_matches_its_recorded_digest() {
    use ezrealtime::artifacts::{compute_outcome, project_digest, render, ArtifactKind};
    use ezrealtime::core::Project;

    let xml = Project::new(ezrealtime::spec::corpus::mine_pump()).to_dsl();
    let project = Project::from_dsl(&xml).expect("the mine pump parses");
    let outcome = compute_outcome(&project, project_digest(&project));
    let pnml = render(&outcome, ArtifactKind::Pnml).expect("the mine pump is feasible");
    assert_eq!(
        format!("{:016x}", fnv64(pnml.text.as_bytes())),
        "3ab0b786f3d5c0cc"
    );
}
