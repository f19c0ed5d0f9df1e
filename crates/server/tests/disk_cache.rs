//! Robustness tests for the disk cache tier: every way a cache file can
//! be damaged — truncation, flipped bytes, a stale version tag — must
//! fall back to a clean re-synthesis (counters prove it), concurrent
//! writers on one directory must never corrupt each other, and a
//! restarted server sharing a `--cache-dir` must warm-start with zero
//! synthesis calls.

use ezrt_artifacts::{compute_outcome, project_digest};
use ezrt_server::cache::{Lookup, ResultCache};
use ezrt_server::disk::DiskTier;
use ezrt_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ezrt_disk_cache_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_control_project() -> ezrt_core::Project {
    ezrt_core::Project::new(ezrt_spec::corpus::small_control())
}

/// A cache with a disk tier over `dir`, 1 shard for determinism.
fn disk_cache(dir: &Path) -> ResultCache {
    ResultCache::with_disk(64, 1, Some(DiskTier::open(dir).expect("tier opens")))
}

/// Synthesizes small_control through `cache`, returning the lookup kind.
fn drive(cache: &ResultCache) -> Lookup {
    let project = small_control_project();
    let digest = project_digest(&project);
    let (outcome, lookup) = cache.get_or_compute(digest, || compute_outcome(&project, digest));
    assert_eq!(outcome.digest, digest);
    assert!(outcome.feasible);
    lookup
}

/// The path of small_control's cache entry under `dir`.
fn entry_path(dir: &Path) -> PathBuf {
    DiskTier::open(dir)
        .expect("tier opens")
        .entry_path(&project_digest(&small_control_project()))
}

#[test]
fn a_second_cache_over_the_same_dir_revives_without_synthesizing() {
    let dir = temp_dir("revive");
    let first = disk_cache(&dir);
    assert_eq!(drive(&first), Lookup::Miss);
    assert_eq!(first.stats().misses, 1);
    assert_eq!(first.disk_stats().unwrap().writes, 1);

    // A fresh cache (a "restarted process") finds the entry on disk.
    let second = disk_cache(&dir);
    assert_eq!(drive(&second), Lookup::Disk);
    let stats = second.stats();
    assert_eq!(stats.misses, 0, "zero syntheses on the warm start");
    assert_eq!(stats.disk_hits, 1);
    // And the revived entry is now a plain memory hit.
    assert_eq!(drive(&second), Lookup::Hit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entries_fall_back_to_resynthesis() {
    let dir = temp_dir("truncated");
    assert_eq!(drive(&disk_cache(&dir)), Lookup::Miss);
    let path = entry_path(&dir);
    let bytes = std::fs::read(&path).expect("entry exists");
    for cut in [0, 10, 19, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        let cache = disk_cache(&dir);
        assert_eq!(drive(&cache), Lookup::Miss, "prefix of {cut} bytes");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.disk_hits), (1, 0), "cut={cut}");
        assert!(
            cache.disk_stats().unwrap().load_errors >= 1,
            "cut={cut}: the damaged file must be counted"
        );
        // The re-synthesis rewrote a valid entry; damage it again for
        // the next round (the loop reuses the original bytes).
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_payload_bytes_fail_the_checksum_and_resynthesize() {
    let dir = temp_dir("checksum");
    assert_eq!(drive(&disk_cache(&dir)), Lookup::Miss);
    let path = entry_path(&dir);
    let mut bytes = std::fs::read(&path).expect("entry exists");
    let mid = 20 + (bytes.len() - 28) / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).expect("corrupt");

    let cache = disk_cache(&dir);
    assert_eq!(drive(&cache), Lookup::Miss, "checksum mismatch re-misses");
    assert_eq!(cache.disk_stats().unwrap().load_errors, 1);
    // The clean rewrite is loadable again.
    let after = disk_cache(&dir);
    assert_eq!(drive(&after), Lookup::Disk);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_version_tags_are_ignored_and_resynthesized() {
    let dir = temp_dir("version");
    assert_eq!(drive(&disk_cache(&dir)), Lookup::Miss);
    let path = entry_path(&dir);
    let mut bytes = std::fs::read(&path).expect("entry exists");
    // The version tag is the u32 right after the 8-byte magic; 3 is the
    // format before the counter table.
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    std::fs::write(&path, &bytes).expect("stale version");
    assert_eq!(
        ezrt_artifacts::codec::decode_file(&bytes).err(),
        Some(ezrt_artifacts::codec::CodecError::StaleVersion(3))
    );

    let cache = disk_cache(&dir);
    assert_eq!(drive(&cache), Lookup::Miss, "stale version re-misses");
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.disk_hits), (1, 0));
    assert_eq!(cache.disk_stats().unwrap().load_errors, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_on_one_dir_never_corrupt_the_entry() {
    let dir = temp_dir("writers");
    std::fs::create_dir_all(&dir).expect("dir");
    // Eight independent caches (as eight processes would be), all
    // synthesizing the same spec into one directory at once.
    let writers = 8;
    let barrier = std::sync::Barrier::new(writers);
    std::thread::scope(|scope| {
        for _ in 0..writers {
            scope.spawn(|| {
                let cache = disk_cache(&dir);
                barrier.wait();
                // Each independent cache either synthesizes itself or
                // revives a finished peer's entry — both are valid.
                assert!(matches!(drive(&cache), Lookup::Miss | Lookup::Disk));
            });
        }
    });
    // Whatever interleaving happened, the surviving file is valid.
    let survivor = disk_cache(&dir);
    assert_eq!(drive(&survivor), Lookup::Disk);
    assert_eq!(survivor.disk_stats().unwrap().load_errors, 0);
    // No temp files leaked.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_name().to_string_lossy().starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Synthesizes an arbitrary spec through `cache`, returning the lookup.
fn drive_spec(cache: &ResultCache, spec: ezrt_spec::EzSpec) -> Lookup {
    let project = ezrt_core::Project::new(spec);
    let digest = project_digest(&project);
    let (outcome, lookup) = cache.get_or_compute(digest, || compute_outcome(&project, digest));
    assert_eq!(outcome.digest, digest);
    lookup
}

/// Total size of the `.ezrtc` entries under `dir`.
fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "ezrtc"))
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum()
}

#[test]
fn budgeted_concurrent_writers_keep_the_store_inside_the_byte_budget() {
    let specs: [fn() -> ezrt_spec::EzSpec; 5] = [
        ezrt_spec::corpus::small_control,
        ezrt_spec::corpus::mine_pump,
        ezrt_spec::corpus::figure3_spec,
        ezrt_spec::corpus::figure4_spec,
        ezrt_spec::corpus::figure8_spec,
    ];

    // Measure the five entries once, unbudgeted, to pick a budget that
    // holds the largest entry but not the whole corpus.
    let scratch = temp_dir("gc_scratch");
    let sizer = disk_cache(&scratch);
    let mut largest = 0;
    for spec in specs {
        drive_spec(&sizer, spec());
    }
    for entry in std::fs::read_dir(&scratch).expect("read dir").flatten() {
        largest = largest.max(entry.metadata().expect("metadata").len());
    }
    let total = store_bytes(&scratch);
    let budget = largest.max(total / 2);
    assert!(budget < total, "the budget must force evictions");
    let _ = std::fs::remove_dir_all(&scratch);

    // Five budgeted writers (as five processes would be), each writing
    // a different spec into one directory, every write followed by a
    // sweep racing the other writers' sweeps.
    let dir = temp_dir("gc_writers");
    std::fs::create_dir_all(&dir).expect("dir");
    let barrier = std::sync::Barrier::new(specs.len());
    let gc_evicted: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                scope.spawn(|| {
                    let tier = DiskTier::open_with_budget(&dir, Some(budget)).expect("tier opens");
                    let cache = ResultCache::with_disk(64, 1, Some(tier));
                    barrier.wait();
                    assert!(matches!(
                        drive_spec(&cache, spec()),
                        Lookup::Miss | Lookup::Disk
                    ));
                    cache.disk_stats().unwrap().gc_evicted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer")).sum()
    });

    // Whatever interleaving of writes and sweeps happened: the store is
    // inside the budget, somebody evicted, no temp files leaked, and
    // every surviving entry is intact.
    assert!(
        store_bytes(&dir) <= budget,
        "store {} > budget {budget}",
        store_bytes(&dir)
    );
    assert!(gc_evicted >= 1, "the budget must have forced an eviction");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_name().to_string_lossy().starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let survivor = disk_cache(&dir);
    for spec in specs {
        // Evicted entries re-miss; survivors revive. Neither may be a
        // load error (a sweep must never leave a torn file behind).
        assert!(matches!(
            drive_spec(&survivor, spec()),
            Lookup::Miss | Lookup::Disk
        ));
    }
    assert_eq!(survivor.disk_stats().unwrap().load_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Minimal `Connection: close` HTTP client (same shape as loopback.rs).
fn request(addr: std::net::SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
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

fn field<'a>(body: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\": ");
    let start = body
        .find(&marker)
        .unwrap_or_else(|| panic!("missing {key} in {body}"))
        + marker.len();
    let rest = &body[start..];
    let end = rest.find('\n').unwrap_or(rest.len());
    rest[..end].trim_end().trim_end_matches(',')
}

#[test]
fn a_restarted_server_warm_starts_from_the_cache_dir() {
    let dir = temp_dir("warm_restart");
    let config = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let xml = ezrt_dsl::to_xml(&ezrt_spec::corpus::small_control());

    // First boot: synthesize and persist.
    let first = Server::start("127.0.0.1:0", config()).expect("first boot");
    let (status, body) = request(first.addr(), "POST", "/v1/schedule", &xml);
    assert_eq!(status, 200);
    assert_eq!(field(&body, "cache"), "\"miss\"");
    let digest = field(&body, "spec_digest").trim_matches('"').to_owned();
    first.stop();

    // Second boot over the same directory: the spec is served from the
    // disk tier — zero synthesis calls, `misses == 0` in /v1/stats.
    let second = Server::start("127.0.0.1:0", config()).expect("second boot");
    let (status, warm) = request(second.addr(), "POST", "/v1/schedule", &xml);
    assert_eq!(status, 200);
    assert_eq!(field(&warm, "cache"), "\"disk\"");
    // The response carries the original run's fields, byte-identical
    // modulo the cache provenance marker.
    assert_eq!(
        body.replace("\"cache\": \"miss\"", ""),
        warm.replace("\"cache\": \"disk\"", "")
    );
    // Artifacts of the digest are servable without ever posting the
    // spec to this server instance.
    let (status, table) = request(
        second.addr(),
        "GET",
        &format!("/v1/artifact/{digest}/table"),
        "",
    );
    assert_eq!(status, 200);
    assert!(
        table.starts_with("struct ScheduleItem scheduleTable"),
        "{table}"
    );

    let (_, stats) = request(second.addr(), "GET", "/v1/stats", "");
    assert_eq!(field(&stats, "cache_misses"), "0", "{stats}");
    let disk_hits: u64 = field(&stats, "cache_disk_hits").parse().expect("number");
    assert!(disk_hits >= 1, "{stats}");
    second.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
