//! The disk cache tier: [`SynthesisOutcome`]s spilled to a directory as
//! versioned, length-prefixed, checksummed files keyed by the canonical
//! [`SpecDigest`] — so a restarted `ezrt serve`, a later one-shot CLI
//! run, or a CI fleet sharing one `--cache-dir` warm-starts without
//! re-searching.
//!
//! Robustness contract:
//!
//! * **Writes are atomic**: each entry is written to a process-unique
//!   temporary file in the same directory, then renamed over the final
//!   `<digest>.ezrtc` name. Concurrent writers of one digest race on
//!   the rename; whichever lands last wins, and both candidates are
//!   complete, valid files — a reader can never observe a half-written
//!   entry under the final name.
//! * **Loads are verified**: the envelope (magic, version tag,
//!   declared length, FNV-1a checksum — see [`ezrt_artifacts::codec`])
//!   is checked before any field is trusted, and the decoded digest
//!   must match the file's name. Truncated, corrupted, stale-version
//!   or misnamed files are ignored (counted in
//!   [`DiskStats::load_errors`]) and the caller re-synthesizes.
//! * **Errors are non-fatal**: a failed write (full disk, permissions)
//!   only bumps [`DiskStats::write_errors`]; the in-memory tier keeps
//!   serving.
//! * **The store is garbage-collected** (`--cache-max-bytes`): a
//!   [`sweep`](DiskTier::sweep) runs at open and, when a byte budget is
//!   configured, after every write. A sweep reaps stale temp files and
//!   misnamed `.ezrtc` entries unconditionally, then evicts the
//!   oldest-mtime entries until the store fits the budget (mtime is the
//!   write clock — loads never touch it, so this is write-age LRU).
//!   Sweeps from concurrent processes race benignly: removal of an
//!   already-removed file is not an error, and a reader that loses a
//!   file mid-load re-synthesizes exactly as it would for a clean miss.

use ezrt_artifacts::codec;
use ezrt_artifacts::{SpecDigest, SynthesisOutcome};
use ezrt_obs::Registry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// File extension of cache entries.
const ENTRY_EXTENSION: &str = "ezrtc";

/// How old (by mtime) a `.tmp-*` file must be before a sweep reaps it.
/// Live writers hold a temp file only for the instant between write and
/// rename; anything this stale belongs to a crashed process.
const TEMP_FILE_TTL: Duration = Duration::from_secs(120);

ezrt_obs::metric_table! {
    /// Counters of one [`DiskTier`], in `/v1/stats` order.
    pub struct DiskStats;
    struct DiskCells;
    loads: u64, Counter, Some("disk_loads"), "ezrt_disk_loads_total",
        "Disk-tier entries successfully loaded and decoded.";
    load_misses: u64, Counter, Some("disk_load_misses"), "ezrt_disk_load_misses_total",
        "Disk-tier lookups that found no file.";
    writes: u64, Counter, Some("disk_writes"), "ezrt_disk_writes_total",
        "Disk-tier entries successfully written.";
    load_errors: u64, Counter, Some("disk_load_errors"), "ezrt_disk_load_errors_total",
        "Disk-tier files that failed verification or decoding.";
    write_errors: u64, Counter, Some("disk_write_errors"), "ezrt_disk_write_errors_total",
        "Disk-tier writes that failed (ignored, memory tier keeps serving).";
    gc_evicted: u64, Counter, Some("disk_gc_evicted"), "ezrt_disk_gc_evicted_total",
        "Valid disk entries evicted by the byte-budget sweep.";
    gc_reaped: u64, Counter, Some("disk_gc_reaped"), "ezrt_disk_gc_reaped_total",
        "Stale temp files and misnamed entries reaped by sweeps.";
    gc_reclaimed_bytes: u64, Counter, Some("disk_gc_reclaimed_bytes"),
        "ezrt_disk_gc_reclaimed_bytes_total", "Total bytes reclaimed by disk-tier sweeps.";
}

/// A directory of persisted synthesis outcomes. See the
/// [module docs](self).
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    /// The byte budget the sweep enforces; `None` means unbounded (no
    /// after-write sweeps, reap-only at open).
    max_bytes: Option<u64>,
    /// Uniquifies temp-file names within this process.
    sequence: AtomicU64,
    cells: DiskCells,
}

impl DiskTier {
    /// Opens (creating if needed) `dir` as an unbounded cache
    /// directory. A reap-only sweep runs immediately (stale temp files,
    /// misnamed entries); no byte budget is enforced.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskTier, String> {
        DiskTier::open_with_budget(dir, None)
    }

    /// Opens `dir` with an optional byte budget (`--cache-max-bytes`):
    /// a full sweep runs immediately and again after every write, so
    /// the store never sits above `max_bytes` for longer than one
    /// write. `None` disables the budget (the [`open`](Self::open)
    /// behaviour).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the directory cannot be
    /// created.
    pub fn open_with_budget(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> Result<DiskTier, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|error| format!("cannot create cache dir {}: {error}", dir.display()))?;
        let tier = DiskTier {
            dir,
            max_bytes,
            sequence: AtomicU64::new(0),
            cells: DiskCells::default(),
        };
        tier.sweep();
        Ok(tier)
    }

    /// Registers the disk tier's counters, the GC sweep's included, in
    /// `registry` for Prometheus exposition.
    pub fn register_metrics(&self, registry: &Registry) {
        self.cells.register(registry);
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path an entry for `digest` lives at.
    pub fn entry_path(&self, digest: &SpecDigest) -> PathBuf {
        self.dir.join(format!("{digest}.{ENTRY_EXTENSION}"))
    }

    /// Loads and verifies the entry for `digest`. `None` means "behave
    /// as if the file did not exist" — absent, truncated, corrupt,
    /// stale-version and misnamed files all land here (the latter
    /// three bump [`DiskStats::load_errors`]).
    pub fn load(&self, digest: &SpecDigest) -> Option<SynthesisOutcome> {
        let bytes = match std::fs::read(self.entry_path(digest)) {
            Ok(bytes) => bytes,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                self.cells.load_misses.inc();
                return None;
            }
            Err(_) => {
                self.cells.load_errors.inc();
                return None;
            }
        };
        match codec::decode_file(&bytes) {
            Ok(outcome) if outcome.digest == *digest => {
                self.cells.loads.inc();
                Some(outcome)
            }
            Ok(_) | Err(_) => {
                // Misnamed (digest mismatch) or failed verification:
                // ignore and let the caller re-synthesize.
                self.cells.load_errors.inc();
                None
            }
        }
    }

    /// Persists `outcome` under its digest: write a temporary file,
    /// then rename it over the final name. Failures are counted, never
    /// propagated.
    pub fn store(&self, outcome: &SynthesisOutcome) {
        let unique = self.sequence.fetch_add(1, Ordering::Relaxed);
        let temp = self.dir.join(format!(
            ".tmp-{}-{}-{unique}",
            outcome.digest,
            std::process::id()
        ));
        let finish = std::fs::write(&temp, codec::encode_file(outcome))
            .and_then(|()| std::fs::rename(&temp, self.entry_path(&outcome.digest)));
        match finish {
            Ok(()) => {
                self.cells.writes.inc();
                // Keep the store inside its budget: GC after every
                // write (the sweep is a no-op scan when under budget).
                if self.max_bytes.is_some() {
                    self.sweep();
                }
            }
            Err(_) => {
                let _ = std::fs::remove_file(&temp);
                self.cells.write_errors.inc();
            }
        }
    }

    /// One garbage-collection pass over the directory:
    ///
    /// 1. reap `.tmp-*` files older than `TEMP_FILE_TTL` (crashed
    ///    writers) and `.ezrtc` files whose stem is not a digest
    ///    (misnamed entries a load would reject anyway);
    /// 2. when a byte budget is configured and the remaining valid
    ///    entries exceed it, evict oldest-mtime entries until the
    ///    store fits (write-age LRU — loads never touch mtime).
    ///
    /// Removal failures are ignored: a racing sweeper (another process
    /// on the shared directory) may have removed the file first, which
    /// is exactly the intended outcome.
    pub fn sweep(&self) {
        let Ok(listing) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let now = SystemTime::now();
        // Valid entries surviving the reap: (mtime, size, path).
        let mut entries: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        for entry in listing.filter_map(|entry| entry.ok()) {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let mtime = meta.modified().unwrap_or(now);
            if name.starts_with(".tmp-") {
                // A live writer holds its temp file only for the
                // write-then-rename instant; stale ones are debris.
                let age = now.duration_since(mtime).unwrap_or_default();
                if age >= TEMP_FILE_TTL {
                    self.reap(&path, meta.len());
                }
                continue;
            }
            let Some(stem) = name.strip_suffix(&format!(".{ENTRY_EXTENSION}")) else {
                continue; // not ours: leave foreign files alone
            };
            if SpecDigest::from_hex(stem).is_none() {
                self.reap(&path, meta.len());
                continue;
            }
            entries.push((mtime, meta.len(), path));
        }
        let Some(budget) = self.max_bytes else {
            return;
        };
        let mut total: u64 = entries.iter().map(|(_, len, _)| *len).sum();
        if total <= budget {
            return;
        }
        // Oldest writes go first; ties break on the path for
        // determinism across racing sweepers.
        entries.sort_by(|a, b| (a.0, &a.2).cmp(&(b.0, &b.2)));
        for (_, len, path) in entries {
            if total <= budget {
                break;
            }
            total = total.saturating_sub(len);
            if std::fs::remove_file(&path).is_ok() {
                self.cells.gc_evicted.inc();
                self.cells.gc_reclaimed_bytes.add(len);
            }
        }
    }

    /// Removes one reap candidate, counting it when the removal stuck.
    fn reap(&self, path: &Path, len: u64) {
        if std::fs::remove_file(path).is_ok() {
            self.cells.gc_reaped.inc();
            self.cells.gc_reclaimed_bytes.add(len);
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> DiskStats {
        self.cells.snapshot(|_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_artifacts::compute_outcome;
    use ezrt_artifacts::digest::project_digest;
    use ezrt_core::Project;
    use ezrt_spec::corpus::small_control;

    fn temp_tier(name: &str) -> DiskTier {
        let dir =
            std::env::temp_dir().join(format!("ezrt_disk_unit_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiskTier::open(dir).expect("tier opens")
    }

    #[test]
    fn store_then_load_round_trips() {
        let tier = temp_tier("roundtrip");
        let project = Project::new(small_control());
        let digest = project_digest(&project);
        assert!(tier.load(&digest).is_none());
        assert_eq!(tier.stats().load_misses, 1);

        let outcome = compute_outcome(&project, digest);
        tier.store(&outcome);
        let loaded = tier.load(&digest).expect("entry loads");
        assert_eq!(loaded.digest, digest);
        assert_eq!(loaded.fields, outcome.fields);
        let stats = tier.stats();
        assert_eq!((stats.writes, stats.loads, stats.load_errors), (1, 1, 0));
        let _ = std::fs::remove_dir_all(tier.dir());
    }

    /// Writes `len` bytes at `path` with an mtime `age` in the past.
    fn backdated_file(path: &Path, len: usize, age: Duration) {
        std::fs::write(path, vec![0u8; len]).expect("write");
        let file = std::fs::File::options()
            .write(true)
            .open(path)
            .expect("reopen");
        let mtime = SystemTime::now() - age;
        file.set_times(std::fs::FileTimes::new().set_modified(mtime))
            .expect("set mtime");
    }

    #[test]
    fn budget_sweep_evicts_oldest_writes_first() {
        let dir = std::env::temp_dir().join(format!("ezrt_disk_unit_{}_gc", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Four 100-byte entries, oldest first; budget fits two.
        let mut paths = Vec::new();
        for (index, spec) in [b"a", b"b", b"c", b"d"].iter().enumerate() {
            let digest = SpecDigest::of(*spec);
            let path = dir.join(format!("{digest}.{ENTRY_EXTENSION}"));
            backdated_file(&path, 100, Duration::from_secs(400 - 100 * index as u64));
            paths.push(path);
        }
        let tier = DiskTier::open_with_budget(&dir, Some(250)).expect("tier opens");
        let stats = tier.stats();
        assert_eq!(stats.gc_evicted, 2, "oldest two evicted to fit 250 bytes");
        assert_eq!(stats.gc_reclaimed_bytes, 200);
        assert!(!paths[0].exists() && !paths[1].exists(), "oldest gone");
        assert!(paths[2].exists() && paths[3].exists(), "newest survive");
        let _ = std::fs::remove_dir_all(tier.dir());
    }

    #[test]
    fn sweep_reaps_stale_temps_and_misnamed_entries_only() {
        let dir = std::env::temp_dir().join(format!("ezrt_disk_unit_{}_reap", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let stale_temp = dir.join(".tmp-deadbeef-1-0");
        backdated_file(&stale_temp, 10, TEMP_FILE_TTL + Duration::from_secs(1));
        let fresh_temp = dir.join(".tmp-deadbeef-1-1");
        std::fs::write(&fresh_temp, b"live writer").expect("write");
        let misnamed = dir.join(format!("not-a-digest.{ENTRY_EXTENSION}"));
        std::fs::write(&misnamed, b"junk").expect("write");
        let foreign = dir.join("README.txt");
        std::fs::write(&foreign, b"not ours").expect("write");

        let tier = DiskTier::open(&dir).expect("tier opens");
        let stats = tier.stats();
        assert_eq!(stats.gc_reaped, 2, "stale temp + misnamed entry");
        assert_eq!(stats.gc_evicted, 0, "no budget, no evictions");
        assert!(!stale_temp.exists() && !misnamed.exists());
        assert!(
            fresh_temp.exists() && foreign.exists(),
            "live temps and foreign files are left alone"
        );
        let _ = std::fs::remove_dir_all(tier.dir());
    }

    #[test]
    fn after_write_sweep_keeps_the_store_inside_budget() {
        let dir = std::env::temp_dir().join(format!("ezrt_disk_unit_{}_wgc", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // One real entry is a few hundred bytes; a 1-byte budget means
        // every write immediately evicts something (possibly itself).
        let tier = DiskTier::open_with_budget(&dir, Some(1)).expect("tier opens");
        let project = Project::new(small_control());
        let digest = project_digest(&project);
        tier.store(&compute_outcome(&project, digest));
        let stats = tier.stats();
        assert_eq!((stats.writes, stats.gc_evicted), (1, 1));
        assert!(
            !tier.entry_path(&digest).exists(),
            "over-budget entry evicted"
        );
        let _ = std::fs::remove_dir_all(tier.dir());
    }

    #[test]
    fn misnamed_entries_are_ignored() {
        let tier = temp_tier("misnamed");
        let project = Project::new(small_control());
        let digest = project_digest(&project);
        let outcome = compute_outcome(&project, digest);
        tier.store(&outcome);
        // Copy the valid entry under a different digest's name.
        let other = SpecDigest::of(b"some other spec entirely");
        std::fs::copy(tier.entry_path(&digest), tier.entry_path(&other)).expect("copy");
        assert!(tier.load(&other).is_none(), "digest mismatch is corrupt");
        assert_eq!(tier.stats().load_errors, 1);
        let _ = std::fs::remove_dir_all(tier.dir());
    }
}
