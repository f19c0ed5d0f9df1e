//! The disk-cache codec: a versioned, length-prefixed, checksummed
//! byte format for [`SynthesisOutcome`] values.
//!
//! Only the irreducible results are serialized — the spec (as its
//! canonical XML DSL), the firing schedule (transition index + delay
//! per firing), the search counters and the pre-rendered report fields.
//! Decoding translates the spec once, for the replay gate, and hands
//! that net to the revived [`Solution`]; so a decoded outcome renders
//! byte-identical artifacts to the original (`tests/corpus.rs`).
//!
//! File layout:
//!
//! ```text
//! magic     8 bytes   b"EZRTCHE\0"
//! version   u32 LE    FORMAT_VERSION
//! length    u64 LE    payload byte count
//! payload   …         the encoded outcome
//! checksum  u64 LE    FNV-1a/64 of the payload
//! ```
//!
//! Decoding is strict: a wrong magic, a stale version, a truncated
//! payload, a checksum mismatch or any malformed field yields an error
//! (never a partial outcome), and the disk tier treats every error the
//! same way — ignore the file and re-synthesize.

use crate::digest::SpecDigest;
use crate::outcome::{RenderMemo, SynthesisOutcome};
use crate::report;
use ezrt_compose::translate;
use ezrt_core::Solution;
use ezrt_scheduler::{FeasibleSchedule, ScheduledFiring, SearchStats};
use ezrt_tpn::TransitionId;
use std::fmt;
use std::time::Duration;

/// The on-disk magic prefix.
pub const MAGIC: &[u8; 8] = b"EZRTCHE\0";

/// The format version; bump on any encoding change so older files are
/// discarded (and re-synthesized) instead of misread. Version 2 added
/// the incremental-synthesis counters (`incr_*`) to the stats block and
/// the sub-digest report fields; version 3 added the partial-order
/// reduction counters (`por_*`); version 4 writes the stats block as a
/// fingerprint of the counter table, one `u64` per
/// [`SearchStats::COUNTERS`] entry in table order, then the elapsed
/// nanoseconds, and failure reports carry every counter. The
/// fingerprint rejects a file written under another table, so adding a
/// counter needs no bump here.
pub const FORMAT_VERSION: u32 = 4;

/// Why a cache file could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The file ends before the declared length.
    Truncated,
    /// The magic prefix is not [`MAGIC`].
    BadMagic,
    /// The version tag differs from [`FORMAT_VERSION`].
    StaleVersion(u32),
    /// The payload checksum does not match its contents.
    BadChecksum,
    /// A structurally invalid payload (bad tag, unknown field key,
    /// out-of-range transition index, unparsable spec, …).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated cache file"),
            CodecError::BadMagic => write!(f, "not an ezrt cache file (bad magic)"),
            CodecError::StaleVersion(found) => {
                write!(
                    f,
                    "stale format version {found} (expected {FORMAT_VERSION})"
                )
            }
            CodecError::BadChecksum => write!(f, "payload checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes `outcome` into a complete cache file (envelope + payload).
pub fn encode_file(outcome: &SynthesisOutcome) -> Vec<u8> {
    let payload = encode_payload(outcome);
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&SpecDigest::of(&payload).fnv64().to_le_bytes());
    out
}

/// Decodes a complete cache file back into an outcome.
///
/// # Errors
///
/// Returns the specific [`CodecError`]; callers that only need the
/// ignore-and-resynthesize behaviour can treat every variant alike.
pub fn decode_file(bytes: &[u8]) -> Result<SynthesisOutcome, CodecError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(CodecError::Truncated);
    }
    let (magic, rest) = bytes.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let (version, rest) = rest.split_at(4);
    let version = u32::from_le_bytes(version.try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CodecError::StaleVersion(version));
    }
    let (length, rest) = rest.split_at(8);
    let length = u64::from_le_bytes(length.try_into().expect("8 bytes")) as usize;
    if rest.len() < length + 8 {
        return Err(CodecError::Truncated);
    }
    let (payload, tail) = rest.split_at(length);
    let checksum = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
    if SpecDigest::of(payload).fnv64() != checksum {
        return Err(CodecError::BadChecksum);
    }
    decode_payload(payload)
}

fn encode_payload(outcome: &SynthesisOutcome) -> Vec<u8> {
    let mut w = Writer::default();
    w.u128(outcome.digest.fnv128());
    w.u64(outcome.digest.fnv64());
    w.u8(u8::from(outcome.feasible));
    w.u8(match outcome.replay_ok {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    w.opt_str(outcome.error.as_deref());

    w.u32(outcome.fields.len() as u32);
    for (key, value) in &outcome.fields {
        w.str(key);
        w.str(value);
    }

    w.u64(counter_layout());
    for counter in SearchStats::COUNTERS {
        w.u64((counter.get)(&outcome.stats));
    }
    w.u128(outcome.stats.elapsed.as_nanos());

    match &outcome.solution {
        None => w.u8(0),
        Some(solution) => {
            w.u8(1);
            w.str(&ezrt_dsl::to_xml(solution.spec()));
            let firings = solution.schedule().firings();
            w.u32(firings.len() as u32);
            for firing in firings {
                w.u32(firing.transition.index() as u32);
                w.u64(firing.delay);
            }
        }
    }
    w.bytes
}

fn decode_payload(payload: &[u8]) -> Result<SynthesisOutcome, CodecError> {
    let mut r = Reader { bytes: payload };
    let digest = SpecDigest::from_halves(r.u128()?, r.u64()?);
    let feasible = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(malformed(format!("feasible flag {other}"))),
    };
    let replay_ok = match r.u8()? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        other => return Err(malformed(format!("replay verdict {other}"))),
    };
    let error = r.opt_str()?;

    let field_count = r.u32()? as usize;
    let mut fields = Vec::with_capacity(field_count.min(64));
    for _ in 0..field_count {
        let key = r.str()?;
        let key = report::static_key(&key)
            .ok_or_else(|| malformed(format!("unknown field key {key:?}")))?;
        fields.push((key, r.str()?));
    }

    if r.u64()? != counter_layout() {
        return Err(malformed(
            "written under another search counter table".to_owned(),
        ));
    }
    let mut stats = SearchStats::default();
    for counter in SearchStats::COUNTERS {
        (counter.set)(&mut stats, r.u64()?);
    }
    stats.elapsed = duration_from_nanos(r.u128()?);

    let solution = match r.u8()? {
        0 => None,
        1 => {
            let document = r.str()?;
            let spec = ezrt_dsl::from_xml(&document)
                .map_err(|e| malformed(format!("embedded spec: {e}")))?;
            // Roles and absolute times are deterministic functions of
            // the translated net and the delay sequence, so only
            // (transition, delay) pairs are stored.
            let tasknet = translate(&spec);
            let transition_count = tasknet.net().transition_count();
            let firing_count = r.u32()? as usize;
            let mut firings = Vec::with_capacity(firing_count.min(1 << 16));
            let mut at = 0u64;
            for _ in 0..firing_count {
                let index = r.u32()? as usize;
                if index >= transition_count {
                    return Err(malformed(format!("transition index {index}")));
                }
                let delay = r.u64()?;
                at = at
                    .checked_add(delay)
                    .ok_or_else(|| malformed("firing time overflow".to_owned()))?;
                let transition = TransitionId::from_index(index);
                firings.push(ScheduledFiring {
                    transition,
                    role: tasknet.role(transition),
                    delay,
                    at,
                });
            }
            let schedule = FeasibleSchedule::from_firings(firings);
            // The checksum only guards against accidental corruption;
            // feasibility is re-established semantically: the decoded
            // schedule must replay cleanly through the net-semantics
            // oracle, so no byte pattern can revive an infeasible
            // "feasible" outcome into rendered tables or C code.
            let replayed = ezrt_sim::replay::replay(&tasknet, &schedule)
                .map_err(|error| malformed(format!("schedule fails replay: {error}")))?;
            if replayed.firings != schedule.firings().len() {
                return Err(malformed(format!(
                    "schedule fails replay: it runs past the final marking at step {}",
                    replayed.firings
                )));
            }
            Some(Solution::new(spec, tasknet, schedule))
        }
        other => return Err(malformed(format!("solution flag {other}"))),
    };
    if feasible != solution.is_some() {
        return Err(malformed("feasible flag contradicts solution".to_owned()));
    }
    if !r.bytes.is_empty() {
        return Err(malformed(format!("{} trailing bytes", r.bytes.len())));
    }
    Ok(SynthesisOutcome {
        digest,
        feasible,
        error,
        fields,
        stats,
        // Only cacheable outcomes are written.
        cacheable: true,
        replay_ok,
        solution,
        rendered: RenderMemo::default(),
    })
}

/// A fingerprint of the counter table's field names, in order. It heads
/// the stats block, so a file written under another table is rejected
/// instead of misread, without a version bump.
fn counter_layout() -> u64 {
    let names: Vec<&str> = SearchStats::COUNTERS.iter().map(|c| c.field).collect();
    SpecDigest::of(names.join(",").as_bytes()).fnv64()
}

fn malformed(what: String) -> CodecError {
    CodecError::Malformed(what)
}

fn duration_from_nanos(nanos: u128) -> Duration {
    let secs = (nanos / 1_000_000_000) as u64;
    let subsec = (nanos % 1_000_000_000) as u32;
    Duration::new(secs, subsec)
}

#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, value: u8) {
        self.bytes.push(value);
    }
    fn u32(&mut self, value: u32) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }
    fn u64(&mut self, value: u64) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }
    fn u128(&mut self, value: u128) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }
    fn str(&mut self, text: &str) {
        self.u32(text.len() as u32);
        self.bytes.extend_from_slice(text.as_bytes());
    }
    fn opt_str(&mut self, text: Option<&str>) {
        match text {
            None => self.u8(0),
            Some(text) => {
                self.u8(1);
                self.str(text);
            }
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl Reader<'_> {
    fn take(&mut self, count: usize) -> Result<&[u8], CodecError> {
        if self.bytes.len() < count {
            return Err(CodecError::Truncated);
        }
        let (taken, rest) = self.bytes.split_at(count);
        self.bytes = rest;
        Ok(taken)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }
    fn str(&mut self) -> Result<String, CodecError> {
        let length = self.u32()? as usize;
        String::from_utf8(self.take(length)?.to_vec())
            .map_err(|_| malformed("non-UTF-8 string".to_owned()))
    }
    fn opt_str(&mut self) -> Result<Option<String>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            other => Err(malformed(format!("option flag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::project_digest;
    use crate::outcome::compute_outcome;
    use ezrt_core::Project;
    use ezrt_spec::corpus::small_control;

    fn encoded_small_control() -> (SynthesisOutcome, Vec<u8>) {
        let project = Project::new(small_control());
        let outcome = compute_outcome(&project, project_digest(&project));
        let bytes = encode_file(&outcome);
        (outcome, bytes)
    }

    #[test]
    fn outcomes_round_trip() {
        let (original, bytes) = encoded_small_control();
        let decoded = decode_file(&bytes).expect("decodes");
        assert_eq!(decoded.digest, original.digest);
        assert_eq!(decoded.feasible, original.feasible);
        assert_eq!(decoded.error, original.error);
        assert_eq!(decoded.fields, original.fields);
        assert_eq!(decoded.stats, original.stats);
        assert_eq!(decoded.replay_ok, original.replay_ok);
        let (a, b) = (
            original.solution.as_ref().unwrap(),
            decoded.solution.as_ref().unwrap(),
        );
        assert_eq!(a.spec(), b.spec());
        assert_eq!(a.schedule(), b.schedule());
    }

    #[test]
    fn every_counter_keeps_its_own_slot() {
        // Distinct nonzero values: two swapped slots cannot round-trip.
        let (mut original, _) = encoded_small_control();
        for (slot, counter) in SearchStats::COUNTERS.iter().enumerate() {
            (counter.set)(&mut original.stats, 1_000 + slot as u64);
        }
        original.stats.elapsed = Duration::new(3, 456_789);
        let decoded = decode_file(&encode_file(&original)).expect("decodes");
        assert_eq!(decoded.stats, original.stats);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let (_, bytes) = encoded_small_control();
        // Every strict prefix fails — never panics, never half-decodes.
        for cut in [0, 7, 8, 12, 19, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_file(&bytes[..cut]).is_err(), "prefix of {cut}");
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_are_distinct_errors() {
        let (_, bytes) = encoded_small_control();
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(decode_file(&bad_magic).err(), Some(CodecError::BadMagic));

        for version in [3, FORMAT_VERSION + 1] {
            let mut stale = bytes.clone();
            stale[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_file(&stale).err(),
                Some(CodecError::StaleVersion(version))
            );
        }

        let mut corrupt = bytes.clone();
        let mid = 20 + (bytes.len() - 28) / 2;
        corrupt[mid] ^= 0xff;
        assert_eq!(decode_file(&corrupt).err(), Some(CodecError::BadChecksum));
    }

    #[test]
    fn a_valid_envelope_with_a_bogus_schedule_fails_the_replay_gate() {
        use ezrt_compose::TransitionRole;
        use ezrt_scheduler::ScheduledFiring;
        use ezrt_tpn::TransitionId;

        // A structurally valid file (correct magic/version/checksum)
        // whose embedded schedule is semantically nonsense must still
        // be rejected — the replay oracle, not the checksum, is the
        // feasibility gate.
        let (original, _) = encoded_small_control();
        let solution = original.solution.as_ref().unwrap();
        let nonsense = vec![ScheduledFiring {
            transition: TransitionId::from_index(0),
            role: TransitionRole::Fork,
            delay: 999,
            at: 999,
        }];
        // The real schedule with one firing too many: the run reaches
        // the final marking and does not end there.
        let mut overlong = solution.schedule().firings().to_vec();
        overlong.push(overlong[0]);
        for firings in [nonsense, overlong] {
            let bogus = SynthesisOutcome {
                digest: original.digest,
                feasible: true,
                error: None,
                fields: original.fields.clone(),
                stats: original.stats.clone(),
                cacheable: true,
                replay_ok: Some(true),
                solution: Some(Solution::new(
                    solution.spec().clone(),
                    solution.tasknet().clone(),
                    FeasibleSchedule::from_firings(firings),
                )),
                rendered: RenderMemo::default(),
            };
            let error = decode_file(&encode_file(&bogus)).expect_err("replay gate rejects");
            assert!(
                matches!(&error, CodecError::Malformed(what) if what.contains("replay")),
                "{error}"
            );
        }
    }

    #[test]
    fn infeasible_outcomes_round_trip_without_a_solution() {
        use ezrt_spec::SpecBuilder;
        let overload = SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap();
        let project = Project::new(overload);
        let outcome = compute_outcome(&project, project_digest(&project));
        let decoded = decode_file(&encode_file(&outcome)).expect("decodes");
        assert!(!decoded.feasible);
        assert_eq!(decoded.error, outcome.error);
        assert!(decoded.solution.is_none());
        assert_eq!(decoded.fields, outcome.fields);
    }
}
