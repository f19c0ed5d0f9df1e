//! The `serve_edit` workload: an edit loop against the service, started
//! in process (`Server::start`, two connection workers, a disk tier in a
//! fresh directory) and driven over two keep-alive connections.
//!
//! * The **reader** runs an open loop at [`READ_RATE`] requests per
//!   second: re-posts of resident specs (memory hits), conditional
//!   artifact GETs (304), full-body artifact GETs (rendered tier) and
//!   health probes. Each read is timed from when it was due, so a stall
//!   also charges the reads queued behind it.
//! * The **writer** runs a closed loop of seeded local edits of the
//!   resident specs (misses that warm-start through the ancestor index);
//!   every [`PROOF_EVERY`]th write is a renamed 10-task infeasibility
//!   proof, a ~1 s miss.
//!
//! The traffic is provisional. The repository has no recorded access
//! log or documented usage pattern to derive it from, so the read rate,
//! the read shares and the write cycle below are assumptions, held
//! fixed so that runs and commits compare; they are not a measured
//! workload.

use crate::check::{check_compiled, reference_verdict, Expected, Oracle};
use crate::compile::{compile, kind_name, Compiled};
use crate::http::{parse_stats, share, stats_delta, Client, Response};
use crate::inputs::{families, family_instance, local_edit, proof_specs, renamed, Rng, SpecInput};
use crate::inputs::{FAMILY_STATES, PUMP_EDIT_STATES};
use crate::stats::Samples;
use crate::trace::Tracer;
use ezrt_artifacts::{codec, ArtifactKind, SpecDigest};
use ezrt_artifacts::{compute_outcome, compute_outcome_incremental, project_digest};
use ezrt_core::Project;
use ezrt_server::{ResultCache, Server, ServerConfig};
use ezrt_spec::corpus::mine_pump;
use ezrt_spec::generate::Family;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Reads per second offered by the open-loop reader (an assumption, see
/// the module documentation; lowered from 200 because the read tail at
/// 200 varied too much between runs, not to match real use).
pub const READ_RATE: f64 = 50.0;
/// Every this many writes, one is an infeasibility proof (an
/// assumption).
pub const PROOF_EVERY: usize = 8;
/// Connection workers of the service under test.
pub const WORKERS: usize = 2;
/// The proof the writer posts (renamed per post, so each is a miss).
const PROOF: &str = "sweep10_u0.95";
/// Writes generated up front (about 30 s of writing on a 2-core host).
const WRITES: usize = 288;
/// The artifact kinds full-body reads fetch.
const READ_KINDS: [ArtifactKind; 4] = [
    ArtifactKind::Table,
    ArtifactKind::Codegen(ezrt_codegen::Target::PosixSim),
    ArtifactKind::Gantt,
    ArtifactKind::Pnml,
];

/// A spec the service holds from warm-up on, with the bytes every
/// artifact read of it must return.
struct Resident {
    input: SpecInput,
    digest: SpecDigest,
    compiled: Compiled,
}

/// One write: the document, and the resident it edits (`None` for a
/// proof).
struct Write {
    input: SpecInput,
    base: Option<usize>,
}

/// The seeded inputs of one run: the resident specs (with the bytes
/// their reads must return) and the writes, in order.
pub struct Inputs {
    residents: Vec<Resident>,
    writes: Vec<Write>,
    seed: u64,
}

/// A running service over `inputs`.
pub struct Setup<'a> {
    server: Server,
    dir: PathBuf,
    inputs: &'a Inputs,
}

static DIRS: AtomicUsize = AtomicUsize::new(0);

/// Generates the resident specs and [`WRITES`] distinct writes. Edits
/// are screened by their search size (see [`local_edit`]), so this is
/// most of the workload's set-up time.
pub fn generate(seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed);
    let resident = |input: SpecInput| -> Result<Resident, String> {
        let compiled = compile(&input.xml, 1, None)?;
        Ok(Resident {
            digest: compiled.digest,
            input,
            compiled,
        })
    };
    let mut residents = vec![resident(SpecInput::new("mine-pump", &mine_pump()))?];
    // Near-harmonic instances search thousands of states where the other
    // families search tens, so their edits would put a seed-dependent
    // tail under the median write; the service's residents skip them.
    let small = |family: &&Family| !matches!(family, Family::NearHarmonic { .. });
    for family in families().iter().filter(small) {
        // Residents serve every artifact, so each must be feasible.
        loop {
            let spec = family_instance(family, &mut rng);
            let candidate = resident(SpecInput::new(spec.name(), &spec))?;
            if candidate.compiled.outcome.feasible {
                residents.push(candidate);
                break;
            }
        }
    }
    let proof = proof_specs()
        .into_iter()
        .find(|(label, _)| label == PROOF)
        .expect("the proof set holds the writer's proof")
        .1;
    let mut writes = Vec::with_capacity(WRITES);
    let mut seen = HashSet::new();
    // An identity edit (dropping a relation of a relation-free spec)
    // would re-post a resident, so residents count as seen too.
    let mut seen_documents: HashSet<String> =
        residents.iter().map(|r| r.input.xml.clone()).collect();
    while writes.len() < WRITES {
        let i = writes.len();
        if i % PROOF_EVERY == PROOF_EVERY - 1 {
            writes.push(Write {
                input: renamed(&proof, &format!("{PROOF}-{seed}-{i}")),
                base: None,
            });
        } else {
            // A fixed mix per cycle: five family edits, two pump edits and
            // the proof. Pump edits are bimodal (a verbatim warm replay in
            // about a millisecond, or a seeded search of ~20 ms), so they
            // stay clear of the median, which falls among the family
            // misses on every seed; the 90th percentile falls on the
            // proofs.
            let base = if matches!(i % PROOF_EVERY, 2 | 5) {
                0
            } else {
                1 + rng.below(residents.len() - 1)
            };
            let spec = residents[base].compiled.project.spec();
            let budget = if base == 0 {
                PUMP_EDIT_STATES
            } else {
                FAMILY_STATES
            };
            // A repeated edit would be a cache hit, not the miss a write
            // is, so `local_edit` draws each edit once.
            let (mutation, edited) = local_edit(spec, budget, &mut rng, &mut seen);
            let input = SpecInput::new(format!("{}/{mutation:?}", spec.name()), &edited);
            // Two different edits can also yield the same spec.
            if !seen_documents.insert(input.xml.clone()) {
                continue;
            }
            writes.push(Write {
                input,
                base: Some(base),
            });
        }
    }
    Ok(Inputs {
        residents,
        writes,
        seed,
    })
}

/// Starts the service with a disk tier in a fresh directory under
/// `.bench_tmp/` and warms it: every resident spec is posted once and
/// each of its artifacts fetched once.
pub fn start(inputs: &Inputs) -> Result<Setup<'_>, String> {
    let dir = PathBuf::from(".bench_tmp").join(format!(
        "serve-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            cache_capacity: 256,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .inspect_err(|_| {
        let _ = std::fs::remove_dir_all(&dir);
    })?;
    let setup = Setup {
        server,
        dir,
        inputs,
    };
    match warm_up(&setup) {
        Ok(()) => Ok(setup),
        Err(error) => {
            setup.teardown();
            Err(error)
        }
    }
}

/// Posts every resident once and fetches each of its artifacts once.
fn warm_up(setup: &Setup) -> Result<(), String> {
    let mut client = Client::new(setup.server.addr());
    for resident in &setup.inputs.residents {
        let response = post_schedule(&mut client, &resident.input.xml)?;
        if response.status != 200 {
            return Err(format!("warm-up POST of {} failed", resident.input.label));
        }
        for kind in READ_KINDS {
            let path = artifact_path(&resident.digest, kind);
            let response = client
                .request("GET", &path, &[], b"")
                .map_err(|e| e.to_string())?;
            if response.status != 200 {
                return Err(format!("warm-up GET {path} answered {}", response.status));
            }
        }
    }
    Ok(())
}

impl Setup<'_> {
    /// Stops the service (joining its threads) and removes its directory.
    pub fn teardown(self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn post_schedule(client: &mut Client, xml: &str) -> Result<Response, String> {
    client
        .request("POST", "/v1/schedule", &[], xml.as_bytes())
        .map_err(|error| format!("POST /v1/schedule: {error}"))
}

fn artifact_path(digest: &SpecDigest, kind: ArtifactKind) -> String {
    format!("/v1/artifact/{}/{kind}", digest.to_hex())
}

/// The value of a `"key": value` line of a pretty JSON body.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    let end = rest.find([',', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// The read classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReadClass {
    Hit,
    NotModified,
    ArtifactGet,
    Healthz,
}

impl ReadClass {
    pub const ALL: [ReadClass; 4] = [
        ReadClass::Hit,
        ReadClass::NotModified,
        ReadClass::ArtifactGet,
        ReadClass::Healthz,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ReadClass::Hit => "hit",
            ReadClass::NotModified => "not-modified",
            ReadClass::ArtifactGet => "artifact-get",
            ReadClass::Healthz => "healthz",
        }
    }

    /// 35% re-posts, 30% conditional GETs, 25% full-body GETs, 10%
    /// health probes: assumed shares, not measured ones.
    fn draw(rng: &mut Rng) -> ReadClass {
        match rng.below(100) {
            0..=34 => ReadClass::Hit,
            35..=64 => ReadClass::NotModified,
            65..=89 => ReadClass::ArtifactGet,
            _ => ReadClass::Healthz,
        }
    }
}

/// Open-loop timing: each request's latency counts from its due time,
/// and the generator's lateness is how far after that it was sent.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub latency_ms: Samples,
    pub late_ms_max: f64,
}

impl OpenLoop {
    pub fn record(&mut self, due: Instant, sent: Instant, done: Instant) {
        self.latency_ms
            .push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
        let late = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
        self.late_ms_max = self.late_ms_max.max(late);
    }
}

/// Everything one measured phase observed.
#[derive(Default)]
pub struct Phase {
    pub reads: OpenLoop,
    pub rtt_ms: BTreeMap<&'static str, Samples>,
    pub read_bytes: Samples,
    pub write_ms: Samples,
    /// Peak resident memory when the phase ended, before the checks.
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub stats_delta: BTreeMap<String, f64>,
    pub spans: Vec<crate::trace::Span>,
    /// The writes completed, in order: which one, its latency, and
    /// whether the service answered it with a search (`cache: miss`).
    pub writes: Vec<(usize, f64, bool)>,
}

struct WriteResult {
    index: usize,
    ms: f64,
    status: u16,
    body: String,
}

/// Runs the reader and the writer against `setup`'s service for
/// `seconds`, then checks every response.
pub fn run_phase(
    setup: &Setup,
    seconds: f64,
    expected: &Expected,
    epoch: Option<Instant>,
) -> Result<Phase, String> {
    let addr = setup.server.addr();
    let before = fetch_stats(addr)?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(setup, started, deadline, epoch));
        let writer = scope.spawn(|| write_loop(setup, deadline, epoch));
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    let after = fetch_stats(addr)?;
    let peak_rss_mb = crate::peak_rss_mb();
    let (mut phase, read_spans) = reader;
    let (results, write_spans) = writer;
    for result in &results {
        phase.write_ms.push(result.ms);
        let miss = field(&result.body, "cache") == Some("miss");
        phase.writes.push((result.index, result.ms, miss));
    }
    phase.stats_delta = stats_delta(&before, &after);
    phase.peak_rss_mb = peak_rss_mb;
    phase.spans = read_spans;
    phase.spans.extend(write_spans);
    check_writes(setup, &results, expected, &mut phase);
    Ok(phase)
}

fn fetch_stats(addr: std::net::SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let mut client = Client::new(addr);
    let response = client
        .request("GET", "/v1/stats", &[("Connection", "close")], b"")
        .map_err(|error| format!("GET /v1/stats: {error}"))?;
    Ok(parse_stats(response.text()))
}

type ReadOutcome = (Phase, Vec<crate::trace::Span>);

fn read_loop(
    setup: &Setup,
    started: Instant,
    deadline: Instant,
    epoch: Option<Instant>,
) -> ReadOutcome {
    let mut phase = Phase::default();
    let mut tracer = epoch.map(Tracer::new);
    // The reader draws from its own stream, independent of the writes.
    let mut rng = Rng::new(setup.inputs.seed ^ 0x0052_4541_4445_5253);
    let mut client = Client::new(setup.server.addr());
    let interval = Duration::from_secs_f64(1.0 / READ_RATE);
    for i in 0.. {
        let due = started + interval * i;
        if due >= deadline {
            break;
        }
        let class = ReadClass::draw(&mut rng);
        let resident = &setup.inputs.residents[rng.below(setup.inputs.residents.len())];
        let kind = READ_KINDS[rng.below(READ_KINDS.len())];
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let send = |client: &mut Client| match class {
            ReadClass::Hit => {
                client.request("POST", "/v1/schedule", &[], resident.input.xml.as_bytes())
            }
            ReadClass::NotModified => {
                let etag = format!("\"{}:table\"", resident.digest.to_hex());
                let path = artifact_path(&resident.digest, ArtifactKind::Table);
                client.request("GET", &path, &[("If-None-Match", &etag)], b"")
            }
            ReadClass::ArtifactGet => {
                client.request("GET", &artifact_path(&resident.digest, kind), &[], b"")
            }
            ReadClass::Healthz => client.request("GET", "/v1/healthz", &[], b""),
        };
        let response = match &mut tracer {
            Some(tracer) => tracer.span(&format!("http.{}", class.name()), |_| send(&mut client)),
            None => send(&mut client),
        };
        let done = Instant::now();
        phase.reads.record(due, sent, done);
        phase
            .rtt_ms
            .entry(class.name())
            .or_default()
            .push((done - sent).as_secs_f64() * 1e3);
        phase.attempted += 1;
        match response {
            Err(error) => {
                phase.failed += 1;
                phase.failures.push(format!("{}: {error}", class.name()));
            }
            Ok(response) => {
                phase.read_bytes.push(response.wire_bytes as f64);
                if let Err(problem) = check_read(class, resident, kind, &response) {
                    phase.failed += 1;
                    phase.failures.push(problem);
                }
            }
        }
    }
    let spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    (phase, spans)
}

fn check_read(
    class: ReadClass,
    resident: &Resident,
    kind: ArtifactKind,
    response: &Response,
) -> Result<(), String> {
    let label = &resident.input.label;
    let ok = match class {
        ReadClass::Hit => {
            response.status == 200
                && field(response.text(), "cache") == Some("hit")
                && field(response.text(), "spec_digest") == Some(&resident.digest.to_hex())
        }
        ReadClass::NotModified => response.status == 304 && response.body.is_empty(),
        ReadClass::ArtifactGet => {
            let wanted = resident
                .compiled
                .artifacts
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, bytes)| bytes.as_bytes());
            response.status == 200 && wanted == Some(&response.body[..])
        }
        ReadClass::Healthz => response.status == 200,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} of {label} ({}) answered {} unexpectedly",
            class.name(),
            kind_name(kind),
            response.status
        ))
    }
}

type WriteOutcome = (Vec<WriteResult>, Vec<crate::trace::Span>);

fn write_loop(setup: &Setup, deadline: Instant, epoch: Option<Instant>) -> WriteOutcome {
    let mut tracer = epoch.map(Tracer::new);
    let mut client = Client::new(setup.server.addr());
    let mut results = Vec::new();
    let mut index = 0;
    // A host fast enough to use up the writes before the deadline ends
    // the closed loop early rather than repeat writes as cache hits.
    let writes = &setup.inputs.writes;
    while index < writes.len() && (index == 0 || Instant::now() < deadline) {
        let write = &writes[index];
        let sent = Instant::now();
        let send = |client: &mut Client| post_schedule(client, &write.input.xml);
        let response = match &mut tracer {
            Some(tracer) => tracer.span("http.write", |_| send(&mut client)),
            None => send(&mut client),
        };
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let (status, body) = match response {
            Ok(response) => (response.status, response.text().to_owned()),
            Err(error) => (0, error),
        };
        results.push(WriteResult {
            index,
            ms,
            status,
            body,
        });
        index += 1;
    }
    let spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    (results, spans)
}

/// What a write must be answered with.
struct Wanted {
    digest: String,
    verdict: String,
}

/// Checks every write response: status 200, the digest the bench
/// computes for the same bytes, and the verdict of the reference engine
/// (or, for the proof, the recorded verdict). Each distinct document is
/// checked once; its every response must agree.
fn check_writes(setup: &Setup, results: &[WriteResult], expected: &Expected, phase: &mut Phase) {
    let mut wanted_by_index: HashMap<usize, Result<Wanted, String>> = HashMap::new();
    for result in results {
        phase.attempted += 1;
        let write = &setup.inputs.writes[result.index];
        let label = &write.input.label;
        let wanted = wanted_by_index
            .entry(result.index)
            .or_insert_with(|| expected_write(write, expected));
        let body = &result.body;
        let verdict = match field(body, "feasible") {
            Some("true") => "feasible",
            _ if field(body, "error").is_some_and(|e| e.starts_with("no feasible schedule")) => {
                "infeasible"
            }
            _ => "no verdict",
        };
        let problem = match wanted {
            Err(problem) => Some(problem.clone()),
            Ok(_) if result.status != 200 => Some(format!(
                "{label}: status {} ({})",
                result.status,
                body.lines().next().unwrap_or("")
            )),
            Ok(wanted) if field(body, "spec_digest") != Some(&wanted.digest) => {
                Some(format!("{label}: wrong spec_digest"))
            }
            Ok(wanted) if verdict != wanted.verdict => Some(format!(
                "{label}: verdict {verdict}, expected {}",
                wanted.verdict
            )),
            // The service re-checks every schedule with the spec-level
            // validator and reports what it found.
            Ok(_) if verdict == "feasible" && field(body, "violations") != Some("0") => {
                Some(format!("{label}: validator violations reported"))
            }
            Ok(_) => None,
        };
        if let Some(problem) = problem {
            phase.failed += 1;
            phase.failures.push(problem);
        }
    }
}

/// The answer a write must get: the verdict of the reference engine, or
/// the verdict recorded for the proof.
fn expected_write(write: &Write, expected: &Expected) -> Result<Wanted, String> {
    let label = &write.input.label;
    let project = Project::from_dsl(&write.input.xml).map_err(|e| format!("{label}: {e}"))?;
    let verdict = match write.base {
        None => expected.verdict(PROOF),
        Some(_) => reference_verdict(&project),
    }
    .map_err(|error| format!("{label}: {error}"))?;
    Ok(Wanted {
        digest: project_digest(&project).to_hex(),
        verdict: verdict.to_owned(),
    })
}

/// What the in-process probes measured.
pub struct Probes {
    pub spans: Vec<crate::trace::Span>,
    pub lookup_us: f64,
    pub hit_in_process_ms: f64,
}

/// In-process probes of the layers a write and a hit cross inside the
/// service, over the writes `phase` completed as misses: parse, digest,
/// the warm-started (or, for proofs, cold) synthesis and the disk codec.
/// Also times `ResultCache::lookup` and the in-process share of a hit.
pub fn probe(setup: &Setup, phase: &Phase, epoch: Instant) -> Probes {
    let mut tracer = Tracer::new(epoch);
    let residents = &setup.inputs.residents;
    for &(index, _, _) in phase.writes.iter().filter(|write| write.2) {
        let write = &setup.inputs.writes[index];
        tracer.span("probe", |tracer| {
            let Ok(project) = tracer.span("dsl.parse", |_| Project::from_dsl(&write.input.xml))
            else {
                return;
            };
            let digest = tracer.span("digest", |_| project_digest(&project));
            let outcome = match write.base {
                Some(base) => tracer.span("incr.warm", |_| {
                    compute_outcome_incremental(&project, digest, &residents[base].compiled.outcome)
                }),
                None => tracer.span("artifacts.compute_outcome", |_| {
                    compute_outcome(&project, digest)
                }),
            };
            let bytes = tracer.span("artifacts.encode", |_| codec::encode_file(&outcome));
            let _ = tracer.span("artifacts.decode", |_| codec::decode_file(&bytes));
        });
    }

    // Seeded with copies of the residents' outcomes (through the codec,
    // the outcome type does not clone), not with new searches.
    let cache = ResultCache::new(256, 8);
    for resident in residents {
        let bytes = codec::encode_file(&resident.compiled.outcome);
        cache.get_or_compute(resident.digest, || {
            codec::decode_file(&bytes).expect("a resident's outcome survives the codec")
        });
    }
    const LOOKUPS: usize = 20_000;
    let clock = Instant::now();
    for i in 0..LOOKUPS {
        let digest = setup.inputs.residents[i % setup.inputs.residents.len()].digest;
        std::hint::black_box(cache.lookup(digest));
    }
    let lookup_us = clock.elapsed().as_secs_f64() * 1e6 / LOOKUPS as f64;

    // The in-process work of a hit: parse, digest, lookup, report body.
    let mut hit = Samples::new();
    for _ in 0..20 {
        for resident in &setup.inputs.residents {
            let clock = Instant::now();
            let project = Project::from_dsl(&resident.input.xml).expect("resident parses");
            let digest = project_digest(&project);
            if let Some((outcome, _)) = cache.lookup(digest) {
                std::hint::black_box(ezrt_artifacts::report::render_pretty(&outcome.fields));
            }
            hit.push(clock.elapsed().as_secs_f64() * 1e3);
        }
    }
    Probes {
        spans: tracer.into_spans(),
        lookup_us,
        hit_in_process_ms: hit.median(),
    }
}

/// One line per write class (the resident it edits, or the proof): the
/// count and median latency of the completed writes.
pub fn write_notes(inputs: &Inputs, writes: &[(usize, f64, bool)]) -> Vec<String> {
    let mut by_class: BTreeMap<&str, Samples> = BTreeMap::new();
    for &(index, ms, _) in writes {
        let class = match inputs.writes[index].base {
            Some(base) => inputs.residents[base].input.label.as_str(),
            None => PROOF,
        };
        by_class.entry(class).or_default().push(ms);
    }
    by_class
        .iter_mut()
        .map(|(class, ms)| {
            format!(
                "writes to {class}: {} at median {:.3} ms",
                ms.len(),
                ms.median()
            )
        })
        .collect()
}

/// Hit and rendered-tier shares and counts from a `/v1/stats` delta.
pub fn cache_metrics(delta: &BTreeMap<String, f64>) -> [(&'static str, f64); 4] {
    let lookups = [
        "cache_hits",
        "cache_disk_hits",
        "cache_misses",
        "cache_joined",
    ];
    [
        ("cache.hit_share", share(delta, "cache_hits", &lookups)),
        (
            "cache.misses",
            delta.get("cache_misses").copied().unwrap_or(0.0),
        ),
        (
            "cache.joined",
            delta.get("cache_joined").copied().unwrap_or(0.0),
        ),
        (
            "rendered.hit_share",
            share(
                delta,
                "rendered_hits",
                &["rendered_hits", "rendered_misses"],
            ),
        ),
    ]
}

/// The known-answer checks of `pipeline` on every resident, whose
/// in-process bytes every artifact read is compared with (the mine
/// pump's also against its recorded digests). Each resident is one
/// attempted operation of `report`.
pub fn check_residents(inputs: &Inputs, expected: &Expected, report: &mut crate::Report) {
    for resident in &inputs.residents {
        let label = &resident.input.label;
        let problems = check_compiled(label, &resident.compiled, Oracle::Reference, expected);
        report.attempted += 1;
        if !problems.is_empty() {
            report.failed += 1;
            report.failures.extend(problems);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let mut open = OpenLoop::default();
        // On time: latency is the service time.
        open.record(due, due, due + Duration::from_millis(2));
        // Sent 30 ms late behind a stall, served in 1 ms: 31 ms.
        open.record(
            due,
            due + Duration::from_millis(30),
            due + Duration::from_millis(31),
        );
        assert_eq!(open.latency_ms.len(), 2);
        assert!((open.latency_ms.percentile(100.0) - 31.0).abs() < 1e-9);
        assert!((open.late_ms_max - 30.0).abs() < 1e-9);
    }

    #[test]
    fn pretty_json_fields_are_found() {
        let body = "{\n  \"feasible\": true,\n  \"spec_digest\": \"abc\",\n  \"cache\": \"hit\"\n}";
        assert_eq!(field(body, "feasible"), Some("true"));
        assert_eq!(field(body, "spec_digest"), Some("abc"));
        assert_eq!(field(body, "cache"), Some("hit"));
        assert_eq!(field(body, "missing"), None);
    }

    #[test]
    fn read_mix_matches_its_shares() {
        let mut rng = Rng::new(1);
        let mut counts = BTreeMap::new();
        for _ in 0..10_000 {
            *counts.entry(ReadClass::draw(&mut rng)).or_insert(0) += 1;
        }
        assert!((3_300..3_700).contains(&counts[&ReadClass::Hit]));
        assert!((800..1_200).contains(&counts[&ReadClass::Healthz]));
    }
}
