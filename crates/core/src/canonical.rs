//! Canonical byte serialization of a specification plus its scheduler
//! configuration — the stable pre-image of `ezrt-server`'s spec digests.
//!
//! Two XML documents that parse to the same [`EzSpec`] (whitespace,
//! attribute order, escaping choices) produce the same byte stream, so
//! they map to the same cache key. The stream covers everything that
//! can change a synthesis *result*: every metamodel field of the spec
//! and the result-relevant scheduler knobs (branch ordering, delay
//! mode, partial-order reduction, state/time budgets). It deliberately
//! excludes [`Parallelism`](ezrt_scheduler::Parallelism): the fan-out
//! width never changes a result, so cached results are shared across
//! `--jobs` values.
//!
//! The encoding is self-delimiting (length-prefixed strings, tagged
//! sections, fixed-width little-endian integers), so no two distinct
//! specifications can collide byte-wise by concatenation tricks. The
//! leading version tag makes any future format change alter every
//! digest deliberately rather than silently.

use ezrt_scheduler::{BranchOrdering, PorLevel, SchedulerConfig};
use ezrt_spec::{EzSpec, TaskId};
use ezrt_tpn::DelayMode;

/// Format version tag; bump when the encoding changes.
const VERSION: &[u8] = b"ezrt-canon-v1";

/// Format version tag of the per-task sub-digest pre-image.
const TASK_VERSION: &[u8] = b"ezrt-task-v1";

/// Format version tag of the structure-digest pre-image.
const STRUCTURE_VERSION: &[u8] = b"ezrt-struct-v1";

/// Section tags, one per metamodel region, so a decoder (or a human
/// with a hex dump) can tell where each part begins.
mod tag {
    pub const SPEC: u8 = 0x01;
    pub const TASK: u8 = 0x02;
    pub const PROCESSOR: u8 = 0x03;
    pub const MESSAGE: u8 = 0x04;
    pub const PRECEDES: u8 = 0x05;
    pub const EXCLUDES: u8 = 0x06;
    pub const CONFIG: u8 = 0x07;
}

/// Serializes `spec` + `config` into the canonical byte stream.
pub(crate) fn canonical_bytes(spec: &EzSpec, config: &SchedulerConfig) -> Vec<u8> {
    let mut out = Canon::default();
    out.bytes.extend_from_slice(VERSION);

    out.tag(tag::SPEC);
    out.str(spec.name());
    out.flag(spec.dispatcher_overhead());
    out.u64(spec.task_count() as u64);
    out.u64(spec.processors().count() as u64);
    out.u64(spec.messages().count() as u64);

    for (_, processor) in spec.processors() {
        out.tag(tag::PROCESSOR);
        out.str(processor.name());
    }
    for (_, task) in spec.tasks() {
        out.tag(tag::TASK);
        out.str(task.name());
        let timing = task.timing();
        out.u64(timing.phase);
        out.u64(timing.release);
        out.u64(timing.computation);
        out.u64(timing.deadline);
        out.u64(timing.period);
        out.u64(match task.method() {
            ezrt_spec::SchedulingMethod::NonPreemptive => 0,
            ezrt_spec::SchedulingMethod::Preemptive => 1,
        });
        out.u64(task.processor().index() as u64);
        out.u64(task.energy());
        match task.code() {
            Some(code) => {
                out.flag(true);
                out.str(code.content());
            }
            None => out.flag(false),
        }
    }
    for (_, message) in spec.messages() {
        out.tag(tag::MESSAGE);
        out.str(message.name());
        out.str(message.bus());
        out.u64(message.sender().index() as u64);
        out.u64(message.receiver().index() as u64);
        out.u64(message.grant_bus());
        out.u64(message.communication());
    }
    out.tag(tag::PRECEDES);
    out.u64(spec.precedences().len() as u64);
    for &(predecessor, successor) in spec.precedences() {
        out.u64(predecessor.index() as u64);
        out.u64(successor.index() as u64);
    }
    out.tag(tag::EXCLUDES);
    out.u64(spec.exclusions().len() as u64);
    for &(a, b) in spec.exclusions() {
        out.u64(a.index() as u64);
        out.u64(b.index() as u64);
    }

    write_config(&mut out, config);
    out.bytes
}

/// Serializes one task's sub-digest pre-image: the task's own timing and
/// attributes plus the *shape* of its relations, with every partner
/// referenced **by name** (never by index). Name-based references make
/// the bytes invariant under task reordering in the source document, and
/// excluding partner timing means a timing edit on task `x` changes
/// exactly `x`'s sub-digest — the property the structural spec diff in
/// [`Project::changed_tasks`](crate::Project::changed_tasks) relies on.
///
/// Message parameters (`grant_bus`, `communication`) are timing that
/// constrains *both* endpoints, so they appear in both endpoints'
/// sub-digests.
pub(crate) fn task_bytes(spec: &EzSpec, id: TaskId) -> Vec<u8> {
    let task = spec.task(id);
    let mut out = Canon::default();
    out.bytes.extend_from_slice(TASK_VERSION);

    out.tag(tag::TASK);
    out.str(task.name());
    let timing = task.timing();
    out.u64(timing.phase);
    out.u64(timing.release);
    out.u64(timing.computation);
    out.u64(timing.deadline);
    out.u64(timing.period);
    out.u64(match task.method() {
        ezrt_spec::SchedulingMethod::NonPreemptive => 0,
        ezrt_spec::SchedulingMethod::Preemptive => 1,
    });
    out.str(spec.processor(task.processor()).name());
    out.u64(task.energy());
    match task.code() {
        Some(code) => {
            out.flag(true);
            out.str(code.content());
        }
        None => out.flag(false),
    }

    out.tag(tag::PRECEDES);
    out.sorted_names(spec.predecessors(id).map(|p| spec.task(p).name()));
    out.sorted_names(spec.successors(id).map(|s| spec.task(s).name()));
    out.tag(tag::EXCLUDES);
    out.sorted_names(spec.exclusion_partners(id).map(|p| spec.task(p).name()));

    out.tag(tag::MESSAGE);
    let mut incident: Vec<_> = spec
        .messages()
        .filter(|&(_, m)| m.sender() == id || m.receiver() == id)
        .map(|(_, m)| m)
        .collect();
    incident.sort_by_key(|m| m.name());
    out.u64(incident.len() as u64);
    for message in incident {
        out.str(message.name());
        out.str(message.bus());
        out.flag(message.sender() == id);
        let partner = if message.sender() == id {
            message.receiver()
        } else {
            message.sender()
        };
        out.str(spec.task(partner).name());
        out.u64(message.grant_bus());
        out.u64(message.communication());
    }

    out.bytes
}

/// Serializes the *structure* of `spec` + `config`: the task set, the
/// relation shape and the result-relevant scheduler knobs, with all
/// timing values elided and every entity sorted by name. Two specs that
/// differ only in task timing share structure bytes — the property the
/// server's nearest-ancestor index keys on. Per-task instance counts
/// `N(t) = hyperperiod / period` **are** included: a period edit reshapes
/// the translated net, so warm-starting across it would be pointless.
///
/// The spec *name* is deliberately excluded — a renamed copy of a model
/// is the same search problem.
pub(crate) fn structure_bytes(spec: &EzSpec, config: &SchedulerConfig) -> Vec<u8> {
    let mut out = Canon::default();
    out.bytes.extend_from_slice(STRUCTURE_VERSION);

    out.tag(tag::SPEC);
    out.flag(spec.dispatcher_overhead());
    out.sorted_names(spec.processors().map(|(_, p)| p.name()));

    let mut tasks: Vec<_> = spec.tasks().collect();
    tasks.sort_by_key(|&(_, task)| task.name());
    out.u64(tasks.len() as u64);
    for (id, task) in tasks {
        out.tag(tag::TASK);
        out.str(task.name());
        out.u64(match task.method() {
            ezrt_spec::SchedulingMethod::NonPreemptive => 0,
            ezrt_spec::SchedulingMethod::Preemptive => 1,
        });
        out.str(spec.processor(task.processor()).name());
        out.u64(spec.instances_of(id));
    }

    out.tag(tag::PRECEDES);
    out.sorted_name_pairs(
        spec.precedences()
            .iter()
            .map(|&(a, b)| (spec.task(a).name(), spec.task(b).name())),
    );
    out.tag(tag::EXCLUDES);
    // Exclusion is symmetric: normalize each pair before sorting.
    out.sorted_name_pairs(spec.exclusions().iter().map(|&(a, b)| {
        let (a, b) = (spec.task(a).name(), spec.task(b).name());
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }));

    out.tag(tag::MESSAGE);
    let mut messages: Vec<_> = spec.messages().map(|(_, m)| m).collect();
    messages.sort_by_key(|m| m.name());
    out.u64(messages.len() as u64);
    for message in messages {
        out.str(message.name());
        out.str(message.bus());
        out.str(spec.task(message.sender()).name());
        out.str(spec.task(message.receiver()).name());
    }

    write_config(&mut out, config);
    out.bytes
}

/// The result-relevant scheduler knobs, shared verbatim between the full
/// canonical stream and the structure stream.
fn write_config(out: &mut Canon, config: &SchedulerConfig) {
    out.tag(tag::CONFIG);
    out.u64(match config.ordering {
        BranchOrdering::Edf => 0,
        BranchOrdering::Fifo => 1,
    });
    out.u64(match config.delay_mode {
        DelayMode::Earliest => 0,
        DelayMode::Corners => 1,
        DelayMode::Full => 2,
    });
    // One byte in the slot the old `partial_order_reduction` flag used:
    // `Off` = 0 reproduces the old `false` byte. 1 belonged to the retired
    // classic level and is never written again, so `Stubborn` keeps 2 and
    // no digest moves.
    out.bytes.push(match config.por {
        PorLevel::Off => 0,
        PorLevel::Stubborn => 2,
    });
    out.u64(config.max_states as u64);
    out.u64(config.max_time.as_secs());
    out.u64(u64::from(config.max_time.subsec_nanos()));
    // config.parallelism intentionally not serialized — see module docs.
}

/// The little writer: tagged sections, length-prefixed strings,
/// fixed-width little-endian integers.
#[derive(Default)]
struct Canon {
    bytes: Vec<u8>,
}

impl Canon {
    fn tag(&mut self, tag: u8) {
        self.bytes.push(tag);
    }

    fn u64(&mut self, value: u64) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    fn flag(&mut self, value: bool) {
        self.bytes.push(u8::from(value));
    }

    fn str(&mut self, text: &str) {
        self.u64(text.len() as u64);
        self.bytes.extend_from_slice(text.as_bytes());
    }

    /// A count-prefixed, lexicographically sorted name list — the
    /// order-erasing building block of the reorder-invariant streams.
    fn sorted_names<'a>(&mut self, names: impl Iterator<Item = &'a str>) {
        let mut names: Vec<&str> = names.collect();
        names.sort_unstable();
        self.u64(names.len() as u64);
        for name in names {
            self.str(name);
        }
    }

    /// A count-prefixed, sorted list of name pairs.
    fn sorted_name_pairs<'a>(&mut self, pairs: impl Iterator<Item = (&'a str, &'a str)>) {
        let mut pairs: Vec<(&str, &str)> = pairs.collect();
        pairs.sort_unstable();
        self.u64(pairs.len() as u64);
        for (a, b) in pairs {
            self.str(a);
            self.str(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_scheduler::Parallelism;
    use ezrt_spec::corpus::{mine_pump, small_control};
    use ezrt_spec::SpecBuilder;

    #[test]
    fn identical_inputs_give_identical_bytes() {
        let config = SchedulerConfig::default();
        assert_eq!(
            canonical_bytes(&small_control(), &config),
            canonical_bytes(&small_control(), &config)
        );
    }

    #[test]
    fn different_specs_give_different_bytes() {
        let config = SchedulerConfig::default();
        assert_ne!(
            canonical_bytes(&small_control(), &config),
            canonical_bytes(&mine_pump(), &config)
        );
    }

    #[test]
    fn every_result_relevant_config_knob_is_covered() {
        let spec = small_control();
        let base = canonical_bytes(&spec, &SchedulerConfig::default());
        let variants = [
            SchedulerConfig {
                ordering: BranchOrdering::Fifo,
                ..SchedulerConfig::default()
            },
            SchedulerConfig {
                delay_mode: DelayMode::Corners,
                ..SchedulerConfig::default()
            },
            SchedulerConfig {
                por: PorLevel::Off,
                ..SchedulerConfig::default()
            },
            SchedulerConfig {
                max_states: 7,
                ..SchedulerConfig::default()
            },
            SchedulerConfig {
                max_time: std::time::Duration::from_secs(1),
                ..SchedulerConfig::default()
            },
        ];
        for variant in variants {
            assert_ne!(base, canonical_bytes(&spec, &variant), "{variant:?}");
        }
    }

    #[test]
    fn parallelism_is_excluded() {
        let spec = small_control();
        let parallel = SchedulerConfig {
            parallelism: Parallelism::new(8),
            ..SchedulerConfig::default()
        };
        assert_eq!(
            canonical_bytes(&spec, &SchedulerConfig::default()),
            canonical_bytes(&spec, &parallel)
        );
    }

    #[test]
    fn task_rename_changes_the_bytes() {
        let config = SchedulerConfig::default();
        let build = |name: &str| {
            SpecBuilder::new("two")
                .task(name, |t| t.computation(1).deadline(4).period(10))
                .build()
                .unwrap()
        };
        assert_ne!(
            canonical_bytes(&build("a"), &config),
            canonical_bytes(&build("b"), &config)
        );
    }
}
