//! Serializing specifications to the `<rt:ez-spec>` dialect.

use crate::{NAMESPACE, ROOT_ELEMENT};
use ezrt_spec::{EzSpec, SchedulingMethod};
use ezrt_xml::{Id, WriteOptions, XmlValue, XmlWriter};

/// Renders `spec` as an `<rt:ez-spec>` XML document in the style of
/// paper Fig. 7.
///
/// Identifiers are regenerated deterministically (`p0, p1, …` for
/// processors, `ez0, ez1, …` for tasks, `m0, …` for messages); the
/// original tool used timestamps, but stable identifiers keep the output
/// diffable and the round-trip testable.
///
/// # Examples
///
/// ```
/// let xml = ezrt_dsl::to_xml(&ezrt_spec::corpus::figure3_spec());
/// assert!(xml.contains("<rt:ez-spec"));
/// assert!(xml.contains("precedesTasks=\"#ez1\""));
/// ```
pub fn to_xml(spec: &EzSpec) -> String {
    // About the markup of each element kind, so one allocation usually
    // holds the whole document.
    let capacity = 128
        + 64 * spec.processors().count()
        + 320 * spec.task_count()
        + 256 * spec.messages().count();
    let mut w = XmlWriter::new(&WriteOptions::default(), capacity);
    w.start(ROOT_ELEMENT)
        .attr("xmlns:rt", NAMESPACE)
        .attr("name", spec.name());
    if spec.dispatcher_overhead() {
        w.attr("dispOveh", "true");
    }

    for (pid, processor) in spec.processors() {
        w.start("Processor")
            .attr("identifier", Id("p", pid.index()))
            .text_element("name", processor.name())
            .end("Processor");
    }

    let mut refs = Vec::new();
    for (tid, task) in spec.tasks() {
        w.start("Task").attr("identifier", Id("ez", tid.index()));
        refs.clear();
        refs.extend(spec.successors(tid).map(|s| s.index()));
        if !refs.is_empty() {
            w.attr("precedesTasks", TaskRefs(&refs));
        }
        // Exclusion is symmetric; emit each pair once, on the lower id.
        refs.clear();
        refs.extend(
            spec.exclusions()
                .iter()
                .filter(|&&(a, _)| a == tid)
                .map(|&(_, b)| b.index()),
        );
        if !refs.is_empty() {
            w.attr("excludesTasks", TaskRefs(&refs));
        }

        w.text_element("processor", Id("p", task.processor().index()))
            .text_element("name", task.name());
        let timing = task.timing();
        w.text_element("period", timing.period);
        if timing.phase != 0 {
            w.text_element("phase", timing.phase);
        }
        if timing.release != 0 {
            w.text_element("release", timing.release);
        }
        w.text_element("power", task.energy()).text_element(
            "schedulingMode",
            match task.method() {
                SchedulingMethod::NonPreemptive => "NP",
                SchedulingMethod::Preemptive => "P",
            },
        );
        w.text_element("computing", timing.computation)
            .text_element("deadline", timing.deadline);
        if let Some(code) = task.code() {
            w.text_element("code", code.content());
        }
        w.end("Task");
    }

    for (mid, message) in spec.messages() {
        w.start("Message")
            .attr("identifier", Id("m", mid.index()))
            .attr("sender", Id("#ez", message.sender().index()))
            .attr("receiver", Id("#ez", message.receiver().index()))
            .text_element("name", message.name())
            .text_element("bus", message.bus())
            .text_element("grantBus", message.grant_bus())
            .text_element("communication", message.communication())
            .end("Message");
    }

    w.end(ROOT_ELEMENT);
    w.finish()
}

/// An EMF reference list: task indices as `#ez<i>`, space-separated.
struct TaskRefs<'a>(&'a [usize]);

impl XmlValue for TaskRefs<'_> {
    fn append_to(&self, out: &mut String, escape: fn(&mut String, &str)) {
        for (at, &index) in self.0.iter().enumerate() {
            if at > 0 {
                escape(out, " ");
            }
            Id("#ez", index).append_to(out, escape);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_spec::corpus::{figure4_spec, mine_pump};
    use ezrt_spec::SpecBuilder;

    #[test]
    fn output_matches_figure7_field_vocabulary() {
        let xml = to_xml(&mine_pump());
        for field in [
            "<processor>",
            "<name>",
            "<period>",
            "<power>",
            "<schedulingMode>",
            "<computing>",
            "<deadline>",
        ] {
            assert!(xml.contains(field), "missing {field}");
        }
        assert!(xml.contains("xmlns:rt=\"http://pnmp.sf.net/EZRealtime\""));
        assert!(xml.contains("identifier=\"ez0\""));
        assert!(xml.contains("<schedulingMode>NP</schedulingMode>"));
    }

    #[test]
    fn exclusions_are_printed_once() {
        let xml = to_xml(&figure4_spec());
        assert_eq!(xml.matches("excludesTasks").count(), 1);
        assert!(xml.contains("excludesTasks=\"#ez1\""));
    }

    #[test]
    fn messages_and_flags_are_printed() {
        let spec = SpecBuilder::new("msgful")
            .dispatcher_overhead(true)
            .task("tx", |t| t.computation(1).deadline(10).period(10))
            .task("rx", |t| t.computation(1).deadline(10).period(10))
            .message("frame", "tx", "rx", "can0", 1, 2)
            .build()
            .unwrap();
        let xml = to_xml(&spec);
        assert!(xml.contains("dispOveh=\"true\""));
        assert!(xml.contains("<Message identifier=\"m0\""));
        assert!(xml.contains("<grantBus>1</grantBus>"));
        assert!(xml.contains("<communication>2</communication>"));
        assert!(xml.contains("sender=\"#ez0\""));
    }

    #[test]
    fn optional_fields_are_omitted_when_default() {
        let spec = SpecBuilder::new("plain")
            .task("t", |t| t.computation(1).deadline(5).period(5))
            .build()
            .unwrap();
        let xml = to_xml(&spec);
        assert!(!xml.contains("<phase>"));
        assert!(!xml.contains("<release>"));
        assert!(!xml.contains("<code>"));
        assert!(!xml.contains("dispOveh"));
    }
}
