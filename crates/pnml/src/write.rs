//! Writing time Petri nets as PNML.

use crate::{PNML_NAMESPACE, PTNET_TYPE, TOOL_NAME};
use ezrt_tpn::{TimeBound, TimePetriNet};
use ezrt_xml::{Id, WriteOptions, XmlWriter};

/// Serializes `net` as a PNML (ISO 15909-2) document.
///
/// Places carry `<name>` and `<initialMarking>`; transitions carry
/// `<name>` plus an ezRealtime `<toolspecific>` block with the firing
/// interval, priority and optional code binding; arcs carry
/// `<inscription>` weights when greater than one. Node ids are dense
/// (`p0…`, `t0…`, `a0…`) and stable across writes.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::{TpnBuilder, TimeInterval};
///
/// # fn main() -> Result<(), ezrt_tpn::BuildNetError> {
/// let mut b = TpnBuilder::new("tiny");
/// let p = b.place_with_tokens("start", 1);
/// let t = b.transition("go", TimeInterval::new(2, 5)?);
/// b.arc_place_to_transition(p, t, 1);
/// let document = ezrt_pnml::to_pnml(&b.build()?);
/// assert!(document.contains("<pnml"));
/// assert!(document.contains("<eft>2</eft>"));
/// # Ok(())
/// # }
/// ```
pub fn to_pnml(net: &TimePetriNet) -> String {
    let mut w = XmlWriter::new(&WriteOptions::default(), estimated_len(net));
    w.start("pnml").attr("xmlns", PNML_NAMESPACE);
    w.start("net").attr("id", "net0").attr("type", PTNET_TYPE);
    name(&mut w, net.name());
    w.start("page").attr("id", "page0");

    for (id, place) in net.places() {
        w.start("place").attr("id", Id("p", id.index()));
        name(&mut w, place.name());
        if place.initial_tokens() > 0 {
            w.start("initialMarking")
                .text_element("text", place.initial_tokens())
                .end("initialMarking");
        }
        w.end("place");
    }

    for (id, transition) in net.transitions() {
        w.start("transition").attr("id", Id("t", id.index()));
        name(&mut w, transition.name());
        w.start("toolspecific")
            .attr("tool", TOOL_NAME)
            .attr("version", "0.1");
        w.start("interval")
            .text_element("eft", transition.interval().eft());
        match transition.interval().lft() {
            TimeBound::Finite(lft) => w.text_element("lft", lft),
            TimeBound::Infinite => w.text_element("lft", "inf"),
        };
        w.end("interval")
            .text_element("priority", transition.priority());
        if let Some(code) = transition.code() {
            w.text_element("code", code);
        }
        w.end("toolspecific").end("transition");
    }

    let mut arc_index = 0usize;
    for (tid, _) in net.transitions() {
        let transition = Id("t", tid.index());
        for &(pid, weight) in net.pre_set(tid) {
            arc(&mut w, arc_index, Id("p", pid.index()), transition, weight);
            arc_index += 1;
        }
        for &(pid, weight) in net.post_set(tid) {
            arc(&mut w, arc_index, transition, Id("p", pid.index()), weight);
            arc_index += 1;
        }
    }

    w.end("page").end("net").end("pnml");
    w.finish()
}

/// Bytes to reserve for `net`'s document: the fixed markup per place,
/// transition and arc plus the names and code it carries, so one
/// allocation holds the whole text (and the newline the artifact layer
/// appends) in the common case.
fn estimated_len(net: &TimePetriNet) -> usize {
    const FRAME: usize = 256;
    const PLACE: usize = 128;
    const TRANSITION: usize = 288;
    const ARC: usize = 64;
    let places: usize = net.places().map(|(_, p)| PLACE + p.name().len()).sum();
    let transitions: usize = net
        .transitions()
        .map(|(id, t)| {
            let arcs = net.pre_set(id).len() + net.post_set(id).len();
            TRANSITION + t.name().len() + t.code().map_or(0, str::len) + arcs * ARC
        })
        .sum();
    FRAME + net.name().len() + places + transitions
}

fn name(w: &mut XmlWriter, name: &str) {
    w.start("name").text_element("text", name).end("name");
}

fn arc(w: &mut XmlWriter, index: usize, source: Id<'_>, target: Id<'_>, weight: u32) {
    w.start("arc")
        .attr("id", Id("a", index))
        .attr("source", source)
        .attr("target", target);
    if weight > 1 {
        w.start("inscription")
            .text_element("text", weight)
            .end("inscription");
    }
    w.end("arc");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_tpn::{TimeInterval, TpnBuilder};

    fn sample_net() -> TimePetriNet {
        let mut b = TpnBuilder::new("sample");
        let p0 = b.place_with_tokens("start", 2);
        let p1 = b.place("done");
        let t = b.transition_full(
            "work",
            TimeInterval::new(1, 4).unwrap(),
            7,
            Some("do_work();".to_owned()),
        );
        let t2 = b.transition("open", TimeInterval::at_least(3));
        b.arc_place_to_transition(p0, t, 2);
        b.arc_transition_to_place(t, p1, 1);
        b.arc_place_to_transition(p1, t2, 1);
        b.build().unwrap()
    }

    #[test]
    fn document_structure_is_iso_15909() {
        let doc = to_pnml(&sample_net());
        assert!(doc.contains("<pnml xmlns=\"http://www.pnml.org/version-2009/grammar/pnml\">"));
        assert!(doc.contains("type=\"http://www.pnml.org/version-2009/grammar/ptnet\""));
        assert!(doc.contains("<page id=\"page0\">"));
        assert!(doc.contains("<place id=\"p0\">"));
        assert!(doc.contains("<transition id=\"t0\">"));
        assert!(doc.contains("<arc id=\"a0\" source=\"p0\" target=\"t0\">"));
    }

    #[test]
    fn markings_weights_and_timing_are_emitted() {
        let doc = to_pnml(&sample_net());
        assert!(doc.contains("<text>2</text>"), "initial marking and weight");
        assert!(doc.contains("<eft>1</eft>"));
        assert!(doc.contains("<lft>4</lft>"));
        assert!(doc.contains("<lft>inf</lft>"), "unbounded interval");
        assert!(doc.contains("<priority>7</priority>"));
        assert!(doc.contains("<code>do_work();</code>"));
    }

    #[test]
    fn weight_one_arcs_have_no_inscription() {
        let doc = to_pnml(&sample_net());
        // Three arcs, one of which (weight 2) has an inscription.
        assert_eq!(doc.matches("<arc ").count(), 3);
        assert_eq!(doc.matches("<inscription>").count(), 1);
    }

    #[test]
    fn the_reserved_length_holds_corpus_documents_and_a_newline() {
        use ezrt_spec::corpus::{figure3_spec, figure8_spec, mine_pump, small_control};
        for spec in [mine_pump(), figure3_spec(), figure8_spec(), small_control()] {
            let net = ezrt_compose::translate(&spec).into_net();
            let doc = to_pnml(&net);
            assert!(doc.len() < estimated_len(&net), "{}", spec.name());
            assert!(estimated_len(&net) < doc.len() * 5 / 4, "{}", spec.name());
        }
    }

    #[test]
    fn empty_places_have_no_marking_element() {
        let doc = to_pnml(&sample_net());
        assert_eq!(doc.matches("<initialMarking>").count(), 1);
    }
}
