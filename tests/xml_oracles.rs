//! Byte-identity oracles for the streamed XML writers: `pnml::to_pnml`
//! and `dsl::to_xml` write through `xml::XmlWriter` with no element
//! tree, and must print exactly what the tree-building writers they
//! replaced printed. Those writers live on here, in test code only, as
//! the oracles: they build an `xml::Element` tree and hand it to
//! `xml::write_document`.
//!
//! Inputs: every corpus spec (built in and checked in), members of all
//! six generated families, and hand-built nets and specs whose names and
//! code bindings hold every XML special, control whitespace and
//! non-ASCII text.

use ezrealtime::compose::translate;
use ezrealtime::dsl;
use ezrealtime::pnml;
use ezrealtime::spec::generate::{family_spec, Family};
use ezrealtime::spec::{corpus, EzSpec, SchedulingMethod, SpecBuilder};
use ezrealtime::tpn::{TimeBound, TimeInterval, TimePetriNet, TpnBuilder};
use ezrealtime::xml::{write_document, Element, WriteOptions};

/// The tree-building PNML writer the streamed one replaced.
fn tree_pnml(net: &TimePetriNet) -> String {
    let mut root = Element::new("pnml");
    root.set_attr("xmlns", pnml::PNML_NAMESPACE);

    let mut net_element = Element::new("net");
    net_element.set_attr("id", "net0");
    net_element.set_attr("type", pnml::PTNET_TYPE);
    net_element.push_child(named(net.name()));

    let mut page = Element::new("page");
    page.set_attr("id", "page0");

    for (id, place) in net.places() {
        let mut e = Element::new("place");
        e.set_attr("id", format!("p{}", id.index()));
        e.push_child(named(place.name()));
        if place.initial_tokens() > 0 {
            let mut marking = Element::new("initialMarking");
            marking.push_text_child("text", place.initial_tokens().to_string());
            e.push_child(marking);
        }
        page.push_child(e);
    }

    for (id, transition) in net.transitions() {
        let mut e = Element::new("transition");
        e.set_attr("id", format!("t{}", id.index()));
        e.push_child(named(transition.name()));

        let mut tool = Element::new("toolspecific");
        tool.set_attr("tool", pnml::TOOL_NAME);
        tool.set_attr("version", "0.1");
        let mut interval = Element::new("interval");
        interval.push_text_child("eft", transition.interval().eft().to_string());
        let lft = match transition.interval().lft() {
            TimeBound::Finite(v) => v.to_string(),
            TimeBound::Infinite => "inf".to_owned(),
        };
        interval.push_text_child("lft", lft);
        tool.push_child(interval);
        tool.push_text_child("priority", transition.priority().to_string());
        if let Some(code) = transition.code() {
            tool.push_text_child("code", code);
        }
        e.push_child(tool);
        page.push_child(e);
    }

    let mut arc_index = 0usize;
    for (tid, _) in net.transitions() {
        for &(pid, weight) in net.pre_set(tid) {
            page.push_child(arc(
                arc_index,
                &format!("p{}", pid.index()),
                &format!("t{}", tid.index()),
                weight,
            ));
            arc_index += 1;
        }
        for &(pid, weight) in net.post_set(tid) {
            page.push_child(arc(
                arc_index,
                &format!("t{}", tid.index()),
                &format!("p{}", pid.index()),
                weight,
            ));
            arc_index += 1;
        }
    }

    net_element.push_child(page);
    root.push_child(net_element);
    write_document(&root, &WriteOptions::default())
}

fn named(name: &str) -> Element {
    let mut e = Element::new("name");
    e.push_text_child("text", name);
    e
}

fn arc(index: usize, source: &str, target: &str, weight: u32) -> Element {
    let mut e = Element::new("arc");
    e.set_attr("id", format!("a{index}"));
    e.set_attr("source", source);
    e.set_attr("target", target);
    if weight > 1 {
        let mut inscription = Element::new("inscription");
        inscription.push_text_child("text", weight.to_string());
        e.push_child(inscription);
    }
    e
}

/// The tree-building DSL printer the streamed one replaced.
fn tree_dsl(spec: &EzSpec) -> String {
    let mut root = Element::new(dsl::ROOT_ELEMENT);
    root.set_attr("xmlns:rt", dsl::NAMESPACE);
    root.set_attr("name", spec.name());
    if spec.dispatcher_overhead() {
        root.set_attr("dispOveh", "true");
    }

    for (pid, processor) in spec.processors() {
        let mut e = Element::new("Processor");
        e.set_attr("identifier", format!("p{}", pid.index()));
        e.push_text_child("name", processor.name());
        root.push_child(e);
    }

    for (tid, task) in spec.tasks() {
        let mut e = Element::new("Task");
        e.set_attr("identifier", format!("ez{}", tid.index()));
        let successors: Vec<String> = spec
            .successors(tid)
            .map(|s| format!("#ez{}", s.index()))
            .collect();
        if !successors.is_empty() {
            e.set_attr("precedesTasks", successors.join(" "));
        }
        let partners: Vec<String> = spec
            .exclusions()
            .iter()
            .filter(|&&(a, _)| a == tid)
            .map(|&(_, b)| format!("#ez{}", b.index()))
            .collect();
        if !partners.is_empty() {
            e.set_attr("excludesTasks", partners.join(" "));
        }

        e.push_text_child("processor", format!("p{}", task.processor().index()));
        e.push_text_child("name", task.name());
        let timing = task.timing();
        e.push_text_child("period", timing.period.to_string());
        if timing.phase != 0 {
            e.push_text_child("phase", timing.phase.to_string());
        }
        if timing.release != 0 {
            e.push_text_child("release", timing.release.to_string());
        }
        e.push_text_child("power", task.energy().to_string());
        e.push_text_child(
            "schedulingMode",
            match task.method() {
                SchedulingMethod::NonPreemptive => "NP",
                SchedulingMethod::Preemptive => "P",
            },
        );
        e.push_text_child("computing", timing.computation.to_string());
        e.push_text_child("deadline", timing.deadline.to_string());
        if let Some(code) = task.code() {
            e.push_text_child("code", code.content());
        }
        root.push_child(e);
    }

    for (mid, message) in spec.messages() {
        let mut e = Element::new("Message");
        e.set_attr("identifier", format!("m{}", mid.index()));
        e.set_attr("sender", format!("#ez{}", message.sender().index()));
        e.set_attr("receiver", format!("#ez{}", message.receiver().index()));
        e.push_text_child("name", message.name());
        e.push_text_child("bus", message.bus());
        e.push_text_child("grantBus", message.grant_bus().to_string());
        e.push_text_child("communication", message.communication().to_string());
        root.push_child(e);
    }

    write_document(&root, &WriteOptions::default())
}

/// Asserts both streamed writers match their oracles on `spec` and on
/// the net it translates to.
fn assert_streams_match_trees(label: &str, spec: &EzSpec) {
    assert_eq!(dsl::to_xml(spec), tree_dsl(spec), "{label}: DSL bytes");
    let net = translate(spec).into_net();
    assert_eq!(pnml::to_pnml(&net), tree_pnml(&net), "{label}: PNML bytes");
}

/// Names and code holding every XML special, the whitespace attribute
/// escaping turns into character references, and non-ASCII text.
const AWKWARD: [&str; 6] = [
    "a & b < c > d",
    "say \"hi\" and 'bye'",
    "line\nbreak\ttab\rreturn",
    "pérîode ≤ 10 µs — 控制 🚀",
    "&amp; &#10; ]]> <!-- -->",
    "",
];

#[test]
fn streamed_writers_match_the_trees_on_the_corpus() {
    for (label, spec) in [
        ("mine pump", corpus::mine_pump()),
        ("figure 3", corpus::figure3_spec()),
        ("figure 4", corpus::figure4_spec()),
        ("figure 8", corpus::figure8_spec()),
        ("small control", corpus::small_control()),
    ] {
        assert_streams_match_trees(label, &spec);
    }

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/corpus exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|ext| ext == "xml") {
            let xml = std::fs::read_to_string(&path).expect("corpus file reads");
            let spec = dsl::from_xml(&xml).expect("corpus file parses");
            assert_streams_match_trees(&path.display().to_string(), &spec);
            files += 1;
        }
    }
    assert!(files >= 8, "only {files} corpus files");
}

#[test]
fn streamed_writers_match_the_trees_on_every_generated_family() {
    for tasks in [2, 3, 5, 8] {
        for seed in 0..6 {
            let utilization = 0.3 + 0.1 * (seed % 4) as f64;
            let families = [
                Family::Harmonic {
                    tasks,
                    base_period: 10,
                    utilization,
                },
                Family::NearHarmonic {
                    tasks,
                    base_period: 12,
                    utilization,
                },
                Family::PrecedenceChain {
                    length: tasks,
                    period: 40,
                    utilization,
                },
                Family::PrecedenceDiamond {
                    width: tasks,
                    period: 80,
                    utilization,
                },
                Family::ExclusionClique {
                    tasks,
                    period: 60,
                    utilization,
                },
                Family::Multiprocessor {
                    tasks,
                    processors: 1 + tasks % 3,
                    period: 30,
                    utilization,
                },
            ];
            for family in families {
                let spec = family_spec(&family, seed);
                assert_streams_match_trees(&format!("{} seed {seed}", family.name()), &spec);
            }
        }
    }
}

#[test]
fn streamed_pnml_matches_the_tree_on_awkward_hand_built_nets() {
    for (at, text) in AWKWARD.iter().enumerate() {
        let mut b = TpnBuilder::new(*text);
        let start = b.place_with_tokens(format!("start {text}"), 3);
        let done = b.place(text.to_string());
        let bounded = b.transition_full(
            format!("{text}/work"),
            TimeInterval::new(at as u64, 40).expect("eft ≤ lft"),
            u32::MAX - at as u32,
            Some(format!("if (a < b && c > d) {{ puts(\"{text}\"); }}")),
        );
        let open = b.transition_full(
            text.to_string(),
            TimeInterval::at_least(7),
            0,
            Some(text.to_string()),
        );
        let silent = b.transition(
            format!("{text} silent"),
            TimeInterval::new(0, 0).expect("[0,0]"),
        );
        b.arc_place_to_transition(start, bounded, 2);
        b.arc_transition_to_place(bounded, done, 1);
        b.arc_place_to_transition(done, open, 1);
        b.arc_transition_to_place(open, start, 12);
        b.arc_place_to_transition(start, silent, 1);
        let net = b.build().expect("well-formed net");
        let streamed = pnml::to_pnml(&net);
        assert_eq!(streamed, tree_pnml(&net), "net named {text:?}");
        let reread = pnml::from_pnml(&streamed).expect("streamed PNML parses");
        assert_eq!(reread.transition_count(), 3, "net named {text:?}");
    }
}

#[test]
fn streamed_dsl_matches_the_tree_on_awkward_hand_built_specs() {
    for text in AWKWARD {
        let spec = SpecBuilder::new(text)
            .dispatcher_overhead(true)
            .processor(format!("cpu {text}"))
            .processor(text)
            .task(format!("{text} tx"), |t| {
                t.computation(1)
                    .deadline(10)
                    .period(10)
                    .phase(2)
                    .release(1)
                    .energy(u64::MAX)
                    .on_processor(format!("cpu {text}"))
                    .code(format!("send(\"{text}\") && x < y;"))
            })
            .task(format!("{text} rx"), |t| {
                t.computation(2)
                    .deadline(10)
                    .period(10)
                    .preemptive()
                    .on_processor(text)
                    .code(text)
            })
            .task(format!("{text} log"), |t| {
                t.computation(1).deadline(10).period(10)
            })
            .task(format!("{text} idle"), |t| {
                t.computation(1).deadline(10).period(10)
            })
            // Two-entry reference lists on `tx`: successors and partners.
            .precedes(format!("{text} tx"), format!("{text} log"))
            .precedes(format!("{text} tx"), format!("{text} idle"))
            .precedes(format!("{text} rx"), format!("{text} log"))
            .excludes(format!("{text} tx"), format!("{text} log"))
            .excludes(format!("{text} tx"), format!("{text} idle"))
            .excludes(format!("{text} rx"), format!("{text} log"))
            .message(
                format!("frame {text}"),
                format!("{text} tx"),
                format!("{text} rx"),
                format!("bus {text}"),
                1,
                2,
            )
            .build()
            .expect("valid spec");
        let streamed = dsl::to_xml(&spec);
        assert_eq!(streamed, tree_dsl(&spec), "spec named {text:?}");
        assert!(
            streamed.contains("precedesTasks=\"#ez2 #ez3\""),
            "{streamed}"
        );
    }
}
