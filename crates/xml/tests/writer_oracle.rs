//! Byte-identity oracles for the streaming write path: `write_document`
//! drives `XmlWriter`, which escapes in place, and both must print
//! exactly what the recursive formatter and the char-by-char escapers
//! they replaced printed. Those live on here, in test code only.

use ezrt_xml::{escape_attr, escape_text, write_document, Element, Node, WriteOptions};
use proptest::prelude::*;

/// The char-by-char text escaper `escape_text_into` replaced.
fn old_escape_text(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            other => out.push(other),
        }
    }
    out
}

/// The char-by-char attribute escaper `escape_attr_into` replaced.
fn old_escape_attr(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\n' => out.push_str("&#10;"),
            '\t' => out.push_str("&#9;"),
            '\r' => out.push_str("&#13;"),
            other => out.push(other),
        }
    }
    out
}

/// The recursive tree formatter `write_document` replaced.
fn tree_document(root: &Element, options: &WriteOptions) -> String {
    let mut out = String::new();
    if options.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if options.indent.is_some() {
            out.push('\n');
        }
    }
    tree_element(&mut out, root, options, 0);
    if options.indent.is_some() {
        out.push('\n');
    }
    out
}

fn tree_element(out: &mut String, element: &Element, options: &WriteOptions, depth: usize) {
    let pad = |out: &mut String, depth: usize| {
        if let Some(width) = options.indent {
            for _ in 0..depth * width {
                out.push(' ');
            }
        }
    };

    pad(out, depth);
    out.push('<');
    out.push_str(&element.name);
    for (name, value) in &element.attributes {
        out.push_str(&format!(" {}=\"{}\"", name, old_escape_attr(value)));
    }

    if element.nodes.is_empty() {
        out.push_str("/>");
        return;
    }

    let single_text = element.nodes.len() == 1 && matches!(element.nodes[0], Node::Text(_));
    out.push('>');
    if single_text {
        if let Node::Text(t) = &element.nodes[0] {
            out.push_str(&old_escape_text(t));
        }
    } else {
        for node in &element.nodes {
            if options.indent.is_some() {
                out.push('\n');
            }
            match node {
                Node::Element(child) => tree_element(out, child, options, depth + 1),
                Node::Text(text) => {
                    pad(out, depth + 1);
                    out.push_str(&old_escape_text(text));
                }
            }
        }
        if options.indent.is_some() {
            out.push('\n');
        }
        pad(out, depth);
    }
    out.push_str("</");
    out.push_str(&element.name);
    out.push('>');
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_.:-]{0,8}".prop_map(|s| s)
}

/// Characters the text strategy draws from: XML specials, the
/// whitespace attribute escaping turns into character references, plain
/// ASCII and non-ASCII text.
const ALPHABET: [char; 16] = [
    '&', '<', '>', '"', '\'', ' ', '\t', '\r', '\n', 'a', 'Z', '0', ';', 'é', '控', '🚀',
];

/// Any text over [`ALPHABET`], the empty string included (which the
/// round-trip tests cannot use).
fn text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|at| ALPHABET[at]).collect())
}

/// Trees with attributes, single-text elements, empty elements and
/// mixed content (text nodes among child elements).
fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (
        name_strategy(),
        prop::collection::vec((name_strategy(), text_strategy()), 0..3),
        prop::collection::vec(text_strategy(), 0..3),
    )
        .prop_map(|(name, attrs, texts)| {
            let mut e = Element::new(name);
            for (n, v) in attrs {
                e.set_attr(n, v);
            }
            for t in texts {
                e.push_text(t);
            }
            e
        });
    leaf.prop_recursive(4, 32, 4, |inner| {
        (
            name_strategy(),
            prop::collection::vec((name_strategy(), text_strategy()), 0..3),
            prop::collection::vec(
                (any::<bool>(), inner, text_strategy()).prop_map(|(element, child, text)| {
                    if element {
                        Node::Element(child)
                    } else {
                        Node::Text(text)
                    }
                }),
                0..5,
            ),
        )
            .prop_map(|(name, attrs, nodes)| {
                let mut e = Element::new(name);
                for (n, v) in attrs {
                    e.set_attr(n, v);
                }
                e.nodes = nodes;
                e
            })
    })
}

fn options_strategy() -> impl Strategy<Value = WriteOptions> {
    (prop::option::of(0usize..5), any::<bool>()).prop_map(|(indent, declaration)| WriteOptions {
        indent,
        declaration,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streamed_document_matches_the_tree_formatter(
        root in element_strategy(),
        options in options_strategy(),
    ) {
        prop_assert_eq!(write_document(&root, &options), tree_document(&root, &options));
    }

    #[test]
    fn in_place_escaping_matches_the_char_by_char_escapers(text in text_strategy()) {
        prop_assert_eq!(escape_text(&text), old_escape_text(&text));
        prop_assert_eq!(escape_attr(&text), old_escape_attr(&text));
    }
}
