//! Minimal XML substrate for the ezRealtime toolchain.
//!
//! The ezRealtime paper exchanges data through two XML dialects: the
//! `<rt:ez-spec>` domain-specific language (paper Fig. 7) and PNML, the
//! ISO/IEC 15909-2 Petri Net Markup Language. Rather than pulling a large
//! external dependency for the handful of constructs those dialects need,
//! this crate implements a small, well-tested XML 1.0 subset:
//!
//! * elements with attributes (namespace *prefixes* are kept verbatim),
//! * character data with the five predefined entities
//!   (`&lt; &gt; &amp; &apos; &quot;`) plus numeric character references,
//! * comments and processing instructions (skipped on parse),
//! * an XML declaration (emitted on write, tolerated on read),
//! * CDATA sections.
//!
//! It intentionally does **not** implement DTDs, schema validation or
//! namespace resolution — the ezRealtime dialects need none of those.
//!
//! Reading and writing are asymmetric. [`parse`] builds an [`Element`]
//! tree, which the dialect readers walk. Writing needs no tree:
//! [`XmlWriter`] streams start tags, attributes, text and end tags into
//! one `String`, escaping values in place with [`escape_attr_into`] and
//! [`escape_text_into`]. Indentation and escaping live there alone;
//! [`write_document`] (behind [`Element::to_xml_string`]) only walks a
//! tree over the same writer.
//!
//! # Examples
//!
//! ```
//! use ezrt_xml::{Element, parse};
//!
//! # fn main() -> Result<(), ezrt_xml::ParseXmlError> {
//! let doc = parse("<spec version=\"1\"><task name=\"T1\"/></spec>")?;
//! assert_eq!(doc.name, "spec");
//! assert_eq!(doc.attr("version"), Some("1"));
//! assert_eq!(doc.children().count(), 1);
//!
//! let mut root = Element::new("spec");
//! root.set_attr("version", "1");
//! root.push_child(Element::new("task"));
//! let text = root.to_xml_string();
//! assert!(text.contains("<task/>"));
//!
//! // The same document, streamed without a tree.
//! use ezrt_xml::{WriteOptions, XmlWriter};
//! let mut writer = XmlWriter::new(&WriteOptions::default(), text.len());
//! writer.start("spec").attr("version", 1u32);
//! writer.start("task").end("task");
//! writer.end("spec");
//! assert_eq!(writer.finish(), text);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod escape;
mod parser;
mod tree;
mod writer;

pub use error::ParseXmlError;
pub use escape::{escape_attr, escape_attr_into, escape_text, escape_text_into, unescape};
pub use parser::parse;
pub use tree::{Element, Node};
pub use writer::{write_document, Id, WriteOptions, XmlValue, XmlWriter};
