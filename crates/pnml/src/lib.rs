//! PNML (ISO/IEC 15909-2) export and import of time Petri nets.
//!
//! The ezRealtime tool stores its synthesized nets in the *Petri Net
//! Markup Language*, "a universal XML-based transfer syntax for Petri
//! nets" (paper §4.1), and feeds them to the third-party PNML Framework.
//! This crate provides the same interchange in Rust:
//!
//! * [`to_pnml`] writes a [`TimePetriNet`](ezrt_tpn::TimePetriNet) as a
//!   PNML place/transition net
//!   (the `ptnet` net type) with names, initial markings and arc
//!   inscriptions;
//! * time Petri net extensions — firing intervals, priorities, code
//!   bindings — ride in `<toolspecific tool="ezrealtime">` blocks, the
//!   standard's escape hatch for tool-specific data, so any ISO 15909-2
//!   consumer can still read the untimed skeleton;
//! * [`from_pnml`] reads documents back, defaulting missing timing to
//!   `[0, ∞)` so plain P/T nets from other tools import cleanly.
//!
//! Export builds no XML tree: [`to_pnml`] streams the document through
//! one [`ezrt_xml::XmlWriter`] into a `String` sized up front from the
//! net's places, transitions and arcs. Import parses into an
//! [`ezrt_xml::Element`] tree and reads the net off it.
//!
//! # Examples
//!
//! ```
//! use ezrt_compose::translate;
//! use ezrt_pnml::{from_pnml, to_pnml};
//! use ezrt_spec::corpus::figure3_spec;
//!
//! # fn main() -> Result<(), ezrt_pnml::ParsePnmlError> {
//! let net = translate(&figure3_spec()).into_net();
//! let document = to_pnml(&net);
//! let reread = from_pnml(&document)?;
//! assert_eq!(reread.place_count(), net.place_count());
//! assert_eq!(reread.transition_count(), net.transition_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod read;
mod write;

pub use error::ParsePnmlError;
pub use read::from_pnml;
pub use write::to_pnml;

/// The PNML namespace (version 2009 grammar).
pub const PNML_NAMESPACE: &str = "http://www.pnml.org/version-2009/grammar/pnml";

/// The net type URI for place/transition nets.
pub const PTNET_TYPE: &str = "http://www.pnml.org/version-2009/grammar/ptnet";

/// The `tool` attribute used for ezRealtime's timing extension.
pub const TOOL_NAME: &str = "ezrealtime";
