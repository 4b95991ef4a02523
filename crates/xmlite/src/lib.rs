//! # xmlite — a minimal XML document model for the fpgatest infrastructure
//!
//! The DATE'05 test infrastructure exchanges every artifact between the
//! compiler and the simulator as XML: the datapath netlist, the control-unit
//! FSM, and the Reconfiguration Transition Graph (RTG). This crate provides
//! the XML layer those dialects are built on:
//!
//! * a tree document model ([`Document`], [`Element`], [`Node`]),
//! * a non-validating XML 1.0 subset parser ([`Document::parse`]),
//! * a writer with canonical pretty-printing ([`Document::to_pretty_string`]),
//! * a small path language for selecting nodes ([`path::select`]),
//! * entity escaping/unescaping ([`escape`]).
//!
//! The subset is deliberately scoped to what machine-generated interchange
//! files need: elements, attributes, character data, comments, CDATA, the
//! XML declaration, and the five predefined entities plus numeric character
//! references. DTDs, namespaces, and processing instructions other than the
//! declaration are out of scope (the infrastructure never emits them).
//!
//! ## Example
//!
//! ```
//! use xmlite::{Document, Element};
//!
//! # fn main() -> Result<(), xmlite::ParseXmlError> {
//! let doc = Document::parse("<fsm name='ctrl'><state id='s0'/></fsm>")?;
//! assert_eq!(doc.root().name(), "fsm");
//! assert_eq!(doc.root().attr("name"), Some("ctrl"));
//! let states = xmlite::path::select(doc.root(), "state");
//! assert_eq!(states.len(), 1);
//! # Ok(())
//! # }
//! ```

mod dom;
mod error;
pub mod escape;
mod parser;
pub mod path;
mod writer;

pub use dom::{Document, Element, Node};
pub use error::ParseXmlError;
pub use writer::WriteOptions;

/// Counts the number of non-empty lines in a rendered document.
///
/// Table I of the paper reports sizes of the XML descriptions as *lines*
/// (`loXML`); this helper defines that metric uniformly for the whole
/// infrastructure: the line count of the canonical pretty-printed form.
///
/// ```
/// use xmlite::{Document, loc};
/// # fn main() -> Result<(), xmlite::ParseXmlError> {
/// let doc = Document::parse("<a><b/><c/></a>")?;
/// assert_eq!(loc(&doc), 4); // <a>, <b/>, <c/>, </a>
/// # Ok(())
/// # }
/// ```
pub fn loc(doc: &Document) -> usize {
    loc_of_pretty(&doc.to_pretty_string())
}

/// [`loc`] of a document already rendered by
/// [`Document::to_pretty_string`], for callers that keep the text and
/// should not render it a second time just to count it.
///
/// ```
/// use xmlite::{Document, loc, loc_of_pretty};
/// # fn main() -> Result<(), xmlite::ParseXmlError> {
/// let doc = Document::parse("<a><b/><c/></a>")?;
/// assert_eq!(loc_of_pretty(&doc.to_pretty_string()), loc(&doc));
/// # Ok(())
/// # }
/// ```
pub fn loc_of_pretty(pretty: &str) -> usize {
    pretty
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with("<?"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counts_pretty_lines() {
        let doc = Document::parse("<a><b x='1'/><b x='2'/></a>").unwrap();
        assert_eq!(loc(&doc), 4);
    }

    #[test]
    fn loc_of_pretty_text_matches_loc() {
        for xml in [
            "<a/>",
            "<a><b x='1'/><b x='2'/></a>",
            "<a>text<b/>more<!--c--><c><d>x &lt; y</d></c></a>",
        ] {
            let doc = Document::parse(xml).unwrap();
            assert_eq!(loc_of_pretty(&doc.to_pretty_string()), loc(&doc), "{xml}");
        }
    }

    #[test]
    fn loc_of_single_empty_element() {
        let doc = Document::parse("<a/>").unwrap();
        assert_eq!(loc(&doc), 1);
    }
}
