//! Rendering of documents back to XML text.

use crate::dom::{Document, Element, Node};
use crate::escape;

/// Controls how [`Document::to_string_with`] renders a document.
///
/// ```
/// use xmlite::{Document, Element, WriteOptions};
/// let doc = Document::new(Element::new("a").with_child(Element::new("b")));
/// let flat = doc.to_string_with(&WriteOptions::compact());
/// assert_eq!(flat, "<a><b/></a>");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOptions {
    /// Indentation used per nesting level; `None` renders on one line.
    pub indent: Option<String>,
    /// Whether to emit `<?xml version="1.0" encoding="UTF-8"?>` first.
    pub declaration: bool,
}

impl WriteOptions {
    /// Two-space indentation with an XML declaration (the canonical form
    /// used for `loXML` metrics).
    pub fn pretty() -> Self {
        WriteOptions {
            indent: Some("  ".to_string()),
            declaration: true,
        }
    }

    /// Single-line output without a declaration.
    pub fn compact() -> Self {
        WriteOptions {
            indent: None,
            declaration: false,
        }
    }
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions::pretty()
    }
}

pub(crate) fn write_document(doc: &Document, options: &WriteOptions) -> String {
    let mut out = String::new();
    if options.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        push_newline(&mut out, options);
    }
    write_element_into(doc.root(), options, 0, &mut out);
    out
}

pub(crate) fn write_element(element: &Element, options: &WriteOptions) -> String {
    let mut out = String::new();
    write_element_into(element, options, 0, &mut out);
    out
}

fn push_newline(out: &mut String, options: &WriteOptions) {
    if options.indent.is_some() {
        out.push('\n');
    }
}

fn push_indent(out: &mut String, options: &WriteOptions, depth: usize) {
    if let Some(indent) = &options.indent {
        for _ in 0..depth {
            out.push_str(indent);
        }
    }
}

fn write_element_into(element: &Element, options: &WriteOptions, depth: usize, out: &mut String) {
    push_indent(out, options, depth);
    out.push('<');
    out.push_str(element.name());
    for (name, value) in element.attrs() {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        escape::escape_attr_into(value, out);
        out.push('"');
    }
    if element.children().is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');

    // An element whose only children are text nodes renders inline so that
    // character data round-trips without gaining whitespace.
    let text_only = element.children().iter().all(|n| matches!(n, Node::Text(_)));
    if text_only {
        for node in element.children() {
            if let Node::Text(t) = node {
                escape::escape_text_into(t, out);
            }
        }
    } else {
        for node in element.children() {
            push_newline(out, options);
            match node {
                Node::Element(child) => write_element_into(child, options, depth + 1, out),
                Node::Text(t) => {
                    push_indent(out, options, depth + 1);
                    escape::escape_text_into(t, out);
                }
                Node::Comment(c) => {
                    push_indent(out, options, depth + 1);
                    out.push_str("<!--");
                    out.push_str(c);
                    out.push_str("-->");
                }
            }
        }
        push_newline(out, options);
        push_indent(out, options, depth);
    }
    out.push_str("</");
    out.push_str(element.name());
    out.push('>');
}

#[cfg(test)]
mod tests {
    use crate::dom::{Document, Element};

    fn sample() -> Document {
        Document::new(
            Element::new("fsm")
                .with_attr("name", "ctrl")
                .with_child(Element::new("state").with_attr("id", "s0"))
                .with_child(
                    Element::new("note").with_text("a < b"),
                ),
        )
    }

    #[test]
    fn pretty_output_is_indented() {
        let s = sample().to_pretty_string();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines[0], "<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        assert_eq!(lines[1], "<fsm name=\"ctrl\">");
        assert_eq!(lines[2], "  <state id=\"s0\"/>");
        assert_eq!(lines[3], "  <note>a &lt; b</note>");
        assert_eq!(lines[4], "</fsm>");
    }

    #[test]
    fn compact_output_is_single_line() {
        let s = sample().to_compact_string();
        assert!(!s.contains('\n'));
        assert!(s.starts_with("<fsm"));
    }

    #[test]
    fn attribute_values_are_escaped() {
        let doc = Document::new(Element::new("a").with_attr("v", "x\"<&>'"));
        let s = doc.to_compact_string();
        assert_eq!(s, "<a v=\"x&quot;&lt;&amp;&gt;&apos;\"/>");
    }

    #[test]
    fn roundtrip_through_parser() {
        let doc = sample();
        let reparsed = Document::parse(&doc.to_pretty_string()).unwrap();
        assert_eq!(doc, reparsed);
        let reparsed2 = Document::parse(&doc.to_compact_string()).unwrap();
        assert_eq!(doc, reparsed2);
    }

    #[test]
    fn comments_render() {
        let doc = Document::new(
            Element::new("a").with_child(crate::Node::Comment("hi".into())).with_child(Element::new("b")),
        );
        assert_eq!(doc.to_compact_string(), "<a><!--hi--><b/></a>");
    }
}
