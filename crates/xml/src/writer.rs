//! Streaming XML output: [`XmlWriter`] appends markup straight into one
//! `String`, and [`write_document`] drives it over an element tree.

use crate::escape::{escape_attr_into, escape_text_into};
use crate::tree::{Element, Node};

/// Formatting options for [`write_document`] and [`XmlWriter`].
///
/// # Examples
///
/// ```
/// use ezrt_xml::{Element, WriteOptions, write_document};
///
/// let mut root = Element::new("spec");
/// root.push_text_child("period", "9");
/// let compact = write_document(&root, &WriteOptions { indent: None, declaration: false });
/// assert_eq!(compact, "<spec><period>9</period></spec>");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOptions {
    /// Number of spaces per nesting level, or `None` for compact output.
    pub indent: Option<usize>,
    /// Whether to emit the `<?xml version="1.0" encoding="UTF-8"?>` line.
    pub declaration: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            indent: Some(2),
            declaration: true,
        }
    }
}

/// Serializes `root` as an XML document according to `options`.
///
/// Elements whose content is a single text node are written on one line
/// (`<period>9</period>`), matching the style of the paper's Fig. 7 listing.
pub fn write_document(root: &Element, options: &WriteOptions) -> String {
    let mut writer = XmlWriter::new(options, 0);
    write_element(&mut writer, root);
    writer.finish()
}

fn write_element(writer: &mut XmlWriter, element: &Element) {
    writer.start(&element.name);
    for (name, value) in &element.attributes {
        writer.attr(name, value.as_str());
    }
    match element.nodes.as_slice() {
        [Node::Text(text)] => {
            writer.text(text.as_str());
        }
        nodes => {
            for node in nodes {
                match node {
                    Node::Element(child) => write_element(writer, child),
                    Node::Text(text) => {
                        writer.text_node(text.as_str());
                    }
                }
            }
        }
    }
    writer.end(&element.name);
}

/// A value [`XmlWriter`] can write as an attribute value or as text.
///
/// Strings pass through the escaping function the writer hands in;
/// unsigned integers and [`Id`]s append their digits directly, with no
/// intermediate `String`.
pub trait XmlValue {
    /// Appends the value to `out`, passing every piece of text through
    /// `escape` (the attribute or the text escaper, by position).
    fn append_to(&self, out: &mut String, escape: fn(&mut String, &str));
}

impl XmlValue for &str {
    fn append_to(&self, out: &mut String, escape: fn(&mut String, &str)) {
        escape(out, self);
    }
}

impl XmlValue for u32 {
    fn append_to(&self, out: &mut String, _escape: fn(&mut String, &str)) {
        push_decimal(out, u64::from(*self));
    }
}

impl XmlValue for u64 {
    fn append_to(&self, out: &mut String, _escape: fn(&mut String, &str)) {
        push_decimal(out, *self);
    }
}

/// An identifier written as a prefix and a decimal index, such as `p3`
/// or `#ez12`, without formatting it into a `String` first.
///
/// # Examples
///
/// ```
/// use ezrt_xml::{Id, WriteOptions, XmlWriter};
///
/// let mut writer = XmlWriter::new(&WriteOptions { indent: None, declaration: false }, 0);
/// writer.start("place").attr("id", Id("p", 3)).end("place");
/// assert_eq!(writer.finish(), "<place id=\"p3\"/>");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Id<'a>(pub &'a str, pub usize);

impl XmlValue for Id<'_> {
    fn append_to(&self, out: &mut String, escape: fn(&mut String, &str)) {
        escape(out, self.0);
        push_decimal(out, self.1 as u64);
    }
}

fn push_decimal(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Writes an XML document element by element into one `String`, with no
/// tree in between.
///
/// The writer keeps the nesting depth and whether the current start tag
/// is still open, so it produces exactly what [`write_document`] prints
/// for the equivalent tree:
///
/// * an element that gets no content closes as `<name/>`;
/// * [`text`](Self::text) makes the text the element's whole content, on
///   the same line as its tags (`<period>9</period>`);
/// * in any other content every child and every
///   [`text_node`](Self::text_node) starts on a line of its own, indented
///   one level deeper than its parent.
///
/// Attribute values and text are escaped as they are appended. The caller
/// closes each element with [`end`](Self::end), naming it again.
///
/// # Examples
///
/// ```
/// use ezrt_xml::{WriteOptions, XmlWriter};
///
/// let mut writer = XmlWriter::new(&WriteOptions::default(), 128);
/// writer.start("Task").attr("identifier", "ez0");
/// writer.text_element("name", "T1 & T2").text_element("period", 9u64);
/// writer.end("Task");
/// assert_eq!(
///     writer.finish(),
///     "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
///      <Task identifier=\"ez0\">\n  <name>T1 &amp; T2</name>\n  <period>9</period>\n</Task>\n"
/// );
/// ```
#[derive(Debug)]
pub struct XmlWriter {
    out: String,
    indent: Option<usize>,
    /// Elements started and not yet ended.
    depth: usize,
    /// The innermost start tag still awaits its `>` (or `/>`).
    open: bool,
    /// The innermost element's content is one inline text.
    inline: bool,
}

impl XmlWriter {
    /// Starts a document formatted per `options`, reserving `capacity`
    /// bytes up front; the XML declaration, if asked for, is written now.
    pub fn new(options: &WriteOptions, capacity: usize) -> Self {
        let mut out = String::with_capacity(capacity);
        if options.declaration {
            out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
            if options.indent.is_some() {
                out.push('\n');
            }
        }
        XmlWriter {
            out,
            indent: options.indent,
            depth: 0,
            open: false,
            inline: false,
        }
    }

    /// Opens element `name` as the next content of the current element
    /// (or as the root).
    pub fn start(&mut self, name: &str) -> &mut Self {
        debug_assert!(!self.inline, "an element with inline text has no children");
        self.close_start_tag();
        if self.depth > 0 {
            self.break_line(self.depth);
        }
        self.out.push('<');
        self.out.push_str(name);
        self.depth += 1;
        self.open = true;
        self
    }

    /// Adds an attribute to the element just started.
    pub fn attr(&mut self, name: &str, value: impl XmlValue) -> &mut Self {
        debug_assert!(self.open, "attributes follow start() directly");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        value.append_to(&mut self.out, escape_attr_into);
        self.out.push('"');
        self
    }

    /// Writes `value` as the whole content of the element just started,
    /// on the same line as its tags.
    pub fn text(&mut self, value: impl XmlValue) -> &mut Self {
        debug_assert!(self.open, "inline text is an element's only content");
        self.close_start_tag();
        value.append_to(&mut self.out, escape_text_into);
        self.inline = true;
        self
    }

    /// Writes `value` as one text node among other content, on a line of
    /// its own.
    pub fn text_node(&mut self, value: impl XmlValue) -> &mut Self {
        debug_assert!(!self.inline, "inline text is an element's only content");
        self.close_start_tag();
        self.break_line(self.depth);
        value.append_to(&mut self.out, escape_text_into);
        self
    }

    /// Writes `<name>value</name>` as the next content: shorthand for
    /// [`start`](Self::start), [`text`](Self::text), [`end`](Self::end).
    pub fn text_element(&mut self, name: &str, value: impl XmlValue) -> &mut Self {
        self.start(name).text(value).end(name)
    }

    /// Closes the innermost open element, which must be named `name`.
    pub fn end(&mut self, name: &str) -> &mut Self {
        debug_assert!(self.depth > 0, "end() without a matching start()");
        self.depth -= 1;
        if self.open {
            self.out.push_str("/>");
            self.open = false;
            return self;
        }
        if self.inline {
            self.inline = false;
        } else {
            self.break_line(self.depth);
        }
        self.out.push_str("</");
        self.out.push_str(name);
        self.out.push('>');
        self
    }

    /// Ends the document and returns its text.
    pub fn finish(mut self) -> String {
        debug_assert_eq!(self.depth, 0, "finish() with elements still open");
        if self.indent.is_some() {
            self.out.push('\n');
        }
        self.out
    }

    fn close_start_tag(&mut self) {
        if self.open {
            self.out.push('>');
            self.open = false;
        }
    }

    /// Starts a new line indented `depth` levels (nothing when compact).
    fn break_line(&mut self, depth: usize) {
        const SPACES: &str = "                                ";
        if let Some(width) = self.indent {
            self.out.push('\n');
            let mut pad = depth * width;
            while pad > 0 {
                let run = pad.min(SPACES.len());
                self.out.push_str(&SPACES[..run]);
                pad -= run;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn sample() -> Element {
        let mut root = Element::new("rt:ez-spec");
        root.set_attr("xmlns:rt", "http://pnmp.sf.net/EZRealtime");
        let mut task = Element::new("Task");
        task.set_attr("identifier", "ez1");
        task.push_text_child("name", "T1");
        task.push_text_child("period", "9");
        root.push_child(task);
        root
    }

    #[test]
    fn default_output_has_declaration_and_indent() {
        let text = write_document(&sample(), &WriteOptions::default());
        assert!(text.starts_with("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"));
        assert!(text.contains("\n  <Task identifier=\"ez1\">"));
        assert!(text.contains("\n    <name>T1</name>"));
    }

    #[test]
    fn compact_output_has_no_whitespace() {
        let text = write_document(
            &sample(),
            &WriteOptions {
                indent: None,
                declaration: false,
            },
        );
        assert!(!text.contains('\n'));
        assert!(text.contains("<period>9</period>"));
    }

    #[test]
    fn attribute_values_are_escaped() {
        let mut e = Element::new("x");
        e.set_attr("msg", "a \"b\" & <c>");
        let text = write_document(
            &e,
            &WriteOptions {
                indent: None,
                declaration: false,
            },
        );
        assert_eq!(text, "<x msg=\"a &quot;b&quot; &amp; &lt;c&gt;\"/>");
    }

    #[test]
    fn round_trip_parse_of_written_document() {
        let original = sample();
        let text = write_document(&original, &WriteOptions::default());
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn round_trip_compact() {
        let original = sample();
        let text = write_document(
            &original,
            &WriteOptions {
                indent: None,
                declaration: false,
            },
        );
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn mixed_content_round_trips_shape() {
        let mut e = Element::new("m");
        e.push_text("hello");
        e.push_child(Element::new("c"));
        let text = write_document(
            &e,
            &WriteOptions {
                indent: None,
                declaration: false,
            },
        );
        assert_eq!(text, "<m>hello<c/></m>");
        assert_eq!(parse(&text).unwrap(), e);
    }

    fn compact() -> WriteOptions {
        WriteOptions {
            indent: None,
            declaration: false,
        }
    }

    #[test]
    fn mixed_content_pads_each_text_node_on_its_own_line() {
        let mut inner = Element::new("c");
        inner.set_attr("k", "v");
        inner.push_text("");
        let mut e = Element::new("m");
        e.push_text("a<b");
        e.push_child(inner);
        e.push_text("tail");
        e.push_child(Element::new("d"));
        let mut root = Element::new("r");
        root.push_child(e);
        assert_eq!(
            write_document(&root, &WriteOptions::default()),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<r>\n  <m>\n    a&lt;b\n    \
             <c k=\"v\"></c>\n    tail\n    <d/>\n  </m>\n</r>\n"
        );
    }

    #[test]
    fn numbers_and_ids_are_written_as_decimal_digits() {
        let mut writer = XmlWriter::new(&compact(), 0);
        writer
            .start("arc")
            .attr("id", Id("a", 0))
            .attr("source", Id("p", 18_446))
            .text_element("text", u64::MAX)
            .text_element("zero", 0u32)
            .end("arc");
        assert_eq!(
            writer.finish(),
            "<arc id=\"a0\" source=\"p18446\"><text>18446744073709551615</text>\
             <zero>0</zero></arc>"
        );
    }

    #[test]
    fn deep_indentation_pads_past_one_run_of_spaces() {
        let options = WriteOptions {
            indent: Some(7),
            declaration: false,
        };
        let mut writer = XmlWriter::new(&options, 0);
        for _ in 0..7 {
            writer.start("n");
        }
        for _ in 0..7 {
            writer.end("n");
        }
        let text = writer.finish();
        assert!(
            text.contains(&format!("\n{}<n/>\n", " ".repeat(42))),
            "{text}"
        );
    }
}
