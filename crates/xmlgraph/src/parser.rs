//! A from-scratch XML parser producing [`XmlGraph`]s.
//!
//! Supports the XML subset the APEX evaluation needs: elements, attributes,
//! character data, CDATA, comments, processing instructions, a skipped
//! DOCTYPE, and the five predefined entities plus numeric character
//! references. ID/IDREF attributes are recognized by name via
//! [`ParserConfig`] (DTDs are not interpreted), mirroring how the paper's
//! datasets declare them.

use crate::builder::GraphBuilder;
use crate::error::ParseError;
use crate::model::XmlGraph;

/// Controls how attributes are mapped into the graph.
#[derive(Debug, Clone)]
pub struct ParserConfig {
    /// Attribute names treated as ID declarations.
    pub id_attrs: Vec<String>,
    /// Attribute names treated as IDREF(S); whitespace-separated values
    /// yield one reference attribute node per target.
    pub idref_attrs: Vec<String>,
}

impl Default for ParserConfig {
    fn default() -> Self {
        ParserConfig {
            id_attrs: vec!["id".into(), "ID".into()],
            idref_attrs: vec!["idref".into(), "IDREF".into(), "ref".into()],
        }
    }
}

/// Parses `input` with the default [`ParserConfig`].
pub fn parse(input: &str) -> Result<XmlGraph, ParseError> {
    parse_with(input, &ParserConfig::default())
}

/// Parses `input`, classifying attributes per `cfg`.
pub fn parse_with(input: &str, cfg: &ParserConfig) -> Result<XmlGraph, ParseError> {
    Parser::new(input, cfg).run()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    cfg: &'a ParserConfig,
}

/// Per-open-element state on the parse stack.
struct Frame {
    node: crate::model::NodeId,
    tag: String,
    text: String,
    has_element_children: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, cfg: &'a ParserConfig) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            cfg,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.col, msg)
    }

    /// The input slice `[start, pos)` as text. The parser only splits at
    /// ASCII delimiters, so this cannot land inside a UTF-8 sequence;
    /// still, a malformed slice is reported as a parse error rather than
    /// a panic.
    fn slice(&self, start: usize) -> Result<&'a str, ParseError> {
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("input is not valid UTF-8"))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn consume_str(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        while self.pos < self.bytes.len() {
            if self.consume_str(end) {
                return Ok(());
            }
            self.bump();
        }
        Err(self.err(format!("unterminated construct, expected `{end}`")))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn read_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.slice(start)?.to_string())
    }

    /// Skips prolog junk: XML declaration, comments, PIs, DOCTYPE.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.consume_str("<?");
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.consume_str("<!--");
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.consume_str("<!DOCTYPE");
                // Skip to matching '>', honoring an internal subset [...]
                let mut depth = 0i32;
                loop {
                    match self.bump() {
                        Some(b'[') => depth += 1,
                        Some(b']') => depth -= 1,
                        Some(b'>') if depth <= 0 => break,
                        Some(_) => {}
                        None => return Err(self.err("unterminated DOCTYPE")),
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn run(mut self) -> Result<XmlGraph, ParseError> {
        self.skip_misc()?;
        if self.peek() != Some(b'<') {
            return Err(self.err("expected root element"));
        }
        self.bump(); // '<'
        let root_tag = self.read_name()?;
        let mut builder = GraphBuilder::new(&root_tag);
        let root = builder.root();
        let self_closed = self.read_attrs_and_close(&mut builder, root)?;
        let mut stack: Vec<Frame> = Vec::new();
        if !self_closed {
            stack.push(Frame {
                node: root,
                tag: root_tag,
                text: String::new(),
                has_element_children: false,
            });
            self.parse_content(&mut builder, &mut stack)?;
        }
        self.skip_misc()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after document element"));
        }
        builder.finish().map_err(Into::into)
    }

    /// Parses attributes of the already-opened tag of `node`, up to and
    /// including `>` or `/>`. Returns true if self-closed.
    fn read_attrs_and_close(
        &mut self,
        builder: &mut GraphBuilder,
        node: crate::model::NodeId,
    ) -> Result<bool, ParseError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    return Ok(false);
                }
                Some(b'/') => {
                    self.bump();
                    if self.bump() != Some(b'>') {
                        return Err(self.err("expected `>` after `/`"));
                    }
                    return Ok(true);
                }
                Some(_) => {
                    let name = self.read_name()?;
                    self.skip_ws();
                    if self.bump() != Some(b'=') {
                        return Err(self.err("expected `=` in attribute"));
                    }
                    self.skip_ws();
                    let quote = self.bump();
                    let quote = match quote {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    let start = self.pos;
                    while self.peek() != Some(quote) {
                        if self.bump().is_none() {
                            return Err(self.err("unterminated attribute value"));
                        }
                    }
                    let raw = self.slice(start)?;
                    let value = decode_entities(raw, self)?;
                    self.bump(); // closing quote
                    if self.cfg.id_attrs.iter().any(|a| a == &name) {
                        builder
                            .register_id(node, &value)
                            .map_err(|e| self.err(e.to_string()))?;
                    } else if self.cfg.idref_attrs.iter().any(|a| a == &name) {
                        for target in value.split_whitespace() {
                            builder.add_idref(node, &name, target);
                        }
                    } else {
                        builder.add_attribute(node, &name, &value);
                    }
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
    }

    fn parse_content(
        &mut self,
        builder: &mut GraphBuilder,
        stack: &mut Vec<Frame>,
    ) -> Result<(), ParseError> {
        while let Some(b) = self.peek() {
            if b == b'<' {
                if self.starts_with("<!--") {
                    self.consume_str("<!--");
                    self.skip_until("-->")?;
                } else if self.starts_with("<![CDATA[") {
                    self.consume_str("<![CDATA[");
                    let start = self.pos;
                    loop {
                        if self.starts_with("]]>") {
                            break;
                        }
                        if self.bump().is_none() {
                            return Err(self.err("unterminated CDATA"));
                        }
                    }
                    let text = self.slice(start)?;
                    let Some(frame) = stack.last_mut() else {
                        return Err(self.err("CDATA outside any element"));
                    };
                    frame.text.push_str(text);
                    self.consume_str("]]>");
                } else if self.starts_with("<?") {
                    self.consume_str("<?");
                    self.skip_until("?>")?;
                } else if self.starts_with("</") {
                    self.consume_str("</");
                    let name = self.read_name()?;
                    self.skip_ws();
                    if self.bump() != Some(b'>') {
                        return Err(self.err("expected `>` in end tag"));
                    }
                    let Some(frame) = stack.pop() else {
                        return Err(self.err(format!("end tag `</{name}>` outside any element")));
                    };
                    if frame.tag != name {
                        return Err(self.err(format!(
                            "mismatched end tag `</{name}>`, expected `</{}>`",
                            frame.tag
                        )));
                    }
                    self.close_frame(builder, frame);
                    if stack.is_empty() {
                        return Ok(());
                    }
                } else {
                    self.bump(); // '<'
                    let name = self.read_name()?;
                    let Some(parent) = stack.last_mut() else {
                        return Err(self.err("element outside any open element"));
                    };
                    parent.has_element_children = true;
                    let parent_node = parent.node;
                    let node = builder.add_child(parent_node, &name);
                    let self_closed = self.read_attrs_and_close(builder, node)?;
                    if !self_closed {
                        stack.push(Frame {
                            node,
                            tag: name,
                            text: String::new(),
                            has_element_children: false,
                        });
                    }
                }
            } else {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b'<' {
                        break;
                    }
                    self.bump();
                }
                let raw = self.slice(start)?;
                let text = decode_entities(raw, self)?;
                let Some(frame) = stack.last_mut() else {
                    return Err(self.err("character data outside any element"));
                };
                frame.text.push_str(&text);
            }
        }
        Err(self.err("unexpected end of input inside element"))
    }

    /// Applies accumulated text when an element closes: text-only elements
    /// become value leaves; mixed content is attached as a `text` leaf
    /// child (interleaving is not preserved — fine for this data model,
    /// which has no mixed-content ordering semantics).
    fn close_frame(&self, builder: &mut GraphBuilder, frame: Frame) {
        let trimmed = frame.text.trim();
        if trimmed.is_empty() {
            return;
        }
        if frame.has_element_children {
            builder.add_value_child(frame.node, "text", trimmed);
        } else {
            builder.set_value(frame.node, trimmed);
        }
    }
}

/// Decodes the predefined entities and numeric character references.
fn decode_entities(raw: &str, p: &Parser<'_>) -> Result<String, ParseError> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| p.err("unterminated entity reference"))?;
        let ent = &rest[1..semi];
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with('#') => {
                let (digits, radix) = match ent[1..].strip_prefix(['x', 'X']) {
                    Some(hex) => (hex, 16),
                    None => (&ent[1..], 10),
                };
                let cp = u32::from_str_radix(digits, radix)
                    .map_err(|_| p.err(format!("bad character reference `&{ent};`")))?;
                let c = char::from_u32(cp);
                out.push(c.ok_or_else(|| p.err(format!("invalid code point `&{ent};`")))?);
            }
            _ => return Err(p.err(format!("unknown entity `&{ent};`"))),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NodeId;

    #[test]
    fn parses_simple_tree() {
        let g = parse("<a><b>hello</b><c/></a>").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.value(NodeId(1)), Some("hello"));
        assert_eq!(g.label_str(g.tag(NodeId(2))), "c");
    }

    #[test]
    fn parses_prolog_doctype_comments() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE a [ <!ELEMENT a (b)> ]>
<!-- top comment -->
<a><!-- inner --><b>x</b></a>
"#;
        let g = parse(src).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.value(NodeId(1)), Some("x"));
    }

    #[test]
    fn decodes_entities_and_charrefs() {
        let g = parse("<a>&lt;tag&gt; &amp; &#65;&#x42;</a>").unwrap();
        assert_eq!(g.value(NodeId(0)), Some("<tag> & AB"));
    }

    #[test]
    fn cdata_is_text() {
        let g = parse("<a><![CDATA[1 < 2 & 3]]></a>").unwrap();
        assert_eq!(g.value(NodeId(0)), Some("1 < 2 & 3"));
    }

    #[test]
    fn attributes_become_at_leaves() {
        let g = parse(r#"<a year="1977" title='x'/>"#).unwrap();
        assert_eq!(g.node_count(), 3);
        let mut labels: Vec<&str> = g
            .out_edges(NodeId(0))
            .iter()
            .map(|e| g.label_str(e.label))
            .collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["@title", "@year"]);
    }

    #[test]
    fn id_idref_builds_reference_edges() {
        let src = r#"<db><movie id="m1"><title>SW</title></movie><actor ref="m1"/></db>"#;
        let g = parse(src).unwrap();
        // actor node has an @ref attr node with an edge labeled `movie`.
        let at_ref = g.label_id("@ref").unwrap();
        let (_, _, attr_node) = g.edges().find(|(_, l, _)| *l == at_ref).unwrap();
        let refs = g.out_edges(attr_node);
        assert_eq!(refs.len(), 1);
        assert_eq!(g.label_str(refs[0].label), "movie");
        assert_eq!(g.idref_labels().len(), 1);
    }

    #[test]
    fn idrefs_value_fans_out() {
        let src = r#"<db><p id="a"/><p id="b"/><q ref="a b"/></db>"#;
        let g = parse(src).unwrap();
        let at_ref = g.label_id("@ref").unwrap();
        let attr_nodes: Vec<_> = g
            .edges()
            .filter(|(_, l, _)| *l == at_ref)
            .map(|(_, _, t)| t)
            .collect();
        assert_eq!(attr_nodes.len(), 2);
    }

    #[test]
    fn mixed_content_becomes_text_leaf() {
        let g = parse("<a>pre<b>x</b>post</a>").unwrap();
        let text = g.label_id("text").unwrap();
        let (_, _, t) = g.edges().find(|(_, l, _)| *l == text).unwrap();
        assert_eq!(g.value(t), Some("prepost"));
    }

    #[test]
    fn mismatched_tag_is_error() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(e.msg.contains("mismatched"));
    }

    #[test]
    fn unresolved_idref_is_error() {
        assert!(parse(r#"<a ref="nope"/>"#).is_err());
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn unknown_entity_is_error() {
        assert!(parse("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn position_reported_on_error() {
        let e = parse("<a>\n  <b></c></b></a>").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
