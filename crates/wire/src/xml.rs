//! A minimal XML subset: elements, attributes, text — enough to carry the
//! paper's SOAP-style promise headers without an external dependency.
//!
//! Supported: `<name attr='v'>children|text</name>`, self-closing tags,
//! the five standard entities. Not supported (not needed): namespaces,
//! comments, processing instructions, CDATA, doctypes.

use std::fmt;

/// An XML element tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in definition order.
    pub attributes: Vec<(String, String)>,
    /// Child elements.
    pub children: Vec<XmlElement>,
    /// Concatenated text content (children and text are not interleaved).
    pub text: String,
}

impl XmlElement {
    /// Creates an element with no attributes/children/text.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            attributes: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Builder: adds an attribute.
    pub fn attr(mut self, name: &str, value: impl fmt::Display) -> Self {
        self.attributes.push((name.to_owned(), value.to_string()));
        self
    }

    /// Builder: adds a child element.
    pub fn child(mut self, child: XmlElement) -> Self {
        self.children.push(child);
        self
    }

    /// Builder: sets text content.
    pub fn with_text(mut self, text: impl fmt::Display) -> Self {
        self.text = text.to_string();
        self
    }

    /// First attribute with the given name.
    pub fn get_attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First child with the given tag name.
    pub fn find(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given tag name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Serialises to a string.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("='");
            escape_into(v, out);
            out.push('\'');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        escape_into(&self.text, out);
        for c in &self.children {
            c.write(out);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '\'' => out.push_str("&apos;"),
            '"' => out.push_str("&quot;"),
            other => out.push(other),
        }
    }
}

/// XML parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset.
    pub at: usize,
    /// Message.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for XmlError {}

/// How deeply elements may nest, the document element counting as 1. The
/// codec's envelopes nest 4 deep (`envelope` > `header` >
/// `promise-request` > `predicate`), and no test builds a deeper tree; a
/// document nested deeper than this is refused, not recursed into until
/// the stack overflows.
const MAX_DEPTH: usize = 64;

/// Parses one element (surrounding whitespace allowed).
pub fn parse(input: &str) -> Result<XmlElement, XmlError> {
    let mut p = XmlParser { src: input, pos: 0 };
    p.skip_ws();
    let el = p.element(1)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(el)
}

struct XmlParser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn err(&self, m: impl Into<String>) -> XmlError {
        XmlError {
            at: self.pos,
            message: m.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// Skips whitespace, multi-byte characters included, so `pos` stays on
    /// a character boundary.
    fn skip_ws(&mut self) {
        let rest = self.rest();
        self.pos += rest.len() - rest.trim_start().len();
    }

    fn eat(&mut self, tok: &str) -> bool {
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        for c in self.rest().chars() {
            if c.is_alphanumeric() || c == '-' || c == '_' || c == ':' || c == '.' {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            Err(self.err("expected name"))
        } else {
            Ok(self.src[start..self.pos].to_owned())
        }
    }

    /// Parses the element at `pos`, nested `depth` deep.
    fn element(&mut self, depth: usize) -> Result<XmlElement, XmlError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        if !self.eat("<") {
            return Err(self.err("expected '<'"));
        }
        let name = self.name()?;
        let mut el = XmlElement::new(&name);
        loop {
            self.skip_ws();
            if self.eat("/>") {
                return Ok(el);
            }
            if self.eat(">") {
                break;
            }
            let attr_name = self.name()?;
            self.skip_ws();
            if !self.eat("=") {
                return Err(self.err("expected '=' in attribute"));
            }
            self.skip_ws();
            let quote = if self.eat("'") {
                '\''
            } else if self.eat("\"") {
                '"'
            } else {
                return Err(self.err("expected quoted attribute value"));
            };
            let value = self.text_until(quote)?;
            self.pos += 1; // closing quote
            el.attributes.push((attr_name, value));
        }
        // Content: interleaved text and children (text concatenated).
        loop {
            if self.rest().starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != el.name {
                    return Err(self.err(format!(
                        "mismatched close tag: expected </{}>, got </{close}>",
                        el.name
                    )));
                }
                self.skip_ws();
                if !self.eat(">") {
                    return Err(self.err("expected '>' after close tag"));
                }
                el.text = el.text.trim().to_owned();
                return Ok(el);
            }
            if self.rest().starts_with('<') {
                el.children.push(self.element(depth + 1)?);
                continue;
            }
            if self.rest().is_empty() {
                return Err(self.err(format!("unexpected end of input in <{}>", el.name)));
            }
            let txt = self.text_until('<')?;
            el.text.push_str(&txt);
        }
    }

    /// Consumes (and unescapes) text up to, but excluding, `stop`.
    fn text_until(&mut self, stop: char) -> Result<String, XmlError> {
        let mut out = String::new();
        loop {
            let Some(c) = self.rest().chars().next() else {
                if stop == '<' {
                    return Ok(out);
                }
                return Err(self.err("unexpected end of input in text"));
            };
            if c == stop {
                return Ok(out);
            }
            if c == '&' {
                let rest = self.rest();
                let (entity, len) = if rest.starts_with("&amp;") {
                    ('&', 5)
                } else if rest.starts_with("&lt;") {
                    ('<', 4)
                } else if rest.starts_with("&gt;") {
                    ('>', 4)
                } else if rest.starts_with("&apos;") {
                    ('\'', 6)
                } else if rest.starts_with("&quot;") {
                    ('"', 6)
                } else {
                    return Err(self.err("unknown entity"));
                };
                out.push(entity);
                self.pos += len;
            } else {
                out.push(c);
                self.pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let el = XmlElement::new("promise-request")
            .attr("request-id", "r1")
            .attr("duration", 5000)
            .child(XmlElement::new("predicate").with_text("qty('w') >= 5"))
            .child(XmlElement::new("resource").attr("pool", "w"));
        let xml = el.to_xml();
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed, el);
    }

    #[test]
    fn escaping_roundtrips() {
        let el = XmlElement::new("p")
            .attr("a", "x < y & z > 'q'")
            .with_text("5 < 6 && \"quoted\"");
        let parsed = parse(&el.to_xml()).unwrap();
        assert_eq!(parsed.get_attr("a"), Some("x < y & z > 'q'"));
        assert_eq!(parsed.text, "5 < 6 && \"quoted\"");
    }

    #[test]
    fn self_closing_and_empty() {
        assert_eq!(parse("<a/>").unwrap(), XmlElement::new("a"));
        assert_eq!(parse("<a></a>").unwrap(), XmlElement::new("a"));
        let p = parse("<a b='1'/>").unwrap();
        assert_eq!(p.get_attr("b"), Some("1"));
    }

    #[test]
    fn nested_structure_and_find() {
        let doc = parse("<env><hdr><p id='1'/><p id='2'/></hdr><body>text</body></env>").unwrap();
        let hdr = doc.find("hdr").unwrap();
        let ids: Vec<_> = hdr.find_all("p").filter_map(|p| p.get_attr("id")).collect();
        assert_eq!(ids, vec!["1", "2"]);
        assert_eq!(doc.find("body").unwrap().text, "text");
        assert!(doc.find("missing").is_none());
    }

    #[test]
    fn double_quoted_attributes() {
        let p = parse(r#"<a b="hello world"/>"#).unwrap();
        assert_eq!(p.get_attr("b"), Some("hello world"));
    }

    #[test]
    fn errors() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a></b>").is_err());
        assert!(parse("<a b=1/>").is_err());
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("plain").is_err());
        assert!(parse("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let p = parse("  <a>\n  <b/>\n  </a>  ").unwrap();
        assert_eq!(p.name, "a");
        assert_eq!(p.children.len(), 1);
        assert_eq!(p.text, "");
    }

    /// Whitespace outside ASCII (a no-break space, a line separator) is
    /// skipped whole, not one byte of it, which split the character.
    #[test]
    fn multibyte_whitespace_is_skipped_whole() {
        for ws in ["\u{a0}", "\u{2028}"] {
            let p = parse(&format!("{ws}<a>{ws}<b/>{ws}</a>{ws}")).unwrap();
            assert_eq!((p.name.as_str(), p.children.len()), ("a", 1), "{ws:?}");
        }
    }
}
